package exp_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// resumeBatch is a batch big enough that an interrupt lands mid-campaign:
// every scheme over a moderately sized workload.
func resumeBatch() []exp.Job {
	prof := workload.Euler().Scale(0.1, 0.1, 0.25)
	cfg := machine.NUMA16()
	jobs := []exp.Job{{Machine: cfg, Profile: prof, Seed: 3, Sequential: true}}
	for _, sch := range core.AllSchemes() {
		jobs = append(jobs, exp.Job{Machine: cfg, Scheme: sch, Profile: prof, Seed: 3})
	}
	return jobs
}

// TestInterruptResumeBatch is the in-process half of the crash drill:
// cancel a journaled batch as soon as its first job settles, so the jobs
// then in flight halt at their next commit, then resume from the journal.
// The journal holds no checkpoint records, and the resumed batch, which
// re-runs every unfinished job from its start, must equal an uninterrupted
// run.
func TestInterruptResumeBatch(t *testing.T) {
	jobs := resumeBatch()
	golden, err := (&cluster.Local{Workers: 2}).RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	cache, err := exp.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the first settled job cancels the batch.
	j1, err := exp.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r1 := &cluster.Local{
		Workers: 2, Cache: cache, Journal: j1,
		Progress: func(exp.JobResult) { cancel() },
	}
	first, err := r1.RunBatch(ctx, jobs)
	j1.Close()
	if err == nil {
		t.Fatal("batch finished although its first settled job cancelled it")
	}
	unfinished := 0
	for _, jr := range first {
		if jr.Err != nil {
			if !errors.Is(jr.Err, exp.ErrJobInterrupted) && !errors.Is(jr.Err, context.Canceled) {
				t.Fatalf("job %s failed on its own: %v", jr.Job.Label(), jr.Err)
			}
			unfinished++
		}
	}
	if unfinished == 0 {
		t.Fatal("no job was left unfinished by the interrupt")
	}

	// Phase 2: resume from the journal. Completed jobs come from the cache,
	// the rest run from their start.
	recs, err := exp.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.T == "checkpoint" {
			t.Fatalf("journal holds a checkpoint record: %+v", rec)
		}
	}
	st, err := exp.LoadCampaign(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := exp.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	r2 := &cluster.Local{Workers: 2, Cache: cache, Journal: j2, Resume: st}
	second, err := r2.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if second[i].Err != nil {
			t.Fatalf("resumed job %d failed: %v", i, second[i].Err)
		}
		if !reflect.DeepEqual(second[i].Result, golden[i].Result) {
			t.Fatalf("job %d (%s): resumed result differs from uninterrupted run",
				i, jobs[i].Label())
		}
	}
}

// TestResumeServesChaoticOutcomes locks the resume contract for chaotic
// jobs, which bypass the result cache: a journaled campaign's job-done
// records carry each sealed outcome, a resumed batch serves them without
// executing anything, and an undecodable payload — torn, or the
// {result, chaos} format of older runners — re-runs only its own job.
func TestResumeServesChaoticOutcomes(t *testing.T) {
	var jobs []exp.Job
	for seed := uint64(1); seed <= 2; seed++ {
		fc := fault.CampaignConfig(seed)
		for _, sch := range []core.Scheme{core.MultiTMVEager, core.MultiTMVLazy} {
			jobs = append(jobs, exp.Job{
				Machine: machine.NUMA16(), Scheme: sch, Seed: seed,
				Profile: workload.FuzzProfile(rng.New(seed)), Faults: &fc, Invariants: true,
			})
		}
	}
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	j1, err := exp.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	first, err := (&cluster.Local{Workers: 2, Journal: j1}).RunBatch(context.Background(), jobs)
	j1.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range first {
		if jr.Err != nil || jr.Chaos == nil {
			t.Fatalf("job %d: err %v, verdict %v", i, jr.Err, jr.Chaos)
		}
	}

	st, err := exp.LoadCampaign(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(st exp.CampaignState) ([]exp.JobResult, []string) {
		var ran []string
		l := &cluster.Local{Workers: 1, Resume: st}
		exp.SetExecOverride(&l.Runner, func(j exp.Job) sim.Result {
			ran = append(ran, j.Key())
			return sim.Result{}
		})
		results, err := l.RunBatch(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		return results, ran
	}
	second, ran := replay(st)
	if len(ran) != 0 {
		t.Fatalf("resume re-executed %d completed chaotic job(s)", len(ran))
	}
	for i, jr := range second {
		if !jr.Cached || jr.Attempts != 0 {
			t.Errorf("job %d: served from the journal but reported Cached=%v Attempts=%d", i, jr.Cached, jr.Attempts)
		}
		if !reflect.DeepEqual(jr.Result, first[i].Result) || !reflect.DeepEqual(jr.Chaos, first[i].Chaos) {
			t.Fatalf("job %d (%s): journaled outcome differs from the original run", i, jobs[i].Label())
		}
	}

	for _, payload := range []string{`{"result":"torn"}`, `{"result":{"ExecCycles":1},"chaos":{"faults":1}}`} {
		corrupt := jobs[1].Key()
		st.Outcomes[corrupt] = json.RawMessage(payload)
		if _, ran = replay(st); !reflect.DeepEqual(ran, []string{corrupt}) {
			t.Fatalf("with payload %s, re-executed %d job(s), want exactly job 1", payload, len(ran))
		}
	}
}

// TestCrashRecoverySIGKILL is the full crash drill of the issue: a child
// process runs the sweep with journal + cache, the parent
// SIGKILLs it at randomized (seeded) points, and resumed reruns must
// converge on a final report byte-identical to an uninterrupted run's.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes; skipped with -short")
	}
	jobs := resumeBatch()
	golden, err := (&cluster.Local{Workers: 2}).RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	goldenBytes, err := reportBytes(golden)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	outPath := filepath.Join(dir, "report.json")
	rng := rand.New(rand.NewSource(42))
	const maxKills = 6
	kills := 0
	for attempt := 0; ; attempt++ {
		if attempt > maxKills+2 {
			t.Fatalf("campaign did not complete after %d attempts", attempt)
		}
		cmd := exec.Command(os.Args[0], "-test.run=TestCrashRecoveryChild$")
		cmd.Env = append(os.Environ(), "EXP_CRASH_CHILD=1", "EXP_CRASH_DIR="+dir)
		out, done := &cmdOutput{}, make(chan error, 1)
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() { done <- cmd.Wait() }()
		if kills < maxKills {
			// SIGKILL at a randomized point inside the campaign window —
			// early kills land mid-first-job, late ones mid-batch.
			delay := time.Duration(20+rng.Intn(400)) * time.Millisecond
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("child failed on its own: %v\n%s", err, out.String())
				}
				// Finished before the kill fired: campaign complete.
			case <-time.After(delay):
				kills++
				cmd.Process.Kill()
				<-done
				continue
			}
		} else if err := <-done; err != nil {
			t.Fatalf("uninterrupted child failed: %v\n%s", err, out.String())
		}
		break
	}
	if kills == 0 {
		t.Log("child always finished before the kill; crash path not exercised this run")
	}

	resumed, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("child reported success but wrote no report: %v", err)
	}
	if string(resumed) != string(goldenBytes) {
		t.Fatalf("report after %d SIGKILL/resume cycles differs from uninterrupted run:\ngot  %s\nwant %s",
			kills, resumed, goldenBytes)
	}
}

// TestCrashRecoveryChild is the re-exec helper for TestCrashRecoverySIGKILL:
// one resume attempt of the fixed campaign. It is a no-op under normal `go
// test` runs.
func TestCrashRecoveryChild(t *testing.T) {
	if os.Getenv("EXP_CRASH_CHILD") == "" {
		t.Skip("helper for TestCrashRecoverySIGKILL")
	}
	dir := os.Getenv("EXP_CRASH_DIR")
	jobs := resumeBatch()
	cache, err := exp.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	journalPath := filepath.Join(dir, "journal.jsonl")
	var resume exp.CampaignState
	if _, err := os.Stat(journalPath); err == nil {
		st, err := exp.LoadCampaign(journalPath)
		if err != nil {
			t.Fatalf("journal left by SIGKILL unreadable: %v", err)
		}
		resume = st
	}
	j, err := exp.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	r := &cluster.Local{Workers: 2, Cache: cache, Journal: j, Resume: resume}
	results, err := r.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %d failed: %v", i, jr.Err)
		}
	}
	data, err := reportBytes(results)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "report.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// reportBytes renders a batch as the canonical "final report" the crash
// drill compares: every job's full Result, in submission order.
func reportBytes(results []exp.JobResult) ([]byte, error) {
	rs := make([]sim.Result, len(results))
	for i, jr := range results {
		rs[i] = jr.Result
	}
	return json.MarshalIndent(rs, "", " ")
}

// cmdOutput buffers child output for failure messages.
type cmdOutput struct{ data []byte }

func (c *cmdOutput) Write(p []byte) (int, error) { c.data = append(c.data, p...); return len(p), nil }
func (c *cmdOutput) String() string              { return string(c.data) }
