package cluster

import (
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/workload"
)

func tinyProfile() workload.Profile {
	return workload.Tree().Scale(0.05, 0.05, 0.25)
}

// testJobs is a small mixed batch: a sequential baseline, plain speculative
// runs across two schemes, and a chaotic run with fault injection and the
// invariant checker armed.
func testJobs() []exp.Job {
	prof := tinyProfile()
	cfg := machine.CMP8()
	fc := fault.CampaignConfig(3)
	return []exp.Job{
		{Machine: cfg, Profile: prof, Seed: 1, Sequential: true},
		{Machine: cfg, Scheme: core.SingleTEager, Profile: prof, Seed: 1},
		{Machine: cfg, Scheme: core.MultiTMVLazy, Profile: prof, Seed: 1},
		{Machine: cfg, Scheme: core.MultiTMVLazy, Profile: prof, Seed: 2},
		{Machine: cfg, Scheme: core.MultiTSVLazy, Profile: prof, Seed: 1, Faults: &fc, Invariants: true},
	}
}

// serialResults executes every job once on a plain runner, in order: the
// reference any fabric's results must be DeepEqual to.
func serialResults(jobs []exp.Job) []exp.JobResult {
	out := make([]exp.JobResult, len(jobs))
	for i, j := range jobs {
		jr := runJob(j)
		out[i] = exp.JobResult{Job: j, Result: jr.Result, Chaos: jr.Chaos}
	}
	return out
}

// runJob executes j once through a fresh runner.
func runJob(j exp.Job) exp.JobResult {
	return (&exp.Runner{}).Run(context.Background(), j, exp.Attempt{N: 1})
}

func TestSpecRoundTrip(t *testing.T) {
	fc := fault.CampaignConfig(7)
	jobs := []exp.Job{
		{Machine: machine.NUMA16(), Scheme: core.MultiTMVLazy, Profile: tinyProfile(), Seed: 1},
		{Machine: machine.NUMA16BigL2(), Scheme: core.MultiTMVLazy, Profile: tinyProfile(), Seed: 2},
		{Machine: machine.CMP8(), Profile: tinyProfile(), Seed: 3, Sequential: true},
		{Machine: machine.ScalableNUMA(8), Scheme: core.SingleTEager, Profile: tinyProfile(), Seed: 4,
			Ablation: exp.Ablation{LineGranularity: true}},
		{Machine: machine.CMP8(), Scheme: core.MultiTSVLazy, Profile: tinyProfile(), Seed: 5,
			Faults: &fc, Invariants: true},
	}
	for i, j := range jobs {
		spec := SpecOf(j)
		back, err := spec.Job()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if back.Key() != j.Key() {
			t.Fatalf("job %d: key changed across the wire", i)
		}
	}
	bad := SpecOf(jobs[0])
	bad.Machine = "PDP11"
	if _, err := bad.Job(); err == nil {
		t.Fatal("unknown machine resolved")
	}
	skewed := SpecOf(jobs[0])
	skewed.Seed++ // sender and receiver now disagree about the job
	if _, err := skewed.Job(); err == nil || !strings.Contains(err.Error(), "key") {
		t.Fatalf("key mismatch not detected: %v", err)
	}
}

func TestEnvelopeChecksum(t *testing.T) {
	env, err := Seal(Outcome{Key: "k", Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}
	var o Outcome
	if err := env.Open(&o); err != nil || o.Key != "k" {
		t.Fatalf("round trip: %v %+v", err, o)
	}
	env.Payload[2] ^= 0x40
	if err := env.Open(&o); err == nil {
		t.Fatal("tampered envelope opened")
	}
}

// startFabric boots an HTTP coordinator and n workers on the loopback,
// returning the coordinator, its URL, and a shutdown function.
func startFabric(t *testing.T, cfg Config, n int, wcfg WorkerConfig) (*Coordinator, string, func()) {
	t.Helper()
	co := NewCoordinator(cfg)
	addr, err := co.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := wcfg
		w.Coordinator = url
		if w.Name == "" {
			w.Name = "w" + string(rune('1'+i))
		} else {
			w.Name += string(rune('1' + i))
		}
		if w.Poll == 0 {
			w.Poll = 20 * time.Millisecond
		}
		wk := NewWorker(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.Run(ctx)
		}()
	}
	return co, url, func() {
		cancel()
		wg.Wait()
		co.Stop()
	}
}

// TestFabricParity runs a mixed batch (sequential, plain, and fault-injected
// chaotic jobs) through a coordinator with two observing workers and
// requires results reflect.DeepEqual-identical to a local serial run by
// unobserved workers — the distributed analogue of the observer-effect and
// determinism guarantees.
func TestFabricParity(t *testing.T) {
	jobs := testJobs()
	local := serialResults(jobs)

	cache, err := exp.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, url, stop := startFabric(t, Config{Name: "parity", Cache: cache}, 2, WorkerConfig{Observe: true})
	defer stop()

	client := &Client{URL: url, Poll: 20 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	remote, err := client.RunBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if remote[i].Err != nil {
			t.Fatalf("job %d (%s): %v", i, jobs[i].Label(), remote[i].Err)
		}
		if !reflect.DeepEqual(local[i].Result, remote[i].Result) {
			t.Fatalf("job %d (%s): fleet result differs from local run", i, jobs[i].Label())
		}
		if !reflect.DeepEqual(local[i].Chaos, remote[i].Chaos) {
			t.Fatalf("job %d (%s): chaos verdict differs: local %+v remote %+v",
				i, jobs[i].Label(), local[i].Chaos, remote[i].Chaos)
		}
	}
	if local[4].Chaos == nil {
		t.Fatal("chaotic job produced no verdict")
	}

	// The merged dashboard: fleet counters plus aggregated tls_run_* series
	// from the observing workers.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"tls_fleet_jobs_done 5", "tls_fleet_leases_granted", "tls_fleet_steals",
		"tls_fleet_dedupe_hits", "tls_run_",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	// Idempotent resubmission: every job answers from the fabric's state
	// without re-execution (dedupe on the tracked keys).
	again, err := client.RunBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(remote[i].Result, again[i].Result) {
			t.Fatalf("job %d: resubmission changed the result", i)
		}
	}
}

// fixedClock is an injectable coordinator clock.
type fixedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fixedClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fixedClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// submitOne registers a single pending job and returns its spec.
func submitOne(t *testing.T, co *Coordinator, seed uint64) JobSpec {
	t.Helper()
	spec := SpecOf(exp.Job{Machine: machine.CMP8(), Scheme: core.MultiTMVLazy, Profile: tinyProfile(), Seed: seed})
	resp, err := co.Submit(SubmitRequest{Jobs: []JobSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Done != 0 {
		t.Fatalf("submit: %+v", resp)
	}
	return spec
}

func sealOutcome(t *testing.T, o Outcome) Envelope {
	t.Helper()
	env, err := Seal(o)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestLeaseExpiryRequeues(t *testing.T) {
	clk := &fixedClock{t: time.Unix(1000, 0)}
	co := NewCoordinator(Config{LeaseTTL: time.Second, StealAfter: -1})
	co.now = clk.now
	spec := submitOne(t, co, 1)

	lr := co.LeaseJobs(LeaseRequest{Worker: "w1", Max: 1})
	if len(lr.Leases) != 1 {
		t.Fatalf("lease: %+v", lr)
	}
	// No heartbeat: the lease dies and the job goes back to the queue.
	clk.advance(2 * time.Second)
	lr2 := co.LeaseJobs(LeaseRequest{Worker: "w2", Max: 1})
	if len(lr2.Leases) != 1 || lr2.Leases[0].Spec.Key != spec.Key {
		t.Fatalf("expired job not re-leased: %+v", lr2)
	}
	if lr2.Leases[0].Speculative {
		t.Fatal("requeued job granted as speculative")
	}
	if co.ctr.leasesExpired != 1 || co.ctr.requeues != 1 {
		t.Fatalf("counters: %+v", co.ctr)
	}
	// The dead worker's late completion still wins: its lease is gone but
	// the result is valid.
	done := co.Complete(CompleteRequest{
		Worker: "w1", Lease: lr.Leases[0].ID, Key: spec.Key,
		Env: sealOutcome(t, Outcome{Key: spec.Key, Worker: "w1"}),
	})
	if !done.Accepted || done.Duplicate {
		t.Fatalf("late completion: %+v", done)
	}
	// And w2's duplicate is counted, not double-applied.
	dup := co.Complete(CompleteRequest{
		Worker: "w2", Lease: lr2.Leases[0].ID, Key: spec.Key,
		Env: sealOutcome(t, Outcome{Key: spec.Key, Worker: "w2"}),
	})
	if !dup.Duplicate || co.ctr.dupResults != 1 {
		t.Fatalf("duplicate result not detected: %+v %+v", dup, co.ctr)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	clk := &fixedClock{t: time.Unix(1000, 0)}
	co := NewCoordinator(Config{LeaseTTL: time.Second, StealAfter: -1})
	co.now = clk.now
	submitOne(t, co, 1)
	lr := co.LeaseJobs(LeaseRequest{Worker: "w1", Max: 1})
	for i := 0; i < 5; i++ {
		clk.advance(600 * time.Millisecond)
		co.Heartbeat(HeartbeatRequest{Worker: "w1", Leases: []uint64{lr.Leases[0].ID}})
	}
	if co.ctr.leasesExpired != 0 {
		t.Fatalf("heartbeated lease expired: %+v", co.ctr)
	}
}

// TestStealGrantsOneDuplicate walks idle-worker stealing, the coordinator's
// only duplicate execution, with an injected clock: a young lease and the
// holder's own job are not stolen, an idle worker gets the one speculative
// duplicate, the cap and a probation breaker refuse any more, the steal does
// not re-measure the queue wait, and the winner cancels its sibling.
func TestStealGrantsOneDuplicate(t *testing.T) {
	clk := &fixedClock{t: time.Unix(1000, 0)}
	co := NewCoordinator(Config{
		LeaseTTL: time.Minute, StealAfter: 5 * time.Second,
		BreakerCRCLimit: 1, QuarantineFor: time.Second,
	})
	co.now = clk.now

	// "prob" delivers one corrupt result, which trips its breaker; "helper"
	// then settles that job, so it is no steal candidate.
	other := submitOne(t, co, 2)
	lp := co.LeaseJobs(LeaseRequest{Worker: "prob", Max: 1})
	if len(lp.Leases) != 1 {
		t.Fatalf("lease: %+v", lp)
	}
	corruptComplete(t, co, "prob", lp.Leases[0])
	lh := co.LeaseJobs(LeaseRequest{Worker: "helper", Max: 1})
	if len(lh.Leases) != 1 {
		t.Fatalf("requeued job not leased: %+v", lh)
	}
	co.Complete(CompleteRequest{
		Worker: "helper", Lease: lh.Leases[0].ID, Key: other.Key,
		Env: sealOutcome(t, Outcome{Key: other.Key, Worker: "helper"}),
	})

	spec := submitOne(t, co, 1)
	lr := co.LeaseJobs(LeaseRequest{Worker: "slow", Max: 1})
	if len(lr.Leases) != 1 || lr.Leases[0].Spec.Key != spec.Key || lr.Leases[0].Speculative {
		t.Fatalf("lease: %+v", lr)
	}
	waits := co.queueWait.Count()

	// Younger than StealAfter: an idle worker gets nothing.
	clk.advance(time.Second)
	if got := co.LeaseJobs(LeaseRequest{Worker: "idle", Max: 1}); len(got.Leases) != 0 {
		t.Fatalf("stole a young lease: %+v", got)
	}
	clk.advance(5 * time.Second)
	// The holder cannot steal its own job.
	if got := co.LeaseJobs(LeaseRequest{Worker: "slow", Max: 1}); len(got.Leases) != 0 {
		t.Fatalf("holder stole its own job: %+v", got)
	}
	// A worker on probation gets at most a probe from the queue, never a
	// steal.
	if got := co.LeaseJobs(LeaseRequest{Worker: "prob", Max: 1}); len(got.Leases) != 0 {
		t.Fatalf("probation worker stole: %+v", got)
	}
	if co.workers["prob"].brk.phase != breakerHalfOpen {
		t.Fatalf("prob breaker = %v, want probation", co.workers["prob"].brk.phase)
	}
	if co.ctr.steals != 0 {
		t.Fatalf("steals before the grant: %d", co.ctr.steals)
	}

	got := co.LeaseJobs(LeaseRequest{Worker: "idle", Max: 1})
	if len(got.Leases) != 1 {
		t.Fatalf("idle worker stole nothing: %+v", got)
	}
	if l := got.Leases[0]; !l.Speculative || l.Attempt != 2 || l.Spec.Key != spec.Key {
		t.Fatalf("stolen lease: %+v", l)
	}
	if co.ctr.steals != 1 {
		t.Fatalf("steals = %d, want 1", co.ctr.steals)
	}
	if n := co.queueWait.Count(); n != waits {
		t.Fatalf("queue_wait_ms observed %d times, want %d: the steal re-measured it", n, waits)
	}
	// One duplicate per job: a third worker gets nothing.
	if extra := co.LeaseJobs(LeaseRequest{Worker: "third", Max: 1}); len(extra.Leases) != 0 {
		t.Fatalf("stole past the one-duplicate cap: %+v", extra)
	}

	// The duplicate wins; the holder is told to abandon its lease.
	win := co.Complete(CompleteRequest{
		Worker: "idle", Lease: got.Leases[0].ID, Key: spec.Key,
		Env: sealOutcome(t, Outcome{Key: spec.Key, Worker: "idle"}),
	})
	if !win.Accepted || win.Duplicate {
		t.Fatalf("winning completion: %+v", win)
	}
	hb := co.Heartbeat(HeartbeatRequest{Worker: "slow", Leases: []uint64{lr.Leases[0].ID}})
	if len(hb.Cancel) != 1 || hb.Cancel[0] != lr.Leases[0].ID {
		t.Fatalf("sibling not cancelled: %+v", hb)
	}
}

func TestCompleteRejectsCorruptEnvelope(t *testing.T) {
	clk := &fixedClock{t: time.Unix(1000, 0)}
	co := NewCoordinator(Config{LeaseTTL: time.Minute, StealAfter: -1})
	co.now = clk.now
	spec := submitOne(t, co, 1)
	lr := co.LeaseJobs(LeaseRequest{Worker: "w1", Max: 1})
	env := sealOutcome(t, Outcome{Key: spec.Key, Worker: "w1"})
	env.Payload[2] ^= 0x40
	resp := co.Complete(CompleteRequest{Worker: "w1", Lease: lr.Leases[0].ID, Key: spec.Key, Env: env})
	if resp.Accepted {
		t.Fatal("corrupt envelope accepted")
	}
	if co.ctr.crcRejected != 1 {
		t.Fatalf("counters: %+v", co.ctr)
	}
	// The job survives the bad body and is re-leasable.
	lr2 := co.LeaseJobs(LeaseRequest{Worker: "w2", Max: 1})
	if len(lr2.Leases) != 1 || lr2.Leases[0].Spec.Key != spec.Key {
		t.Fatalf("job lost after CRC rejection: %+v", lr2)
	}
}

func TestTimeoutFailsPermanently(t *testing.T) {
	clk := &fixedClock{t: time.Unix(1000, 0)}
	co := NewCoordinator(Config{LeaseTTL: time.Minute, StealAfter: -1})
	co.now = clk.now
	spec := submitOne(t, co, 1)
	lr := co.LeaseJobs(LeaseRequest{Worker: "w1", Max: 1})
	co.Complete(CompleteRequest{
		Worker: "w1", Lease: lr.Leases[0].ID, Key: spec.Key,
		Env: sealOutcome(t, Outcome{Key: spec.Key, Worker: "w1", Err: "job hung", TimedOut: true}),
	})
	res := co.Results(ResultsRequest{Keys: []string{spec.Key}})
	env, ok := res.Results[spec.Key]
	if !ok {
		t.Fatalf("timed-out job still pending: %+v", res)
	}
	var o Outcome
	if err := env.Open(&o); err != nil || !o.TimedOut {
		t.Fatalf("outcome: %v %+v", err, o)
	}
	if n := co.Counts(); n.Failed != 1 {
		t.Fatalf("counts: %+v", n)
	}
}

func TestTransientFailureRetriesThenFails(t *testing.T) {
	clk := &fixedClock{t: time.Unix(1000, 0)}
	co := NewCoordinator(Config{LeaseTTL: time.Minute, StealAfter: -1})
	co.now = clk.now
	spec := submitOne(t, co, 1)
	for round := 1; round <= 2; round++ {
		lr := co.LeaseJobs(LeaseRequest{Worker: "w1", Max: 1})
		if len(lr.Leases) != 1 {
			t.Fatalf("round %d: job not leasable: %+v", round, lr)
		}
		if lr.Leases[0].Attempt != round {
			t.Fatalf("round %d: lease carries attempt %d", round, lr.Leases[0].Attempt)
		}
		resp := co.Complete(CompleteRequest{
			Worker: "w1", Lease: lr.Leases[0].ID, Key: spec.Key,
			Env: sealOutcome(t, Outcome{Key: spec.Key, Worker: "w1", Err: "panic", Attempts: 1}),
		})
		if resp.Failed != (round == 2) {
			t.Fatalf("round %d: complete reported Failed=%v", round, resp.Failed)
		}
	}
	// FailLimit (default 2) reached: permanently failed, no more leases.
	if lr := co.LeaseJobs(LeaseRequest{Worker: "w1", Max: 1}); len(lr.Leases) != 0 {
		t.Fatalf("failed job still leasable: %+v", lr)
	}
	if n := co.Counts(); n.Failed != 1 {
		t.Fatalf("counts: %+v", n)
	}
	// The failed outcome reports every execution the coordinator issued, not
	// just the last lease's one.
	var o Outcome
	if err := co.Results(ResultsRequest{Keys: []string{spec.Key}}).Results[spec.Key].Open(&o); err != nil {
		t.Fatal(err)
	}
	if o.Err == "" || o.Attempts != 2 {
		t.Fatalf("failed outcome: err %q attempts %d, want an error after 2", o.Err, o.Attempts)
	}
}
