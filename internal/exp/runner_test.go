package exp_test

import (
	"context"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/sim"
)

// These tests drive runners the way every campaign does: through the
// in-process coordinator (cluster.Local), which owns the pool, dedupe,
// re-execution, the cache and the journal's lease and job-done records.

// testBatch builds a mixed batch: one sequential baseline plus several
// scheme runs over two seeds.
func testBatch() []exp.Job {
	prof := exp.TinyProfile()
	cfg := machine.CMP8()
	jobs := []exp.Job{{Machine: cfg, Profile: prof, Seed: 1, Sequential: true}}
	for _, sch := range []core.Scheme{core.SingleTEager, core.MultiTSVLazy, core.MultiTMVLazy} {
		for seed := uint64(1); seed <= 2; seed++ {
			jobs = append(jobs, exp.Job{Machine: cfg, Scheme: sch, Profile: prof, Seed: seed})
		}
	}
	return jobs
}

func TestRunBatchDeterministicOrdering(t *testing.T) {
	jobs := testBatch()
	serial, err := (&cluster.Local{Workers: 1}).RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&cluster.Local{Workers: 4}).RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Job.Key() != jobs[i].Key() || parallel[i].Job.Key() != jobs[i].Key() {
			t.Fatalf("job %d: result order does not match submission order", i)
		}
		if !reflect.DeepEqual(serial[i].Result, exp.RunJob(jobs[i]).Result) {
			t.Fatalf("job %d: batch result differs from a direct run", i)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Fatalf("job %d: serial %d cycles vs parallel %d cycles",
				i, serial[i].Result.ExecCycles, parallel[i].Result.ExecCycles)
		}
	}
}

func TestPanicIsolationAndRetry(t *testing.T) {
	jobs := testBatch()[:3]
	jobs[1].Machine = nil // a nil machine crashes the simulator
	l := &cluster.Local{Workers: 2}
	results, err := l.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatalf("a crashed job must not fail the batch: %v", err)
	}
	if results[1].Err == nil {
		t.Fatal("crashed job reported no error")
	}
	if !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Fatalf("error does not describe the panic: %v", results[1].Err)
	}
	if results[1].Attempts != 2 {
		t.Fatalf("crashed job attempted %d times, want 2 (one re-execution)", results[1].Attempts)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Result.ExecCycles == 0 {
			t.Fatalf("healthy job %d disturbed by the crash: %+v", i, results[i].Err)
		}
	}
	s := l.Snapshot()
	if s.Errors != 1 || s.Executed != 2 || s.Retries != 1 {
		t.Fatalf("metrics wrong after crash: %+v", s)
	}
}

func TestRetryDisabled(t *testing.T) {
	jobs := []exp.Job{{Machine: nil, Profile: exp.TinyProfile(), Seed: 1}}
	results, _ := (&cluster.Local{Workers: 1, FailLimit: 1}).RunBatch(context.Background(), jobs)
	if results[0].Attempts != 1 {
		t.Fatalf("FailLimit=1 still attempted %d times", results[0].Attempts)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := testBatch()
	results, err := (&cluster.Local{Workers: 2}).RunBatch(ctx, jobs)
	if err == nil {
		t.Fatal("cancelled batch must return the context error")
	}
	if len(results) != len(jobs) {
		t.Fatalf("results length %d, want %d", len(results), len(jobs))
	}
	cancelled := 0
	for _, jr := range results {
		if jr.Err != nil {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no job carries the cancellation error")
	}
}

func TestProgressSerializedAndComplete(t *testing.T) {
	jobs := testBatch()
	calls := 0
	l := &cluster.Local{Workers: 4, Progress: func(jr exp.JobResult) { calls++ }}
	if _, err := l.RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if calls != len(jobs) {
		t.Fatalf("progress called %d times, want %d", calls, len(jobs))
	}
}

// execute runs j once on a plain runner inside an exec override, raising a
// failed run's error again as the panic of a crashed simulation.
func execute(j exp.Job) sim.Result {
	jr := exp.RunJob(j)
	if jr.Err != nil {
		panic(jr.Err)
	}
	return jr.Result
}

// hangOn returns an exec override that blocks forever for jobs matching the
// scheme and executes everything else normally.
func hangOn(sch core.Scheme) func(exp.Job) sim.Result {
	return func(j exp.Job) sim.Result {
		if j.Scheme == sch && !j.Sequential {
			select {} // a hung simulation: never returns
		}
		return execute(j)
	}
}

// TestWatchdogKillsHungJob is the robustness acceptance scenario: a
// deliberately hung job is cancelled by the watchdog within its deadline and
// failed at once (a deterministic hang is never re-executed), while the rest
// of the sweep completes and renders a failure manifest.
func TestWatchdogKillsHungJob(t *testing.T) {
	const deadline = 100 * time.Millisecond
	prof := exp.TinyProfile()
	cfg := machine.CMP8()
	jobs := []exp.Job{
		{Machine: cfg, Scheme: core.SingleTEager, Profile: prof, Seed: 1},
		{Machine: cfg, Scheme: core.MultiTMVLazy, Profile: prof, Seed: 1}, // hangs
		{Machine: cfg, Scheme: core.MultiTSVLazy, Profile: prof, Seed: 1},
	}
	l := &cluster.Local{Workers: 2, Runner: exp.Runner{JobTimeout: deadline}}
	exp.SetExecOverride(&l.Runner, hangOn(core.MultiTMVLazy))

	start := time.Now()
	results, err := l.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatalf("a hung job must not fail the batch: %v", err)
	}
	hung := results[1]
	if hung.Err == nil || !strings.Contains(hung.Err.Error(), exp.ErrJobTimeout.Error()) {
		t.Fatalf("hung job error does not report the deadline: %v", hung.Err)
	}
	if !hung.TimedOut || hung.Attempts != 1 {
		t.Fatalf("hung job: TimedOut=%v Attempts=%d, want true/1", hung.TimedOut, hung.Attempts)
	}
	if hung.Wall > 10*deadline {
		t.Fatalf("watchdog took %v to cancel a job with a %v deadline", hung.Wall, deadline)
	}
	if elapsed := time.Since(start); elapsed > 30*deadline {
		t.Fatalf("batch blocked %v on a hung job with a %v deadline", elapsed, deadline)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Result.ExecCycles == 0 {
			t.Fatalf("healthy job %d disturbed by the hang: %+v", i, results[i].Err)
		}
	}

	// The sweep still yields a report: results for the healthy jobs plus a
	// manifest naming what was lost.
	manifest := exp.RenderFailureManifest(exp.CollectFailures(results))
	if manifest == "" || !strings.Contains(manifest, "[timeout]") {
		t.Fatalf("failure manifest missing the timeout entry:\n%s", manifest)
	}
	s := l.Snapshot()
	if s.Timeouts != 1 || s.Errors != 1 {
		t.Fatalf("metrics wrong after hang: %+v", s)
	}
	if !strings.Contains(s.String(), "1 timeouts") {
		t.Fatalf("metrics summary omits the breakdown: %s", s)
	}
}

// TestCrashQuarantine pins the permanent-failure path for crashing (not
// hanging) jobs: a job that panics on every execution is failed after
// FailLimit executions, and the failure manifest reports every one of them.
func TestCrashQuarantine(t *testing.T) {
	jobs := []exp.Job{{Machine: nil, Profile: exp.TinyProfile(), Seed: 1}}
	first, _ := (&cluster.Local{Workers: 1}).RunBatch(context.Background(), jobs)
	if first[0].Err == nil || first[0].Attempts != 2 {
		t.Fatalf("crash not re-executed then reported: %+v", first[0])
	}
	f := exp.CollectFailures(first)
	if len(f) != 1 || f[0].Kind() != "error" {
		t.Fatalf("manifest kind wrong: %+v", f)
	}
	if manifest := exp.RenderFailureManifest(f); !strings.Contains(manifest, "(attempts 2,") {
		t.Fatalf("failure manifest does not report both executions:\n%s", manifest)
	}
}

// TestFlakyJobRecoversOnReexecution verifies the re-execution path: a job
// that crashes once and then succeeds is leased again, delivers its result,
// and reports both executions.
func TestFlakyJobRecoversOnReexecution(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	l := &cluster.Local{Workers: 1}
	exp.SetExecOverride(&l.Runner, func(j exp.Job) sim.Result {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			panic("transient crash")
		}
		return execute(j)
	})
	jobs := testBatch()[:2]
	results, err := l.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %d did not recover on re-execution: %v", i, jr.Err)
		}
	}
	if results[0].Attempts+results[1].Attempts != 3 {
		t.Fatalf("attempts %d+%d, want one job executed twice",
			results[0].Attempts, results[1].Attempts)
	}
	if s := l.Snapshot(); s.Retries != 1 || s.Errors != 0 {
		t.Fatalf("metrics: %+v", s)
	}
}

// TestCachePutFailureCounted covers the swallowed-write path: when the cache
// directory disappears mid-sweep, results still flow but the metrics summary
// must surface the failed writes.
func TestCachePutFailureCounted(t *testing.T) {
	dir := t.TempDir() + "/cache"
	c, err := exp.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	l := &cluster.Local{Workers: 1, Cache: c}
	results, err := l.RunBatch(context.Background(), testBatch()[:1])
	if err != nil || results[0].Err != nil {
		t.Fatalf("a failed cache write must not fail the job: %v / %v", err, results[0].Err)
	}
	s := l.Snapshot()
	if s.CachePutErrors != 1 {
		t.Fatalf("CachePutErrors = %d, want 1", s.CachePutErrors)
	}
	if !strings.Contains(s.String(), "1 cache-put errors") {
		t.Fatalf("metrics summary omits cache-put errors: %s", s)
	}
}

func TestWarmBatchExecutesNothing(t *testing.T) {
	cache, err := exp.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := testBatch()

	cold := &cluster.Local{Workers: 4, Cache: cache}
	first, err := cold.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	cs := cold.Snapshot()
	if cs.Executed != len(jobs) || cs.CacheHits != 0 {
		t.Fatalf("cold run: %+v", cs)
	}

	warm := &cluster.Local{Workers: 4, Cache: cache}
	second, err := warm.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Snapshot()
	if ws.Executed != 0 {
		t.Fatalf("warm rerun executed %d simulations, want 0", ws.Executed)
	}
	if ws.CacheHits != len(jobs) {
		t.Fatalf("warm rerun hit %d/%d", ws.CacheHits, len(jobs))
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Fatalf("job %d not served from cache", i)
		}
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Fatalf("job %d: cached result differs from executed result", i)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	results, err := new(cluster.Local).RunBatch(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(results))
	}
}

// TestMetricsAccounting pins the -metrics line's classification, now read
// from the coordinator: a cache hit, a clean execution, a retried execution
// and a permanent failure each land in their own count, executions carry
// their wall time and simulated cycles, and a repeat batch on the same
// executor is deduped rather than executed.
func TestMetricsAccounting(t *testing.T) {
	cache, err := exp.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	all := testBatch()
	jobs := []exp.Job{all[1], all[2], all[3], {Machine: nil, Profile: exp.TinyProfile(), Seed: 9}}
	if err := cache.Put(jobs[0], sim.Result{ExecCycles: 5}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	flaked := false
	l := &cluster.Local{Workers: 1, Cache: cache}
	exp.SetExecOverride(&l.Runner, func(j exp.Job) sim.Result {
		mu.Lock()
		flake := j.Key() == jobs[2].Key() && !flaked
		flaked = flaked || flake
		mu.Unlock()
		if flake {
			panic("transient crash")
		}
		time.Sleep(2 * time.Millisecond) // a measurable wall time
		return execute(j)
	})
	results, err := l.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := l.Snapshot()
	if s.Total != 4 || s.Done != 4 || s.Remaining() != 0 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.CacheHits != 1 || s.Executed != 2 || s.Errors != 1 || s.Retries != 2 || s.Deduped != 0 {
		t.Fatalf("classification wrong: %+v", s)
	}
	if want := uint64(results[1].Result.ExecCycles + results[2].Result.ExecCycles); s.SimCycles != want {
		t.Fatalf("sim cycles = %d, want %d", s.SimCycles, want)
	}
	if s.JobWallMax <= 0 || s.JobWallMean <= 0 || s.Elapsed <= 0 || s.CyclesPerSecond() <= 0 {
		t.Fatalf("walls and throughput not measured: %+v", s)
	}

	// The same jobs again on the same executor: every key is answered from
	// the coordinator, nothing executes, and the counts add up.
	if _, err := l.RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	s = l.Snapshot()
	if s.Total != 8 || s.Done != 8 || s.Executed != 2 || s.CacheHits != 1 || s.Deduped != 3 || s.Errors != 2 {
		t.Fatalf("repeat batch: %+v", s)
	}
}
