package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/iofault"
	"repro/internal/obs/trace"
	"repro/internal/sim"
)

// ErrJobTimeout reports a simulation the watchdog cancelled because it
// exceeded the runner's per-job deadline. Test with errors.Is.
var ErrJobTimeout = errors.New("job deadline exceeded")

// ErrJobInterrupted reports a simulation halted mid-run by a graceful
// shutdown: its latest checkpoint (if checkpointing is on) is durable and a
// -resume continues it. Test with errors.Is.
var ErrJobInterrupted = errors.New("job interrupted")

// ErrJobQuarantined reports a job skipped because an identical job (same
// content hash) already failed permanently earlier in the run. Test with
// errors.Is; the underlying cause is wrapped alongside it.
var ErrJobQuarantined = errors.New("job quarantined")

// JobResult pairs a Job with its outcome.
type JobResult struct {
	Job Job
	// Result is the simulation outcome (zero when Err is non-nil).
	Result sim.Result
	// Err reports a job that failed every attempt (a crashed or hung
	// simulation), was quarantined, or was cancelled before it started.
	Err error
	// Chaos is the chaos verdict of an executed chaotic job (Invariants or
	// Faults set); nil otherwise.
	Chaos *ChaosVerdict
	// Cached reports that Result came from the persistent cache and no
	// simulation executed.
	Cached bool
	// Deduped reports that Result was shared from a concurrent identical
	// job's execution (the singleflight guard): this call executed nothing.
	Deduped bool
	// TimedOut reports that the watchdog cancelled the job's last attempt.
	TimedOut bool
	// Quarantined reports that the job was skipped without executing because
	// an identical job already failed permanently in this run.
	Quarantined bool
	// Attempts is how many times the simulation ran (0 for cache hits and
	// cancelled or quarantined jobs; >1 when retries were needed).
	Attempts int
	// Wall is the time spent executing (all attempts; 0 for cache hits).
	Wall time.Duration
}

// Runner executes batches of Jobs on a worker pool. The zero value runs
// with GOMAXPROCS workers, one panic retry, no deadline, no cache and no
// metrics.
//
// A Runner degrades gracefully: a crashed simulation is retried with
// exponential backoff, a hung one is cancelled by the per-job watchdog, and
// a job that failed permanently is quarantined so identical jobs in later
// batches fail fast instead of hanging the sweep again. The batch always
// completes with whatever results were obtainable; Failures assembles the
// manifest of what was not.
type Runner struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS, 1 runs serially.
	Workers int
	// Cache, when non-nil, memoizes results across runs.
	Cache *Cache
	// Metrics, when non-nil, accumulates run statistics.
	Metrics *Metrics
	// Retries is how many times a panicking job is re-executed before its
	// error is reported (< 0 disables retry; 0 selects the default of 1).
	Retries int
	// RetryBackoff is the delay before the first retry; each further retry
	// doubles it, capped at 8x. 0 retries immediately.
	RetryBackoff time.Duration
	// JobTimeout is the per-job watchdog deadline. A simulation still
	// running when it expires is abandoned (Go cannot preempt it; the
	// goroutine leaks until the process exits) and reported with
	// ErrJobTimeout. 0 disables the watchdog.
	JobTimeout time.Duration
	// Progress, when non-nil, is called after every finished job. Calls
	// are serialized; completion order is nondeterministic.
	Progress func(JobResult)

	// Journal, when non-nil, receives the campaign WAL records: job-start
	// when a worker begins executing, checkpoint after each checkpoint file
	// is durable, job-done after the result is cached (or the job failed;
	// a chaotic job's carries its outcome in Data).
	Journal *Journal
	// CheckpointDir, when set, is where executing jobs persist checkpoints
	// (<dir>/<key>.ckpt, atomically replaced). Checkpoints are written every
	// CheckpointEvery commits, plus once at interrupt; the file is removed
	// when the job completes. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the auto-checkpoint cadence in committed tasks.
	CheckpointEvery int
	// Resume is a previous campaign's replayed journal (LoadCampaign). A
	// job with a checkpoint there restores from it instead of starting
	// over; a chaotic job with a journaled outcome is served from it
	// without executing. An unreadable checkpoint or undecodable outcome
	// falls back to a fresh run (resume is best-effort, never an error
	// source).
	Resume CampaignState
	// FS is the filesystem seam the runner's durable writes (checkpoints,
	// post-mortem dumps) go through. nil means the real OS; fault drills
	// inject an iofault.Injector here and into the journal and cache.
	FS iofault.FS

	// Tracer, when non-nil, records every attempt, retry, cache hit and
	// quarantine as wall-clock spans (fleet workers pass their shipping
	// tracer here). When nil, the runner still keeps an internal ring-only
	// tracer: the flight recorder is always on, so quarantine manifests and
	// stuck post-mortems carry the last spans even on untraced runs.
	Tracer *trace.Tracer
	// Campaign is the campaign correlation ID stamped on spans and journal
	// records ("" when the runner is not part of a campaign).
	Campaign string
	// Flow tags this runner's spans with a cross-process correlation ID —
	// fleet workers set it to the lease ID so the merged Perfetto trace
	// draws lease→attempt→complete arrows. 0 means untagged.
	Flow uint64

	// execOverride replaces Job.Execute in tests (e.g. with a function that
	// hangs, to exercise the watchdog).
	execOverride func(Job) sim.Result

	mu sync.Mutex // serializes Progress and Metrics updates

	qmu        sync.Mutex
	quarantine map[string]error // job Key -> first permanent failure

	// In-flight simulations, for graceful shutdown: when the batch context
	// dies, every registered simulator is Interrupted so it checkpoints at
	// its next commit and unwinds instead of running to completion.
	imu         sync.Mutex
	inflight    map[int]*sim.Simulator
	inflightSeq int
	draining    bool

	// Singleflight: concurrent jobs with the same content hash execute once;
	// the waiters share the leader's outcome. This is also the coordinator's
	// local dedupe primitive.
	fmu     sync.Mutex
	flights map[string]*flight
	// flightWaits counts calls that joined an existing flight (test hook).
	flightWaits atomic.Int64

	// ringOnce guards the lazily built internal flight-recorder tracer used
	// when no Tracer is configured.
	ringOnce   sync.Once
	ringTracer *trace.Tracer
}

// tracer returns the span sink: the configured Tracer, or the always-on
// internal flight recorder (ring only, nothing retained or shipped).
func (r *Runner) tracer() *trace.Tracer {
	if r.Tracer != nil {
		return r.Tracer
	}
	r.ringOnce.Do(func() { r.ringTracer = trace.New("runner") })
	return r.ringTracer
}

// FlightRecorder returns the last spans the runner recorded (oldest first):
// the always-on post-mortem view dumped into quarantine manifests.
func (r *Runner) FlightRecorder() []trace.Span {
	return r.tracer().Dump()
}

// flight is one in-progress execution of a job key: the leader closes done
// after publishing its outcome in res.
type flight struct {
	done chan struct{}
	res  JobResult
}

// fsys returns the filesystem seam, defaulting to the real OS.
func (r *Runner) fsys() iofault.FS {
	if r.FS != nil {
		return r.FS
	}
	return iofault.Real
}

func (r *Runner) workers(jobs int) int {
	n := r.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (r *Runner) retries() int {
	switch {
	case r.Retries < 0:
		return 0
	case r.Retries == 0:
		return 1
	default:
		return r.Retries
	}
}

// RunBatch executes the jobs and returns their results in submission order,
// independent of completion order. Worker scheduling cannot perturb the
// output: each result is a deterministic function of its job alone.
//
// A crashed (panicking) simulation is retried and, if it crashes again,
// reported as that job's Err without disturbing the rest of the batch; a
// hung simulation is cancelled by the watchdog. The returned error is only
// non-nil when ctx is cancelled or times out, in which case unstarted jobs
// carry ctx's error.
func (r *Runner) RunBatch(ctx context.Context, jobs []Job) ([]JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if r.Metrics != nil {
		r.Metrics.batchQueued(len(jobs))
		if r.Cache != nil {
			// Surface the startup heal scan (quarantined torn entries, and
			// entries that could not be quarantined) in the run metrics.
			r.Metrics.ObserveHeal(r.Cache.LastHeal())
		}
	}
	out := make([]JobResult, len(jobs))
	started := make([]bool, len(jobs))

	// Graceful shutdown: the moment ctx dies, interrupt every in-flight
	// simulation so workers drain at the next commit boundary (writing their
	// final checkpoints) instead of finishing multi-minute runs.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			r.interruptInflight()
		case <-watchDone:
		}
	}()

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.workers(len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = r.runJob(ctx, jobs[i])
				r.finish(out[i])
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idx <- i:
			started[i] = true
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		for i := range out {
			if !started[i] {
				out[i] = JobResult{Job: jobs[i], Err: fmt.Errorf("job %s: %w", jobs[i].Label(), err)}
				r.finish(out[i])
			}
		}
		return out, err
	}
	return out, nil
}

// runJob resolves one job: cancellation and quarantine screens, cache
// lookup, then execution under the watchdog with retry and backoff.
func (r *Runner) runJob(ctx context.Context, j Job) JobResult {
	jr := JobResult{Job: j}
	// A worker can dequeue a job in the same instant the context dies; the
	// batch must then report the job cancelled, not run it anyway.
	if err := ctx.Err(); err != nil {
		jr.Err = fmt.Errorf("job %s: %w", j.Label(), err)
		return jr
	}
	if cause := r.quarantinedCause(j); cause != nil {
		jr.Quarantined = true
		jr.Err = fmt.Errorf("job %s: %w: %w", j.Label(), ErrJobQuarantined, cause)
		r.tracer().Instant(trace.Span{
			Name: j.Label(), Kind: trace.KindQuarantine, Campaign: r.Campaign,
			Key: j.Key(), Flow: r.Flow, Err: cause.Error(), Note: "screened",
		})
		return jr
	}
	// Chaotic jobs bypass the cache: their verdict is not part of sim.Result,
	// so a hit could not reconstruct it. A resumed campaign serves them from
	// the outcome their job-done record carries instead.
	if j.chaotic() {
		if o, ok := r.resumedOutcome(j.Key()); ok {
			jr.Result, jr.Chaos, jr.Cached = o.Result, o.Chaos, true
			return jr
		}
	}
	useCache := r.Cache != nil && !j.chaotic()
	if useCache {
		if res, ok := r.Cache.Get(j); ok {
			jr.Result, jr.Cached = res, true
			r.tracer().Instant(trace.Span{
				Name: j.Label(), Kind: trace.KindCacheHit, Campaign: r.Campaign,
				Key: j.Key(), Flow: r.Flow,
			})
			r.journalAppend(JournalRecord{T: RecJobDone, Key: j.Key(), Label: j.Label(), Cached: true})
			return jr
		}
	}
	// Singleflight: if an identical job is already executing, wait for its
	// outcome instead of computing it twice. The leader's Result is shared
	// (read-only downstream); per-call fields are not.
	key := j.Key()
	f, leader := r.joinFlight(key)
	if !leader {
		select {
		case <-f.done:
			jr = f.res
			jr.Job = j
			jr.Deduped = true
			jr.Attempts, jr.Wall = 0, 0
		case <-ctx.Done():
			jr.Err = fmt.Errorf("job %s: %w", j.Label(), ctx.Err())
		}
		return jr
	}
	defer func() {
		f.res = jr
		r.fmu.Lock()
		delete(r.flights, key)
		r.fmu.Unlock()
		close(f.done)
	}()
	r.journalAppend(JournalRecord{T: RecJobStart, Key: j.Key(), Label: j.Label()})
	start := time.Now()
	maxAttempts := 1 + r.retries()
	for jr.Attempts = 1; ; jr.Attempts++ {
		attemptStart := r.tracer().Now()
		res, verdict, err := r.attempt(ctx, j)
		attemptSpan := trace.Span{
			Name: j.Label(), Kind: trace.KindAttempt, Campaign: r.Campaign,
			Key: j.Key(), Attempt: jr.Attempts, Flow: r.Flow,
		}
		if err != nil {
			attemptSpan.Err = err.Error()
		}
		r.tracer().Since(attemptStart, attemptSpan)
		if err == nil {
			jr.Result, jr.Chaos, jr.Err, jr.TimedOut = res, verdict, nil, false
			if useCache {
				if perr := r.Cache.Put(j, res); perr != nil && r.Metrics != nil {
					// The sweep survives a failed write (the result is
					// still in hand), but a full disk must be visible.
					r.Metrics.cachePutFailed()
				}
			}
			// Journal job-done only after the result is durable (a chaotic
			// job's outcome rides in the record itself), then drop the
			// now-obsolete checkpoint.
			done := JournalRecord{T: RecJobDone, Key: j.Key(), Label: j.Label()}
			if verdict != nil {
				done.Data, _ = json.Marshal(chaosOutcome{Result: res, Chaos: verdict})
			}
			r.journalAppend(done)
			if r.CheckpointDir != "" {
				r.fsys().Remove(filepath.Join(r.CheckpointDir, j.Key()+".ckpt"))
			}
			break
		}
		jr.Err = err
		if errors.Is(err, ErrJobTimeout) {
			// A deterministic simulation that hung once will hang again:
			// no retry, and identical jobs are quarantined.
			jr.TimedOut = true
			r.quarantineJob(j, err)
			r.journalAppend(JournalRecord{T: RecJobDone, Key: j.Key(), Label: j.Label(), Err: err.Error()})
			break
		}
		if errors.Is(err, ErrJobInterrupted) || ctx.Err() != nil {
			// Shutdown, not the job's fault: no quarantine, no job-done
			// record — the journal's last word stays the checkpoint, which
			// is exactly what -resume needs.
			break
		}
		if jr.Attempts >= maxAttempts {
			r.quarantineJob(j, err)
			r.journalAppend(JournalRecord{T: RecJobDone, Key: j.Key(), Label: j.Label(), Err: err.Error()})
			break
		}
		r.tracer().Instant(trace.Span{
			Name: j.Label(), Kind: trace.KindRetry, Campaign: r.Campaign,
			Key: j.Key(), Attempt: jr.Attempts, Flow: r.Flow, Err: err.Error(),
		})
		if !r.backoff(ctx, jr.Attempts) {
			break
		}
	}
	jr.Wall = time.Since(start)
	return jr
}

// chaosOutcome is the job-done payload of a chaotic job: everything its
// JobResult reports, so a resume can serve it without re-running.
type chaosOutcome struct {
	Result sim.Result    `json:"result"`
	Chaos  *ChaosVerdict `json:"chaos"`
}

// resumedOutcome decodes the journaled outcome of a completed chaotic job.
func (r *Runner) resumedOutcome(key string) (chaosOutcome, bool) {
	var o chaosOutcome
	data, ok := r.Resume.Outcomes[key]
	if !ok || json.Unmarshal(data, &o) != nil || o.Chaos == nil {
		return chaosOutcome{}, false
	}
	return o, true
}

// joinFlight registers interest in key's execution: the first caller becomes
// the leader (and must settle the flight when done); later callers get the
// existing flight to wait on.
func (r *Runner) joinFlight(key string) (*flight, bool) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	if f, ok := r.flights[key]; ok {
		r.flightWaits.Add(1)
		return f, false
	}
	if r.flights == nil {
		r.flights = make(map[string]*flight)
	}
	f := &flight{done: make(chan struct{})}
	r.flights[key] = f
	return f, true
}

// journalAppend writes a WAL record, surfacing write failures as metrics
// (the campaign itself must survive a full disk).
func (r *Runner) journalAppend(rec JournalRecord) {
	if r.Journal == nil {
		return
	}
	if rec.Campaign == "" {
		rec.Campaign = r.Campaign
	}
	if err := r.Journal.Append(rec); err != nil && r.Metrics != nil {
		r.Metrics.journalAppendFailed()
	}
}

// jobRun is one prepared attempt: the function to execute and, when the
// checkpointing path is active, the live simulator handle the watchdog and
// the shutdown path can Interrupt. escalate flags a watchdog timeout so the
// sink, which may fire later on the abandoned goroutine, knows to write the
// post-mortem dump instead of a resumable checkpoint.
type jobRun struct {
	sim      *sim.Simulator
	escalate atomic.Bool
	run      func() (sim.Result, *ChaosVerdict, error)
}

// prepare builds one attempt. With no checkpointing, resume checkpoints, or
// journal involvement the job runs through the classic Execute path,
// byte-identical to a runner without any of this machinery.
func (r *Runner) prepare(j Job) *jobRun {
	if r.execOverride != nil || (r.CheckpointDir == "" && len(r.Resume.Checkpoints) == 0) {
		return &jobRun{run: func() (sim.Result, *ChaosVerdict, error) { return runIsolated(j, r.execOverride) }}
	}
	s, plan, berr := buildSafely(j)
	if berr != nil {
		// A construction panic (nil machine, malformed profile) must fail the
		// attempt like the isolated path does, not unwind the worker goroutine.
		return &jobRun{run: func() (sim.Result, *ChaosVerdict, error) { return sim.Result{}, nil, berr }}
	}
	if path, ok := r.Resume.Checkpoints[j.Key()]; ok {
		if ck, err := sim.ReadCheckpointFile(path); err == nil {
			if rerr := s.Restore(ck); rerr != nil {
				s, plan = j.build() // mismatched checkpoint: start over
			}
		}
	}
	jr := &jobRun{sim: s}
	if r.CheckpointDir != "" {
		r.fsys().MkdirAll(r.CheckpointDir, 0o755)
		ckPath := filepath.Join(r.CheckpointDir, j.Key()+".ckpt")
		if r.CheckpointEvery > 0 {
			s.SetAutoCheckpoint(r.CheckpointEvery)
		}
		s.SetCheckpointSink(func(ck *sim.Checkpoint) {
			path := ckPath
			if jr.escalate.Load() {
				// Watchdog escalation: this is the post-mortem of a stuck
				// job. Park the checkpoint under a distinct name (the job is
				// quarantined, not resumed) and dump a progress report.
				path = filepath.Join(r.CheckpointDir, j.Key()+".stuck.ckpt")
				r.dumpProgress(j, s)
			}
			// The checkpoint record is journaled only after the file — and
			// the rename that published it — are durable.
			if err := sim.WriteCheckpointFileFS(r.fsys(), path, ck); err == nil {
				r.journalAppend(JournalRecord{
					T: RecCheckpoint, Key: j.Key(), Label: j.Label(),
					Ckpt: path, Commits: ck.Commits,
				})
			}
		})
	}
	jr.run = func() (res sim.Result, v *ChaosVerdict, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("simulation %s panicked: %v\n%s", j.Label(), p, debug.Stack())
			}
		}()
		res = s.Run()
		if s.Halted() {
			return sim.Result{}, nil, fmt.Errorf("job %s: %w", j.Label(), ErrJobInterrupted)
		}
		return res, j.verdict(s, plan), nil
	}
	return jr
}

// buildSafely constructs the job's simulator, converting a construction
// panic into the same "panicked" error shape the isolated run path reports,
// so retry/quarantine handling is uniform across both paths.
func buildSafely(j Job) (s *sim.Simulator, plan *fault.Plan, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, plan = nil, nil
			err = fmt.Errorf("simulation %s panicked: %v\n%s", j.Label(), p, debug.Stack())
		}
	}()
	s, plan = j.build()
	return s, plan, nil
}

// attempt executes one try of the job, under the watchdog when a deadline
// is configured.
func (r *Runner) attempt(ctx context.Context, j Job) (sim.Result, *ChaosVerdict, error) {
	jr := r.prepare(j)
	if jr.sim != nil {
		id := r.track(jr.sim)
		defer r.untrack(id)
	}
	type outcome struct {
		res sim.Result
		v   *ChaosVerdict
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, v, err := jr.run()
		ch <- outcome{res, v, err}
	}()
	// The run always executes on its own goroutine so that cancellation is
	// responsive mid-simulation (drain, Ctrl-C) even without a watchdog
	// deadline; the timer only arms when a deadline is configured.
	var deadline <-chan time.Time
	if r.JobTimeout > 0 {
		timer := time.NewTimer(r.JobTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case o := <-ch:
		return o.res, o.v, o.err
	case <-deadline:
		// The attempt goroutine is abandoned: a stuck simulation cannot be
		// preempted, only disowned. The buffered channel lets it exit
		// quietly if it ever finishes. On the checkpointing path we can do
		// better: escalate, so that if the run ever reaches another commit
		// it dumps a checkpoint + progress report for post-mortem replay and
		// unwinds instead of leaking.
		if jr.sim != nil {
			jr.escalate.Store(true)
			jr.sim.Interrupt()
		}
		return sim.Result{}, nil, fmt.Errorf("job %s: %w (deadline %s)", j.Label(), ErrJobTimeout, r.JobTimeout)
	case <-ctx.Done():
		if jr.sim != nil {
			jr.sim.Interrupt()
		}
		return sim.Result{}, nil, fmt.Errorf("job %s: %w", j.Label(), ctx.Err())
	}
}

// stuckReport is the watchdog post-mortem document: where the stuck run
// was, plus both flight recorders — the runner's orchestration spans and the
// simulator's last cycle-domain events.
type stuckReport struct {
	Progress any `json:"progress"`
	// Campaign ties the post-mortem to its campaign's journal and spans.
	Campaign string `json:"campaign,omitempty"`
	// FlightRecorder is the runner's last spans (wall-clock domain).
	FlightRecorder []trace.Span `json:"flight_recorder,omitempty"`
	// SimFlightRecorder is the simulator's last trace events (cycle domain).
	SimFlightRecorder []sim.FlightEntry `json:"sim_flight_recorder,omitempty"`
}

// dumpProgress writes the watchdog post-mortem: where the stuck run was.
// Called from the simulation's own goroutine (inside the checkpoint sink).
func (r *Runner) dumpProgress(j Job, s *sim.Simulator) {
	rep := stuckReport{
		Progress:          s.ProgressReport(),
		Campaign:          r.Campaign,
		FlightRecorder:    r.FlightRecorder(),
		SimFlightRecorder: s.FlightRecorder(),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return
	}
	iofault.WriteFileAtomic(r.fsys(), filepath.Join(r.CheckpointDir, j.Key()+".progress.json"), data, 0o644)
}

// track registers an executing simulation for shutdown interrupts.
func (r *Runner) track(s *sim.Simulator) int {
	r.imu.Lock()
	defer r.imu.Unlock()
	if r.inflight == nil {
		r.inflight = make(map[int]*sim.Simulator)
	}
	r.inflightSeq++
	r.inflight[r.inflightSeq] = s
	if r.draining {
		s.Interrupt() // the batch is already shutting down
	}
	return r.inflightSeq
}

// untrack removes a finished simulation from the shutdown registry.
func (r *Runner) untrack(id int) {
	r.imu.Lock()
	defer r.imu.Unlock()
	delete(r.inflight, id)
}

// interruptInflight asks every executing simulation to checkpoint and stop.
func (r *Runner) interruptInflight() {
	r.imu.Lock()
	defer r.imu.Unlock()
	r.draining = true
	for _, s := range r.inflight {
		s.Interrupt()
	}
}

// backoff sleeps before retry number attempt (exponential, capped at 8x the
// base), returning false if the context died while waiting.
func (r *Runner) backoff(ctx context.Context, attempt int) bool {
	if r.RetryBackoff <= 0 {
		return true
	}
	d := r.RetryBackoff
	for i := 1; i < attempt && d < 8*r.RetryBackoff; i++ {
		d *= 2
	}
	if d > 8*r.RetryBackoff {
		d = 8 * r.RetryBackoff
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// quarantinedCause returns the recorded failure of an identical job, or nil.
func (r *Runner) quarantinedCause(j Job) error {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	if len(r.quarantine) == 0 {
		return nil
	}
	return r.quarantine[j.Key()]
}

// quarantineJob records a permanent failure so identical jobs fail fast,
// emits the quarantine span, and — when a checkpoint directory exists —
// writes the quarantine manifest with the flight recorder's last spans, the
// post-mortem of how the job died.
func (r *Runner) quarantineJob(j Job, err error) {
	r.qmu.Lock()
	if r.quarantine == nil {
		r.quarantine = make(map[string]error)
	}
	first := false
	if _, ok := r.quarantine[j.Key()]; !ok {
		r.quarantine[j.Key()] = err
		first = true
	}
	r.qmu.Unlock()
	if !first {
		return
	}
	r.tracer().Instant(trace.Span{
		Name: j.Label(), Kind: trace.KindQuarantine, Campaign: r.Campaign,
		Key: j.Key(), Flow: r.Flow, Err: err.Error(),
	})
	r.writeQuarantineManifest(j, err)
}

// QuarantineManifest is the post-mortem written beside the checkpoints when
// a job is quarantined: what failed, in which campaign, and the flight
// recorder's last spans leading up to the failure.
type QuarantineManifest struct {
	Key      string `json:"key"`
	Label    string `json:"label"`
	Campaign string `json:"campaign,omitempty"`
	Err      string `json:"err"`
	// FlightRecorder is the runner's span ring at quarantine time, oldest
	// first: attempts, retries and decisions with correlation IDs.
	FlightRecorder []trace.Span `json:"flight_recorder,omitempty"`
}

func (r *Runner) writeQuarantineManifest(j Job, cause error) {
	if r.CheckpointDir == "" {
		return
	}
	m := QuarantineManifest{
		Key: j.Key(), Label: j.Label(), Campaign: r.Campaign,
		Err:            cause.Error(),
		FlightRecorder: r.FlightRecorder(),
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return
	}
	r.fsys().MkdirAll(r.CheckpointDir, 0o755)
	iofault.WriteFileAtomic(r.fsys(), filepath.Join(r.CheckpointDir, j.Key()+".quarantine.json"), data, 0o644)
}

// QuarantineSize returns how many distinct jobs have been quarantined.
func (r *Runner) QuarantineSize() int {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	return len(r.quarantine)
}

// runIsolated executes one simulation, converting a panic into an error so
// a crashed run cannot take down the whole regeneration.
func runIsolated(j Job, exec func(Job) sim.Result) (res sim.Result, v *ChaosVerdict, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation %s panicked: %v\n%s", j.Label(), p, debug.Stack())
		}
	}()
	if exec != nil {
		return exec(j), nil, nil
	}
	res, v = j.ExecuteWithVerdict()
	return res, v, nil
}

// finish serializes the per-job callbacks.
func (r *Runner) finish(jr JobResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Metrics != nil {
		r.Metrics.observe(jr)
	}
	if r.Progress != nil {
		r.Progress(jr)
	}
}
