package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
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

// JobResult pairs a Job with its outcome.
type JobResult struct {
	Job Job
	// Result is the simulation outcome (zero when Err is non-nil).
	Result sim.Result
	// Err reports a job that failed every execution (a crashed or hung
	// simulation) or was cancelled before it finished.
	Err error
	// Chaos is the chaos verdict of an executed chaotic job (Invariants or
	// Faults set); nil otherwise.
	Chaos *ChaosVerdict
	// Cached reports that Result came from the persistent cache (or a
	// resumed journal) and no simulation executed.
	Cached bool
	// Deduped reports that Result was shared from an identical job earlier
	// in the same batch: this index executed nothing.
	Deduped bool
	// TimedOut reports that the watchdog cancelled the job's last execution.
	TimedOut bool
	// Attempts is how many times the simulation ran (0 for cache hits,
	// deduped and cancelled jobs; >1 when re-executions were needed).
	Attempts int
	// Wall is the time spent executing (0 for cache hits and deduped jobs).
	Wall time.Duration
}

// Runner executes one attempt of a job safely: on its own goroutine under
// the per-job watchdog, with panics converted into errors, checkpoints
// written through the sink and restored on resume, the attempt interrupted
// when its context dies, and every attempt recorded in the always-on flight
// recorder that post-mortem dumps carry. Scheduling — the pool, dedupe,
// retry, the cache and the campaign journal's lease and job-done records —
// belongs to cluster.Coordinator, which drives runners through its workers
// (in process for `-jobs N`, over HTTP for a fleet). The zero value runs
// attempts with no deadline and no checkpoints.
type Runner struct {
	// JobTimeout is the per-attempt watchdog deadline. A simulation still
	// running when it expires is abandoned (Go cannot preempt it; the
	// goroutine leaks until the process exits) and reported with
	// ErrJobTimeout. 0 disables the watchdog.
	JobTimeout time.Duration
	// Journal, when non-nil, receives a checkpoint record after each
	// checkpoint file is durable.
	Journal *Journal
	// CheckpointDir, when set, is where executing jobs persist checkpoints
	// (<dir>/<key>.ckpt, atomically replaced) and where post-mortems land.
	// Checkpoints are written every CheckpointEvery commits, plus once at
	// interrupt; the file is removed when the job completes. Empty disables
	// checkpointing.
	CheckpointDir string
	// CheckpointEvery is the auto-checkpoint cadence in committed tasks.
	CheckpointEvery int
	// Resume is a previous campaign's replayed journal (LoadCampaign). A
	// job with a checkpoint there restores from it instead of starting over;
	// an unreadable or mismatched checkpoint falls back to a fresh run.
	Resume CampaignState
	// FS is the filesystem seam the runner's durable writes (checkpoints,
	// post-mortem dumps) go through. nil means the real OS; fault drills
	// inject an iofault.Injector here and into the journal and cache.
	FS iofault.FS
	// Tracer, when non-nil, records every attempt and post-mortem as
	// wall-clock spans (fleet workers pass their shipping tracer here).
	// When nil, the runner still keeps an internal ring-only tracer: the
	// flight recorder is always on, so post-mortems carry the last spans
	// of every attempt this runner executed, even on untraced runs.
	Tracer *trace.Tracer

	// execOverride replaces Job.Execute in tests (e.g. with a function that
	// hangs, to exercise the watchdog).
	execOverride func(Job) sim.Result

	// ringOnce guards the lazily built internal flight-recorder tracer used
	// when no Tracer is configured.
	ringOnce   sync.Once
	ringTracer *trace.Tracer
}

// Attempt names one execution of a job for its spans, journal records and
// post-mortems.
type Attempt struct {
	// Campaign is the campaign correlation ID ("" outside a campaign).
	Campaign string
	// Flow tags the spans with a cross-process correlation ID — the lease
	// ID, so the merged Perfetto trace draws lease→attempt→complete arrows.
	Flow uint64
	// N is the 1-based execution number of the job.
	N int
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

// fsys returns the filesystem seam, defaulting to the real OS.
func (r *Runner) fsys() iofault.FS {
	if r.FS != nil {
		return r.FS
	}
	return iofault.Real
}

// Run executes one attempt of j. A crashed (panicking) simulation comes back
// as Err, a hung one is cancelled by the watchdog (TimedOut), and an attempt
// whose ctx dies is interrupted (its checkpoint, if checkpointing is on, is
// the resume point). On success the job's checkpoint is removed. Run never
// retries: re-execution is the caller's policy.
func (r *Runner) Run(ctx context.Context, j Job, at Attempt) JobResult {
	jr := JobResult{Job: j, Attempts: 1}
	t0, start := time.Now(), r.tracer().Now()
	res, verdict, err := r.attempt(ctx, j, at)
	jr.Wall = time.Since(t0)
	span := trace.Span{
		Name: j.Label(), Kind: trace.KindAttempt, Campaign: at.Campaign,
		Key: j.Key(), Attempt: at.N, Flow: at.Flow,
	}
	if err != nil {
		span.Err = err.Error()
	}
	r.tracer().Since(start, span)
	if err != nil {
		jr.Err = err
		jr.TimedOut = errors.Is(err, ErrJobTimeout)
		return jr
	}
	jr.Result, jr.Chaos = res, verdict
	if r.CheckpointDir != "" {
		r.fsys().Remove(filepath.Join(r.CheckpointDir, j.Key()+".ckpt"))
	}
	return jr
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

// prepare builds one attempt. With no checkpointing or resume checkpoints
// the job runs through the classic Execute path, byte-identical to a runner
// without any of this machinery.
func (r *Runner) prepare(j Job, at Attempt) *jobRun {
	if r.execOverride != nil || (r.CheckpointDir == "" && len(r.Resume.Checkpoints) == 0) {
		return &jobRun{run: func() (sim.Result, *ChaosVerdict, error) { return runIsolated(j, r.execOverride) }}
	}
	s, plan, berr := buildSafely(j)
	if berr != nil {
		// A construction panic (nil machine, malformed profile) must fail the
		// attempt like the isolated path does, not unwind the caller.
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
				// job. Park the checkpoint under a distinct name (the job
				// fails, it is not resumed) and dump a progress report.
				path = filepath.Join(r.CheckpointDir, j.Key()+".stuck.ckpt")
				r.dumpProgress(j, s, at.Campaign)
			}
			// The checkpoint record is journaled only after the file — and
			// the rename that published it — are durable. A failed append
			// poisons the journal, so the campaign's next WAL write reports it.
			if err := sim.WriteCheckpointFileFS(r.fsys(), path, ck); err == nil && r.Journal != nil {
				r.Journal.Append(JournalRecord{
					T: RecCheckpoint, Campaign: at.Campaign, Key: j.Key(), Label: j.Label(),
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
		v = j.verdict(s, plan)
		s.ReleasePages()
		return res, v, nil
	}
	return jr
}

// buildSafely constructs the job's simulator, converting a construction
// panic into the same "panicked" error shape the isolated run path reports,
// so failure handling is uniform across both paths.
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
func (r *Runner) attempt(ctx context.Context, j Job, at Attempt) (sim.Result, *ChaosVerdict, error) {
	jr := r.prepare(j, at)
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
		// Shutdown: the simulation checkpoints at its next commit and
		// unwinds; the checkpoint is what a -resume restarts from.
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
func (r *Runner) dumpProgress(j Job, s *sim.Simulator, campaign string) {
	rep := stuckReport{
		Progress:          s.ProgressReport(),
		Campaign:          campaign,
		FlightRecorder:    r.FlightRecorder(),
		SimFlightRecorder: s.FlightRecorder(),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return
	}
	iofault.WriteFileAtomic(r.fsys(), filepath.Join(r.CheckpointDir, j.Key()+".progress.json"), data, 0o644)
}

// QuarantineManifest is the post-mortem written beside the checkpoints when
// a job fails permanently: what failed, in which campaign, and the flight
// recorder's last spans leading up to the failure.
type QuarantineManifest struct {
	Key      string `json:"key"`
	Label    string `json:"label"`
	Campaign string `json:"campaign,omitempty"`
	Err      string `json:"err"`
	// FlightRecorder is the runner's span ring at failure time, oldest
	// first: every attempt it executed, with correlation IDs.
	FlightRecorder []trace.Span `json:"flight_recorder,omitempty"`
}

// PostMortem records that j failed permanently with cause: a quarantine
// span, then — when a checkpoint directory exists and no earlier post-mortem
// of the key is there — <key>.quarantine.json with the flight recorder's
// last spans. The first post-mortem of a key is never rewritten.
func (r *Runner) PostMortem(j Job, campaign, cause string) {
	r.tracer().Instant(trace.Span{
		Name: j.Label(), Kind: trace.KindQuarantine, Campaign: campaign,
		Key: j.Key(), Err: cause,
	})
	if r.CheckpointDir == "" {
		return
	}
	path := filepath.Join(r.CheckpointDir, j.Key()+".quarantine.json")
	if _, err := r.fsys().ReadFile(path); err == nil {
		return
	}
	m := QuarantineManifest{
		Key: j.Key(), Label: j.Label(), Campaign: campaign,
		Err:            cause,
		FlightRecorder: r.FlightRecorder(),
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return
	}
	r.fsys().MkdirAll(r.CheckpointDir, 0o755)
	iofault.WriteFileAtomic(r.fsys(), path, data, 0o644)
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
