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
// shutdown. The job has no outcome; a -resume re-runs it from its start.
// Test with errors.Is.
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
// the per-job watchdog, with panics converted into errors, the simulation
// halted at its next commit when its context dies or the watchdog fires,
// and every attempt recorded in the always-on flight recorder that
// post-mortem dumps carry. Scheduling — the pool, dedupe, retry, the cache
// and the campaign journal — belongs to cluster.Coordinator, which drives
// runners through its workers (in process for `-jobs N`, over HTTP for a
// fleet). The zero value runs attempts with no deadline and writes no
// post-mortems.
type Runner struct {
	// JobTimeout is the per-attempt watchdog deadline. A simulation still
	// running when it expires is reported with ErrJobTimeout and halted at
	// its next commit, which writes its progress post-mortem. 0 disables
	// the watchdog.
	JobTimeout time.Duration
	// PostMortemDir, when set, is where post-mortems land: a quarantine
	// manifest (<key>.quarantine.json) for a job that failed permanently and
	// a progress report (<key>.progress.json) for one the watchdog stopped.
	// Empty writes none.
	PostMortemDir string
	// FS is the filesystem seam the post-mortem writes go through. nil means
	// the real OS; fault drills inject an iofault.Injector here and into the
	// journal and cache.
	FS iofault.FS
	// Tracer, when non-nil, records every attempt and post-mortem as
	// wall-clock spans (fleet workers pass their shipping tracer here).
	// When nil, the runner still keeps an internal ring-only tracer: the
	// flight recorder is always on, so post-mortems carry the last spans
	// of every attempt this runner executed, even on untraced runs.
	Tracer *trace.Tracer

	// execOverride replaces the simulation in tests (e.g. with a function
	// that hangs, to exercise the watchdog).
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
// whose ctx dies is interrupted. Run never retries: re-execution is the
// caller's policy.
func (r *Runner) Run(ctx context.Context, j Job, at Attempt) JobResult {
	jr := JobResult{Job: j, Attempts: 1}
	t0, start := time.Now(), r.tracer().Now()
	// recorded orders a watchdog post-mortem after the attempt's span, so
	// the dump holds the attempt it is about.
	recorded := make(chan struct{})
	res, verdict, err := r.attempt(ctx, j, at, recorded)
	jr.Wall = time.Since(t0)
	span := trace.Span{
		Name: j.Label(), Kind: trace.KindAttempt, Campaign: at.Campaign,
		Key: j.Key(), Attempt: at.N, Flow: at.Flow,
	}
	if err != nil {
		span.Err = err.Error()
	}
	r.tracer().Since(start, span)
	close(recorded)
	if err != nil {
		jr.Err = err
		jr.TimedOut = errors.Is(err, ErrJobTimeout)
		return jr
	}
	jr.Result, jr.Chaos = res, verdict
	return jr
}

// attempt executes one try of the job: the simulator is built here, run on
// its own goroutine, and interrupted when ctx dies or the watchdog fires.
// The goroutine always exists so that cancellation is responsive
// mid-simulation (drain, Ctrl-C) even without a watchdog deadline; the
// timer only arms when a deadline is configured. A run the watchdog halted
// writes its progress post-mortem once recorded is closed.
func (r *Runner) attempt(ctx context.Context, j Job, at Attempt, recorded <-chan struct{}) (sim.Result, *ChaosVerdict, error) {
	var (
		s        *sim.Simulator
		plan     *fault.Plan
		timedOut atomic.Bool
	)
	if r.execOverride == nil {
		var err error
		if s, plan, err = buildSafely(j); err != nil {
			return sim.Result{}, nil, err
		}
	}
	type outcome struct {
		res sim.Result
		v   *ChaosVerdict
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, v, err := r.execute(j, s, plan)
		if timedOut.Load() && errors.Is(err, ErrJobInterrupted) {
			<-recorded
			r.dumpProgress(j, s, at.Campaign)
		}
		if s != nil {
			// Finished, halted or crashed, the run hands its storage to the
			// next simulation this process builds.
			s.Release()
		}
		ch <- outcome{res, v, err}
	}()
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
		// A stuck simulation cannot be preempted, only disowned; the
		// buffered channel lets its goroutine exit quietly. One that is
		// merely slow halts at its next commit and leaves its progress
		// report for the post-mortem.
		if s != nil {
			timedOut.Store(true)
			s.Interrupt()
		}
		return sim.Result{}, nil, fmt.Errorf("job %s: %w (deadline %s)", j.Label(), ErrJobTimeout, r.JobTimeout)
	case <-ctx.Done():
		// Shutdown: the simulation halts at its next commit; a -resume
		// re-runs the job from its start.
		if s != nil {
			s.Interrupt()
		}
		return sim.Result{}, nil, fmt.Errorf("job %s: %w", j.Label(), ctx.Err())
	}
}

// execute runs one built simulation (or the test override), converting a
// panic into an error so a crashed run cannot take down the campaign. A
// halted run returns ErrJobInterrupted.
func (r *Runner) execute(j Job, s *sim.Simulator, plan *fault.Plan) (res sim.Result, v *ChaosVerdict, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation %s panicked: %v\n%s", j.Label(), p, debug.Stack())
		}
	}()
	if r.execOverride != nil {
		return r.execOverride(j), nil, nil
	}
	res = s.Run()
	if s.Halted() {
		return sim.Result{}, nil, fmt.Errorf("job %s: %w", j.Label(), ErrJobInterrupted)
	}
	return res, j.verdict(s, plan), nil
}

// buildSafely constructs the job's simulator, converting a construction
// panic (nil machine, malformed profile) into the same "panicked" error a
// crashed run reports.
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

// dumpProgress writes the watchdog post-mortem: where the stopped run was.
// Called from the simulation's own goroutine after its halted Run returned.
func (r *Runner) dumpProgress(j Job, s *sim.Simulator, campaign string) {
	if r.PostMortemDir == "" {
		return
	}
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
	r.fsys().MkdirAll(r.PostMortemDir, 0o755)
	iofault.WriteFileAtomic(r.fsys(), filepath.Join(r.PostMortemDir, j.Key()+".progress.json"), data, 0o644)
}

// QuarantineManifest is the post-mortem written to the post-mortem
// directory when a job fails permanently: what failed, in which campaign,
// and the flight recorder's last spans leading up to the failure.
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
// span, then — when a post-mortem directory is set and no earlier
// post-mortem of the key is there — <key>.quarantine.json with the flight
// recorder's last spans. The first post-mortem of a key is never rewritten.
func (r *Runner) PostMortem(j Job, campaign, cause string) {
	r.tracer().Instant(trace.Span{
		Name: j.Label(), Kind: trace.KindQuarantine, Campaign: campaign,
		Key: j.Key(), Err: cause,
	})
	if r.PostMortemDir == "" {
		return
	}
	path := filepath.Join(r.PostMortemDir, j.Key()+".quarantine.json")
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
	r.fsys().MkdirAll(r.PostMortemDir, 0o755)
	iofault.WriteFileAtomic(r.fsys(), path, data, 0o644)
}
