package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sim"
)

// WorkerConfig parameterizes a fleet worker.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator (lease ownership,
	// journal records, /progress rows). Required.
	Name string
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Parallel is how many leased jobs execute concurrently (default 1).
	Parallel int
	// Poll is the idle wait between empty lease pulls (default 500ms).
	Poll time.Duration
	// Runner executes every leased attempt (nil = a zero exp.Runner): its
	// watchdog deadline, post-mortem directory and flight recorder apply to
	// all of this worker's leases, and its Tracer, when set, is the span
	// stream the worker ships home on heartbeats and completions. Retry is
	// the coordinator's policy (Config.FailLimit), not the worker's.
	Runner *exp.Runner
	// Observe attaches a fresh obs registry to every executed job. Every
	// observed run's counters (a caller-attached registry too) ride its
	// sealed Outcome to the coordinator's tls_run_* metrics. Observability
	// is per-worker and never part of a job's identity, so observed and
	// unobserved workers produce identical results.
	Observe bool
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// HTTP overrides the transport (tests, chaos injection); nil builds a
	// client from RPCTimeout/DialTimeout.
	HTTP *http.Client
	// RPCTimeout bounds each coordinator RPC (default 30s); DialTimeout
	// bounds the connection attempt alone (default 5s), so a partitioned
	// coordinator fails fast instead of hanging the full RPC timeout.
	RPCTimeout  time.Duration
	DialTimeout time.Duration
	// Seed drives retry-jitter determinism (0 = derived from Name).
	Seed uint64
	// Sleep overrides the context-aware wait used by the pull loop, the
	// heartbeat timer and outcome-delivery retries (nil = real time). Chaos
	// drills and replay harnesses inject a virtual clock here so retry and
	// breaker schedules stay deterministic under wall-clock jitter; it must
	// return false when ctx dies first.
	Sleep func(ctx context.Context, d time.Duration) bool
}

func (c WorkerConfig) parallel() int {
	if c.Parallel <= 0 {
		return 1
	}
	return c.Parallel
}

func (c WorkerConfig) poll() time.Duration {
	if c.Poll <= 0 {
		return 500 * time.Millisecond
	}
	return c.Poll
}

// Worker pulls leased jobs from a coordinator, executes them through a
// hardened exp.Runner, and streams results, releases and heartbeats back.
type Worker struct {
	cfg    WorkerConfig
	hc     *http.Client
	tracer *trace.Tracer // the runner's shipping tracer; nil when untraced
	// resolve rebuilds a leased spec's job (default JobSpec.Job); the
	// in-process executor hands back the caller's own job, Obs included.
	resolve func(JobSpec) (exp.Job, error)

	mu      sync.Mutex
	cancels map[uint64]context.CancelFunc // per-lease job cancellation
	ttl     time.Duration                 // latest lease TTL seen
}

// NewWorker builds a worker for the config.
func NewWorker(cfg WorkerConfig) *Worker {
	hc := cfg.HTTP
	if hc == nil {
		hc = httpClient(cfg.DialTimeout, cfg.RPCTimeout)
	}
	if cfg.Runner == nil {
		cfg.Runner = new(exp.Runner)
	}
	return &Worker{
		cfg:     cfg,
		hc:      hc,
		tracer:  cfg.Runner.Tracer,
		resolve: JobSpec.Job,
		cancels: make(map[uint64]context.CancelFunc),
		ttl:     30 * time.Second,
	}
}

func (w *Worker) seed() uint64 {
	if w.cfg.Seed != 0 {
		return w.cfg.Seed
	}
	return jitterSeed("worker|" + w.cfg.Name)
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	if w.cfg.Sleep != nil {
		return w.cfg.Sleep(ctx, d)
	}
	return sleepCtx(ctx, d)
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run pulls and executes jobs until ctx dies, then drains: in-flight
// simulations are interrupted (they halt at their next commit), unfinished
// leases are returned to the coordinator, and one final heartbeat ships the
// last trace spans.
func (w *Worker) Run(ctx context.Context) error {
	hbCtx, hbStop := context.WithCancel(context.Background())
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeatLoop(hbCtx)
	}()

	slots := make(chan struct{}, w.cfg.parallel())
	var wg sync.WaitGroup
	// Seeded full jitter on pull errors: a herd of workers reconnecting to a
	// restarted (or partitioned) coordinator spreads out instead of arriving
	// in lockstep.
	pullBO := newBackoff(w.seed()^0x9d11, 100*time.Millisecond, 10*time.Second)
pull:
	for {
		select {
		case <-ctx.Done():
			break pull
		case slots <- struct{}{}:
		}
		// One slot held; ask for as many jobs as there are free slots plus
		// the one we hold, then start what we got and give back the rest.
		free := cap(slots) - len(slots) + 1
		resp, err := w.lease(LeaseRequest{Worker: w.cfg.Name, Max: free})
		if err != nil || len(resp.Leases) == 0 {
			// Nothing to build next: an idle slot keeps no spare storage.
			sim.DropSpare()
			<-slots
			wait := w.cfg.poll()
			switch {
			case err != nil:
				w.logf("worker %s: lease pull: %v", w.cfg.Name, err)
				wait = pullBO.next()
			case resp.RetryAfterMS > 0:
				// Circuit-broken: the coordinator told us exactly how long
				// the quarantine lasts; jitter on top avoids a synchronized
				// probation stampede.
				wait = time.Duration(resp.RetryAfterMS)*time.Millisecond + pullBO.next()
				w.logf("worker %s: quarantined by coordinator, backing off %v", w.cfg.Name, wait)
			default:
				pullBO.reset()
			}
			if !w.sleep(ctx, wait) {
				break pull
			}
			continue
		}
		pullBO.reset()
		for i, l := range resp.Leases {
			if i > 0 {
				select {
				case slots <- struct{}{}:
				case <-ctx.Done():
					// No slot for an extra lease during shutdown: return it.
					w.release(l.ID)
					continue
				}
			}
			w.noteTTL(l)
			wg.Add(1)
			go func(l Lease) {
				defer wg.Done()
				defer func() { <-slots }()
				w.runLease(ctx, l)
			}(l)
		}
	}
	wg.Wait()
	hbStop()
	hbWG.Wait()
	w.heartbeat() // final spans, best-effort
	return ctx.Err()
}

func (w *Worker) noteTTL(l Lease) {
	if l.TTLMS <= 0 {
		return
	}
	w.mu.Lock()
	w.ttl = time.Duration(l.TTLMS) * time.Millisecond
	w.mu.Unlock()
}

// runLease executes one leased job and reports its outcome. A lease whose
// job was interrupted (drain or a lost speculative race) is released, not
// completed: the coordinator re-queues it unless someone else finished it.
func (w *Worker) runLease(ctx context.Context, l Lease) {
	job, err := w.resolve(l.Spec)
	if err != nil {
		// The spec does not reconstruct here (version skew): report the
		// permanent failure rather than silently dropping the lease.
		w.complete(ctx, l, Outcome{Key: l.Spec.Key, Err: err.Error(), Worker: w.cfg.Name})
		return
	}
	if w.cfg.Observe {
		job.Obs = &obs.Config{Registry: obs.NewRegistry()}
	}
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.cancels[l.ID] = cancel
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.cancels, l.ID)
		w.mu.Unlock()
	}()

	// One attempt per lease, in the lease's own cancellation scope; the
	// coordinator decides whether a failure earns another execution.
	jr := w.cfg.Runner.Run(jobCtx, job, exp.Attempt{Campaign: l.Spec.Campaign, Flow: l.ID, N: l.Attempt})
	if jr.Err != nil && (errors.Is(jr.Err, exp.ErrJobInterrupted) || jobCtx.Err() != nil) && !jr.TimedOut {
		// Drain or cancellation, not the job's fault: give the lease back.
		w.release(l.ID)
		return
	}
	o := Outcome{
		Key: l.Spec.Key, Result: jr.Result, Chaos: jr.Chaos,
		Attempts: jr.Attempts, WallMS: jr.Wall.Milliseconds(), Worker: w.cfg.Name,
	}
	if jr.Err != nil {
		o.Result, o.Chaos = sim.Result{}, nil
		o.Err = jr.Err.Error()
		o.TimedOut = jr.TimedOut
	} else if job.Obs != nil {
		// The registry is only read here, after its simulation finished, so
		// the zero-synchronization hot path is preserved.
		o.Counters = job.Obs.Registry.CounterSnapshot()
	}
	if w.complete(ctx, l, o).Failed {
		w.cfg.Runner.PostMortem(job, l.Spec.Campaign, o.Err)
	}
}

// heartbeatLoop extends leases and ships spans until stopped.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		ttl := w.ttl
		w.mu.Unlock()
		every := ttl / 3
		if every < 50*time.Millisecond {
			every = 50 * time.Millisecond
		}
		if every > 5*time.Second {
			every = 5 * time.Second
		}
		if !w.sleep(ctx, every) {
			return
		}
		w.heartbeat()
	}
}

// heartbeat sends one heartbeat and executes any cancellations it returns.
func (w *Worker) heartbeat() {
	w.mu.Lock()
	ids := make([]uint64, 0, len(w.cancels))
	for id := range w.cancels {
		ids = append(ids, id)
	}
	w.mu.Unlock()
	// Ship retained spans with the heartbeat; a failed post requeues them so
	// a flaky network delays the fleet trace instead of losing pieces of it.
	spans := w.tracer.Drain()
	var resp HeartbeatResponse
	err := w.post("/v1/heartbeat", HeartbeatRequest{Worker: w.cfg.Name, Leases: ids, Spans: spans}, &resp)
	if err != nil {
		w.tracer.Requeue(spans)
		return
	}
	for _, id := range resp.Cancel {
		w.mu.Lock()
		cancel := w.cancels[id]
		w.mu.Unlock()
		if cancel != nil {
			// The job finished elsewhere: stop burning cycles on it. The
			// executor releases the lease when it unwinds.
			cancel()
		}
	}
}

func (w *Worker) lease(req LeaseRequest) (LeaseResponse, error) {
	var resp LeaseResponse
	err := w.post("/v1/lease", req, &resp)
	return resp, err
}

// complete delivers an outcome, retrying through coordinator restarts: the
// result in hand is the product of real simulation time and is not dropped
// for a transient connection error. Retry sleeps watch ctx so a draining
// worker does not stall on a dead coordinator; when ctx dies mid-wait, one
// final immediate attempt still delivers the result on a live network, and
// otherwise the journal's requeue covers the loss. It returns the
// coordinator's acknowledgement (zero when delivery failed).
func (w *Worker) complete(ctx context.Context, l Lease, o Outcome) CompleteResponse {
	env, err := Seal(o)
	if err != nil {
		// An unsealable result (a non-finite float) would otherwise leave
		// the lease to expire and re-run forever: report it as the failure.
		w.logf("worker %s: sealing outcome for %.12s: %v", w.cfg.Name, o.Key, err)
		o = Outcome{Key: o.Key, Err: "sealing outcome: " + err.Error(), Attempts: o.Attempts, WallMS: o.WallMS, Worker: o.Worker}
		if env, err = Seal(o); err != nil {
			return CompleteResponse{}
		}
	}
	req := CompleteRequest{Worker: w.cfg.Name, Lease: l.ID, Key: o.Key, Env: env}
	if w.tracer != nil {
		req.FinishedUS = trace.UnixMicro(w.tracer.Now())
		req.Spans = w.tracer.Drain()
	}
	bo := newBackoff(w.seed()^l.ID, 100*time.Millisecond, 2*time.Second)
	for attempt := 0; attempt < 8; attempt++ {
		var resp CompleteResponse
		err := w.post("/v1/complete", req, &resp)
		if err == nil {
			return resp
		}
		if attempt == 7 {
			w.logf("worker %s: delivering %.12s failed: %v", w.cfg.Name, o.Key, err)
			w.tracer.Requeue(req.Spans)
			return CompleteResponse{}
		}
		wait := bo.next()
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > 0 {
			wait += se.RetryAfter
		}
		if !w.sleep(ctx, wait) {
			if w.post("/v1/complete", req, &resp) != nil {
				w.logf("worker %s: delivering %.12s abandoned at drain (lease rides out in the journal)", w.cfg.Name, o.Key)
				w.tracer.Requeue(req.Spans)
			}
			return resp
		}
	}
	return CompleteResponse{}
}

// release returns one lease without an outcome, best-effort.
func (w *Worker) release(id uint64) {
	w.post("/v1/release", ReleaseRequest{Worker: w.cfg.Name, Leases: []uint64{id}}, &struct{}{})
}

// post is one JSON round trip to the coordinator.
func (w *Worker) post(path string, req, resp any) error {
	return postJSON(w.hc, w.cfg.Coordinator+path, req, resp)
}

// postJSON is the shared HTTP JSON call used by workers and clients. A
// non-200 reply becomes a *StatusError carrying any Retry-After hint.
func postJSON(hc *http.Client, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		se := &StatusError{URL: url, Code: r.StatusCode}
		if secs, err := strconv.Atoi(r.Header.Get("Retry-After")); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		io.Copy(io.Discard, r.Body)
		return se
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// sleepCtx sleeps d, returning false if ctx died first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
