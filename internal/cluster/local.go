package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/workload"
)

// Local is the `-jobs N` executor: an in-process Coordinator, one Worker
// executing Workers leases at a time, and a Client, all three talking through
// an http.Client whose transport calls the coordinator's handler directly (no
// listener, no socket). A local campaign therefore has exactly the lifecycle
// of a fleet campaign: one dedupe (by key), one retry policy (FailLimit), one
// resume path, one journal format and one dashboard. Results come back in
// submission order and are byte-identical to a serial run at any worker
// count.
//
// The coordinator and the worker live as long as the Local: they are built
// on first use (a batch, Dashboard, AddGauge or Snapshot), so Cache,
// FailLimit and Runner must be set before then. Batches on one Local run
// one at a time, and a key settled in an earlier batch is answered from the
// coordinator instead of executing again, exactly as a fleet coordinator
// answers a resubmission.
//
// Each batch gets one workload.Store: the jobs of the batch, baselines
// included, replay their task streams from it, so a (profile, seed) pair
// that several jobs share is generated once per batch, and the pair is
// evicted as soon as the batch has no unsettled job left for it (cache hits
// and failed jobs settle too).
type Local struct {
	// Workers is how many jobs execute concurrently; <= 0 selects
	// GOMAXPROCS, 1 runs serially.
	Workers int
	// Cache, when non-nil, answers repeated jobs without executing them and
	// absorbs every completed plain (non-chaotic) result.
	Cache *exp.Cache
	// Progress, when non-nil, is called once per job as its outcome
	// arrives. Calls are serialized; arrival order is nondeterministic.
	Progress func(exp.JobResult)
	// FailLimit is how many failed executions a job gets before it is
	// failed permanently (0 = the coordinator default of 2).
	FailLimit int
	// Journal, when non-nil, is the coordinator's WAL: lease, lease-return
	// and job-done records.
	Journal *exp.Journal
	// Resume is a previous campaign's replayed journal (exp.LoadCampaign):
	// its completed keys and chaotic outcomes are served, not re-run; every
	// other job runs from its start.
	Resume exp.CampaignState
	// Runner executes every attempt: watchdog deadline, post-mortem
	// directory, filesystem seam and the flight recorder that post-mortems
	// dump.
	Runner exp.Runner

	once  sync.Once
	co    *Coordinator
	w     *Worker
	hc    *http.Client
	batch sync.Mutex // serializes RunBatch
	// byKey holds every submitted job by key, so the coordinator and the
	// worker resolve specs to the caller's own jobs (Obs included). It is
	// written only between batches, while no worker goroutine runs.
	byKey map[string]exp.Job
	// streams is the running batch's stream store (nil between batches).
	streams *workload.Store
}

// localURL is the base URL of the in-process coordinator; the transport
// ignores the host.
const localURL = "http://local"

// localPoll is the in-process client's result poll and the worker's idle
// lease poll. Round trips are function calls, so polling is cheap and a
// short interval keeps hand-off latency well below a simulation's runtime.
const localPoll = 2 * time.Millisecond

func (l *Local) workers(jobs int) int {
	n := l.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(1, min(n, jobs))
}

// coordinator builds the coordinator and the worker on first use.
func (l *Local) coordinator() *Coordinator {
	l.once.Do(func() {
		// Every batch of a journaled campaign, and its resumes, share the
		// journal's campaign ID.
		campaign := l.Resume.Campaign
		if j := l.Journal; j != nil && j.Campaign() != "" {
			campaign = j.Campaign()
		}
		l.co = NewCoordinator(Config{
			Cache: l.Cache, Journal: l.Journal, State: l.Resume,
			FailLimit: l.FailLimit, Campaign: campaign,
			// A stolen duplicate on the same host only burns a slot.
			StealAfter: -1,
		})
		l.byKey = make(map[string]exp.Job)
		resolve := func(s JobSpec) (exp.Job, error) {
			if j, ok := l.byKey[s.Key]; ok {
				return j, nil
			}
			return s.Job()
		}
		l.co.resolve = resolve
		l.hc = &http.Client{Transport: handlerTransport{l.co.Handler()}}
		l.w = NewWorker(WorkerConfig{
			Name: "local", Coordinator: localURL, Poll: localPoll, HTTP: l.hc, Runner: &l.Runner,
		})
		l.w.resolve = resolve
	})
	return l.co
}

// RunBatch executes the jobs and returns their results in submission order.
// A crashed simulation is re-executed up to FailLimit times and then
// reported as that job's Err without disturbing the rest of the batch; a
// hung one is cancelled by the runner's watchdog. The returned error is only
// non-nil when ctx is cancelled, in which case unfinished jobs carry ctx's
// error; RunBatch returns once in-flight simulations have halted and
// released their leases.
func (l *Local) RunBatch(ctx context.Context, jobs []exp.Job) ([]exp.JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	l.coordinator()
	l.batch.Lock()
	defer l.batch.Unlock()
	// The batch's jobs share one stream store; a (profile, seed) pair leaves
	// it as soon as the last of the batch's jobs for it has settled.
	store := workload.NewStore()
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
		store.Hold(j.Profile, j.Seed)
		e, ok := l.byKey[keys[i]]
		if !ok {
			e = j
		}
		e.Streams = store
		l.byKey[keys[i]] = e
	}
	l.streams = store
	defer func() {
		// Between batches no job may keep the finished batch's store alive.
		for _, k := range keys {
			e := l.byKey[k]
			e.Streams = nil
			l.byKey[k] = e
		}
		l.streams = nil
	}()

	l.w.cfg.Parallel = l.workers(len(jobs))
	wctx, stop := context.WithCancel(ctx)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		l.w.Run(wctx)
	}()

	progress := func(jr exp.JobResult) {
		store.Release(jr.Job.Profile, jr.Job.Seed)
		if l.Progress != nil {
			l.Progress(jr)
		}
	}
	client := &Client{URL: localURL, Poll: localPoll, HTTP: l.hc, Progress: progress}
	out, err := client.RunBatch(ctx, jobs)
	stop()
	<-drained
	return out, err
}

// Snapshot returns the campaign's job accounting across every batch so far:
// the -metrics line.
func (l *Local) Snapshot() exp.Snapshot { return l.coordinator().Snapshot() }

// AddGauge registers a campaign gauge on the dashboard (Coordinator.AddGauge).
func (l *Local) AddGauge(name string, fn func() float64) { l.coordinator().AddGauge(name, fn) }

// Dashboard returns the handler serving the campaign's dashboard, the
// coordinator's /metrics and /progress with /progress naming campaign. The
// /v1 fabric API is not exposed: serving a local campaign's dashboard never
// makes it joinable by remote workers.
func (l *Local) Dashboard(campaign string) http.Handler {
	return l.coordinator().dashboard(campaign, campaign+" campaign dashboard: /metrics (Prometheus text), /progress (JSON)")
}

// handlerTransport is an http.RoundTripper that serves every request with an
// in-process handler: the request never touches a socket. httptest's
// ResponseRecorder is the standard library's in-memory ResponseWriter.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close() // the RoundTripper contract
	}
	return rec.Result(), nil
}
