package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/exp"
)

// Local is the `-jobs N` executor: it runs each batch through a fresh
// in-process Coordinator, one Worker executing Workers leases at a time,
// and a Client, all three talking through an http.Client whose transport
// calls the coordinator's handler directly (no listener, no socket). A local
// campaign therefore has exactly the lifecycle of a fleet campaign: one
// dedupe (by key), one retry policy (FailLimit), one resume path and one
// journal format. Results come back in submission order and are
// byte-identical to a serial run at any worker count.
type Local struct {
	// Workers is how many jobs execute concurrently; <= 0 selects
	// GOMAXPROCS, 1 runs serially.
	Workers int
	// Cache, when non-nil, answers repeated jobs without executing them and
	// absorbs every completed plain (non-chaotic) result.
	Cache *exp.Cache
	// Metrics, when non-nil, accumulates run statistics across batches.
	Metrics *exp.Metrics
	// Progress, when non-nil, is called once per job as its outcome
	// arrives. Calls are serialized; arrival order is nondeterministic.
	Progress func(exp.JobResult)
	// FailLimit is how many failed executions a job gets before it is
	// failed permanently (0 = the coordinator default of 2).
	FailLimit int
	// Runner executes every attempt: watchdog deadline, checkpoint
	// directory and cadence, filesystem seam and the flight recorder that
	// post-mortems dump. Its Journal and Resume are also the batch
	// coordinator's WAL (lease, lease-return, job-done records) and resumed
	// state (completed keys and chaotic outcomes are served, not re-run).
	Runner exp.Runner
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

// RunBatch executes the jobs and returns their results in submission order.
// A crashed simulation is re-executed up to FailLimit times and then
// reported as that job's Err without disturbing the rest of the batch; a
// hung one is cancelled by the runner's watchdog. The returned error is only
// non-nil when ctx is cancelled, in which case unfinished jobs carry ctx's
// error; RunBatch returns once in-flight simulations have drained (written
// their interrupt checkpoints) and released their leases.
func (l *Local) RunBatch(ctx context.Context, jobs []exp.Job) ([]exp.JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if l.Metrics != nil {
		l.Metrics.Queue(len(jobs))
		if l.Cache != nil {
			// Surface the startup heal scan (quarantined torn entries, and
			// entries that could not be quarantined) in the run metrics.
			l.Metrics.ObserveHeal(l.Cache.LastHeal())
		}
	}
	byKey := make(map[string]exp.Job, len(jobs))
	for _, j := range jobs {
		k := j.Key()
		if _, ok := byKey[k]; !ok {
			byKey[k] = j
		}
	}
	resolve := func(s JobSpec) (exp.Job, error) {
		if j, ok := byKey[s.Key]; ok {
			return j, nil
		}
		return s.Job()
	}

	// Every batch of a journaled campaign, and its resumes, share the
	// journal's campaign ID; the first batch mints it.
	campaign := l.Runner.Resume.Campaign
	if j := l.Runner.Journal; j != nil && j.Campaign() != "" {
		campaign = j.Campaign()
	}
	co := NewCoordinator(Config{
		Cache: l.Cache, Journal: l.Runner.Journal, State: l.Runner.Resume,
		FailLimit: l.FailLimit, Campaign: campaign,
		// A speculative duplicate on the same host only burns a slot.
		StragglerAfter: -1, StealAfter: -1,
	})
	co.resolve = resolve
	hc := &http.Client{Transport: handlerTransport{co.Handler()}}

	w := NewWorker(WorkerConfig{
		Name: "local", Coordinator: localURL, Parallel: l.workers(len(jobs)),
		Poll: localPoll, HTTP: hc, Runner: &l.Runner,
	})
	w.resolve = resolve
	wctx, stop := context.WithCancel(ctx)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		w.Run(wctx)
	}()

	client := &Client{URL: localURL, Poll: localPoll, HTTP: hc, Progress: l.observe}
	out, err := client.RunBatch(ctx, jobs)
	stop()
	<-drained
	if l.Metrics != nil {
		l.Metrics.AddWriteErrors(co.writeErrors())
	}
	return out, err
}

// observe feeds one arriving outcome to the metrics and the Progress hook.
func (l *Local) observe(jr exp.JobResult) {
	if l.Metrics != nil {
		l.Metrics.Observe(jr)
	}
	if l.Progress != nil {
		l.Progress(jr)
	}
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
