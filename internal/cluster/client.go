package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/exp"
)

// Client submits jobs to a coordinator and polls for their outcomes. It
// implements the report.Batcher shape (RunBatch, like Local), so `tlsreport
// -coordinator URL` renders the same artifacts from fleet results that it
// renders from local ones.
//
// The client is crash-tolerant on both sides: submission is idempotent by
// job key, transient connection errors back off and retry, and keys a
// restarted coordinator no longer recognizes are simply re-submitted — so a
// coordinator SIGKILL'd and resumed mid-campaign is survived without caller
// involvement.
type Client struct {
	// URL is the coordinator's base URL (http://host:port).
	URL string
	// Name identifies this client; it seeds the retry jitter (see Seed), so
	// two clients of one coordinator do not retry in lockstep.
	Name string
	// Poll is the result-polling interval (default 200ms).
	Poll time.Duration
	// Progress, when non-nil, is called once per job as its outcome arrives.
	Progress func(exp.JobResult)
	// Logf, when non-nil, receives operational log lines (reconnects).
	Logf func(format string, args ...any)
	// HTTP overrides the transport (tests, chaos injection); nil builds a
	// client from RPCTimeout/DialTimeout.
	HTTP *http.Client
	// RPCTimeout bounds each coordinator RPC (default 30s); DialTimeout
	// bounds the connection attempt alone (default 5s), so a partitioned
	// coordinator fails fast instead of hanging the full RPC timeout.
	RPCTimeout  time.Duration
	DialTimeout time.Duration
	// Seed drives retry-jitter determinism (0 = derived from Name and URL).
	Seed uint64
	// Sleep overrides the context-aware wait used between polls and retry
	// attempts (nil = real time). Chaos drills and replay harnesses inject a
	// virtual clock here so backoff schedules stay deterministic under
	// wall-clock jitter; it must return false when ctx dies first.
	Sleep func(ctx context.Context, d time.Duration) bool

	hcOnce sync.Once
	hc     *http.Client
}

// ClientName derives a fleet-unique client identity (prefix-host-pid), so
// clients on different hosts or processes draw different retry jitter.
func ClientName(prefix string) string {
	host, _ := os.Hostname()
	if host == "" {
		host = "client"
	}
	return fmt.Sprintf("%s-%s-%d", prefix, host, os.Getpid())
}

// maxRejections is how many coordinator spec rejections a key absorbs
// before the client fails it permanently: transient submit-body corruption
// heals on resubmission, genuine client/coordinator version skew does not.
const maxRejections = 3

// submitChunk bounds jobs per submit POST; resultsChunk keys per poll.
const (
	submitChunk  = 200
	resultsChunk = 500
)

func (c *Client) poll() time.Duration {
	if c.Poll <= 0 {
		return 200 * time.Millisecond
	}
	return c.Poll
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	c.hcOnce.Do(func() { c.hc = httpClient(c.DialTimeout, c.RPCTimeout) })
	return c.hc
}

func (c *Client) seed() uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return jitterSeed("client|" + c.Name + "|" + c.URL)
}

func (c *Client) sleep(ctx context.Context, d time.Duration) bool {
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	return sleepCtx(ctx, d)
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// RunBatch submits the jobs and blocks until every outcome arrived or ctx
// died. Results come back in submission order; a key repeated within the
// batch is executed once and its later indices are marked Deduped. The
// returned error is only non-nil when ctx is cancelled, in which case
// unresolved jobs carry ctx's error.
func (c *Client) RunBatch(ctx context.Context, jobs []exp.Job) ([]exp.JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]exp.JobResult, len(jobs))
	resolved := make([]bool, len(jobs))

	// Duplicate keys within a batch resolve together from one outcome.
	specs := make([]JobSpec, len(jobs))
	byKey := make(map[string][]int)
	var keys []string // distinct, submission order
	for i, j := range jobs {
		specs[i] = SpecOf(j)
		key := specs[i].Key
		if _, ok := byKey[key]; !ok {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], i)
	}

	pending := make(map[string]bool, len(keys))
	for _, key := range keys {
		pending[key] = true
	}

	// The coordinator rejects (rather than registers) specs that do not
	// re-hash to their key — version skew, or a corrupted submit body. A
	// rejected key stays pending, comes back Unknown from the results poll,
	// and is resubmitted; only a key rejected maxRejections times is failed.
	rejections := make(map[string]int)
	applyRejections := func(rejected []string) {
		for _, key := range rejected {
			if !pending[key] {
				continue
			}
			rejections[key]++
			c.logf("cluster client: coordinator rejected spec %.12s (%d/%d)", key, rejections[key], maxRejections)
			if rejections[key] < maxRejections {
				continue
			}
			delete(pending, key)
			for _, i := range byKey[key] {
				out[i] = exp.JobResult{
					Job: jobs[i],
					Err: fmt.Errorf("job %s: coordinator rejected the spec %d times (client/coordinator version skew?)",
						jobs[i].Label(), maxRejections),
				}
				resolved[i] = true
				if c.Progress != nil {
					c.Progress(out[i])
				}
			}
		}
	}

	rejected, err := c.submit(ctx, specs)
	if err != nil {
		return c.abandon(ctx, jobs, out, resolved), err
	}
	applyRejections(rejected)
	hc := c.client()
	for len(pending) > 0 {
		if !c.sleep(ctx, c.poll()) {
			return c.abandon(ctx, jobs, out, resolved), ctx.Err()
		}
		ask := make([]string, 0, len(pending))
		for _, key := range keys {
			if pending[key] {
				ask = append(ask, key)
			}
		}
		var unknown []string
		failed := false
		for start := 0; start < len(ask); start += resultsChunk {
			end := min(start+resultsChunk, len(ask))
			var resp ResultsResponse
			if err := postJSON(hc, c.URL+"/v1/results", ResultsRequest{Keys: ask[start:end]}, &resp); err != nil {
				c.logf("cluster client: poll: %v (will retry)", err)
				failed = true
				break
			}
			for key, env := range resp.Results {
				if !pending[key] {
					continue
				}
				jr, ok := c.decode(jobs, byKey[key], env)
				if !ok {
					continue // corrupt envelope: re-poll
				}
				delete(pending, key)
				for n, i := range byKey[key] {
					out[i] = jr
					out[i].Job = jobs[i]
					if n > 0 {
						// A repeated key shares the first index's outcome;
						// only that index accounts for the execution.
						out[i].Deduped = true
						out[i].Attempts, out[i].Wall = 0, 0
					}
					resolved[i] = true
					if c.Progress != nil {
						c.Progress(out[i])
					}
				}
			}
			unknown = append(unknown, resp.Unknown...)
		}
		if failed || len(unknown) > 0 {
			// A coordinator restart: back off, then re-submit whatever is
			// still pending (idempotent; a resumed coordinator answers the
			// finished ones from its journal and cache instantly).
			if !c.sleep(ctx, c.poll()) {
				return c.abandon(ctx, jobs, out, resolved), ctx.Err()
			}
			remaining := make([]JobSpec, 0, len(pending))
			seen := make(map[string]bool, len(pending))
			for _, s := range specs {
				if pending[s.Key] && !seen[s.Key] {
					seen[s.Key] = true
					remaining = append(remaining, s)
				}
			}
			rejected, err := c.submit(ctx, remaining)
			if err != nil {
				return c.abandon(ctx, jobs, out, resolved), err
			}
			applyRejections(rejected)
		}
	}
	return out, nil
}

// decode maps one sealed outcome onto a JobResult template for its indices.
func (c *Client) decode(jobs []exp.Job, idx []int, env Envelope) (exp.JobResult, bool) {
	var o Outcome
	if err := env.Open(&o); err != nil {
		c.logf("cluster client: rejecting outcome: %v", err)
		return exp.JobResult{}, false
	}
	jr := exp.JobResult{
		Result: o.Result, Chaos: o.Chaos, Cached: o.Cached,
		Attempts: o.Attempts, Wall: time.Duration(o.WallMS) * time.Millisecond,
	}
	if o.Err != "" {
		job := jobs[idx[0]]
		jr.Err = fmt.Errorf("job %s (worker %s): %s", job.Label(), o.Worker, o.Err)
		jr.TimedOut = o.TimedOut
	}
	return jr, true
}

// submit registers specs with the coordinator, retrying through transient
// errors and overload sheds (429 + Retry-After, honored with jitter on top)
// until ctx dies. It returns the keys the coordinator rejected as
// unresolvable.
func (c *Client) submit(ctx context.Context, specs []JobSpec) ([]string, error) {
	hc := c.client()
	bo := newBackoff(c.seed(), 100*time.Millisecond, 5*time.Second)
	var rejected []string
	for start := 0; start < len(specs); start += submitChunk {
		end := min(start+submitChunk, len(specs))
		bo.reset()
		for {
			var resp SubmitResponse
			err := postJSON(hc, c.URL+"/v1/submit", SubmitRequest{Jobs: specs[start:end]}, &resp)
			if err == nil {
				rejected = append(rejected, resp.Rejected...)
				break
			}
			wait := bo.next()
			var se *StatusError
			if errors.As(err, &se) && se.RetryAfter > 0 {
				// The coordinator shed us: its Retry-After estimate plus our
				// own jitter, so a shed fleet does not return in lockstep.
				wait += se.RetryAfter
			}
			c.logf("cluster client: submit: %v (retry in %v)", err, wait)
			if !c.sleep(ctx, wait) {
				return rejected, ctx.Err()
			}
		}
	}
	return rejected, nil
}

// abandon fills every unresolved slot with ctx's error: the cancellation
// contract every executor shares.
func (c *Client) abandon(ctx context.Context, jobs []exp.Job, out []exp.JobResult, resolved []bool) []exp.JobResult {
	err := ctx.Err()
	if err == nil {
		err = errors.New("cluster: batch abandoned")
	}
	for i := range out {
		if !resolved[i] {
			out[i] = exp.JobResult{Job: jobs[i], Err: fmt.Errorf("job %s: %w", jobs[i].Label(), err)}
		}
	}
	return out
}
