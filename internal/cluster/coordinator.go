package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/iofault"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Config parameterizes a Coordinator. The zero value works for tests: no
// cache, no journal, default lease policy.
type Config struct {
	// Name labels the campaign (journal header, dashboard).
	Name string
	// Cache, when non-nil, dedupes submitted jobs against prior results
	// before they are ever leased, and absorbs completed results so a future
	// campaign (or a serial rerun) reuses them.
	Cache *exp.Cache
	// Journal, when non-nil, receives the campaign WAL: every lease,
	// lease-return and completion is durable before it is acknowledged, so a
	// SIGKILL'd coordinator resumes mid-campaign.
	Journal *exp.Journal
	// State seeds the coordinator from a replayed journal (exp.LoadCampaign):
	// completed keys answer instantly, keys with a dead lease re-queue.
	State exp.CampaignState
	// LeaseTTL is how long a lease survives without a heartbeat (default 30s).
	LeaseTTL time.Duration
	// StealAfter lets an idle worker steal a duplicate of a job another
	// worker has held this long (default 30s; < 0 disables). Stealing is
	// the coordinator's only duplicate execution, capped at one duplicate
	// per job (maxLeases).
	StealAfter time.Duration
	// FailLimit is how many distinct failed executions a job gets before it
	// is failed permanently (default 2: one re-execution). Watchdog timeouts
	// fail immediately: a deterministic simulation that hung once will hang
	// everywhere. This is the campaign's only retry policy, local or fleet.
	FailLimit int
	// MaxPending bounds the pending queue (0 = unbounded). Submissions that
	// would grow the queue past the bound are shed with an OverloadError
	// (HTTP 429 + Retry-After) instead of accepted into an ever-longer line.
	MaxPending int
	// QuarantineFor is the circuit breaker's base quarantine (default 30s);
	// each repeat trip doubles it, capped at 8x. BreakerCRCLimit consecutive
	// CRC-invalid completions (default 3) or BreakerExpiryLimit consecutive
	// lease expiries (default 5) trip a worker's breaker.
	QuarantineFor      time.Duration
	BreakerCRCLimit    int
	BreakerExpiryLimit int
	// Tracer, when non-nil, records the coordinator's scheduling decisions
	// (queue waits, lease holds, steals, completions) as fleet spans.
	// Workers' spans shipped on heartbeats and completions are collected
	// regardless, so WriteFleetTrace can merge the whole fleet.
	Tracer *trace.Tracer
	// Campaign overrides the minted campaign correlation ID (tests, resume
	// of a known campaign). Empty mints one from Name at first submission.
	Campaign string
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL <= 0 {
		return 30 * time.Second
	}
	return c.LeaseTTL
}

func (c Config) stealAfter() time.Duration {
	switch {
	case c.StealAfter < 0:
		return 0
	case c.StealAfter == 0:
		return 30 * time.Second
	default:
		return c.StealAfter
	}
}

func (c Config) failLimit() int {
	if c.FailLimit <= 0 {
		return 2
	}
	return c.FailLimit
}

func (c Config) quarantineFor() time.Duration {
	if c.QuarantineFor <= 0 {
		return 30 * time.Second
	}
	return c.QuarantineFor
}

func (c Config) breakerCRCLimit() int {
	if c.BreakerCRCLimit <= 0 {
		return 3
	}
	return c.BreakerCRCLimit
}

func (c Config) breakerExpiryLimit() int {
	if c.BreakerExpiryLimit <= 0 {
		return 5
	}
	return c.BreakerExpiryLimit
}

// Chaotic reports whether the spec carries chaos instrumentation (mirrors
// exp.Job: such jobs bypass the result cache because their verdict is not
// reconstructible from sim.Result).
func (s JobSpec) Chaotic() bool {
	return s.Invariants || s.Faults != nil
}

type jobState int

const (
	jobPending jobState = iota
	jobLeased
	jobDone
	jobFailed
)

// jobEntry is the coordinator's record of one distinct job key.
type jobEntry struct {
	spec JobSpec
	job  exp.Job // resolved from spec; specs that fail to resolve are
	// rejected at Submit and never become entries

	state       jobState
	queued      bool // present in the pending queue
	queuedAt    time.Time
	leases      map[uint64]*lease
	issues      int // leases ever granted
	failures    int // failed executions so far
	joins       int // later submissions of the same key joined to this entry
	firstLeased time.Time

	outcome Envelope // sealed Outcome once state is jobDone or jobFailed
}

// lease is one active grant of a job to a worker.
type lease struct {
	id          uint64
	key         string
	worker      string
	deadline    time.Time
	grantedAt   time.Time
	speculative bool
}

// workerState tracks one fleet worker as seen from the coordinator.
type workerState struct {
	lastSeen  time.Time
	cancel    []uint64 // leases to abandon, drained by heartbeat
	completed int
	brk       breaker
}

type breakerPhase uint8

const (
	breakerClosed breakerPhase = iota
	breakerOpen
	breakerHalfOpen
)

func (p breakerPhase) String() string {
	switch p {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "probation"
	default:
		return "closed"
	}
}

// breaker is one worker's circuit breaker. A worker that keeps delivering
// CRC-invalid results (byzantine or bit-rotting) or keeps letting leases
// expire (flapping) is quarantined: its lease requests come back empty with
// a Retry-After hint until the quarantine lapses, then it is re-admitted on
// probation — one lease at a time — and fully re-admitted only after a
// CRC-valid delivery. Each repeat trip doubles the quarantine (capped 8x).
type breaker struct {
	phase        breakerPhase
	consecCRC    int       // consecutive CRC-invalid completions
	consecExpiry int       // consecutive lease expiries
	openedAt     time.Time // when the breaker last tripped
	trips        int       // lifetime trip count (drives quarantine length)
	probation    uint64    // the single outstanding probe lease, if half-open
}

// fleetCounters are the dashboard's scheduling counters.
type fleetCounters struct {
	leasesGranted     uint64
	leasesExpired     uint64
	leasesReturned    uint64
	steals            uint64
	dedupeHits        uint64 // submissions joined to an already-tracked key
	cacheHits         uint64 // submissions answered by the result cache
	resumeHits        uint64 // submissions answered by the replayed journal
	dupResults        uint64 // valid results for already-finished jobs
	crcRejected       uint64 // completions failing the envelope checksum
	requeues          uint64
	journalErrors     uint64
	cachePutErrors    uint64 // completed results the cache could not persist
	shedSubmits       uint64 // submissions shed by the queue bound
	specRejects       uint64 // specs that did not re-hash to their own key
	breakerOpens      uint64
	breakerProbations uint64
	breakerCloses     uint64
	executed          uint64 // jobs settled by a successful execution
	retries           uint64 // executions issued beyond a settled job's first
	timeouts          uint64 // jobs failed by the watchdog
	simCycles         uint64 // simulated cycles of executed jobs
	maxWallMS         int64  // longest settling execution
}

// Coordinator owns a campaign: the job set, the lease table, the journal and
// the result cache. All exported methods are safe for concurrent use.
type Coordinator struct {
	cfg Config
	now func() time.Time // injectable clock for deterministic tests
	// resolve rebuilds a submitted spec's job (default JobSpec.Job). The
	// in-process executor resolves its own batch's jobs by key instead, so
	// any job — even one whose machine has no wire name — runs locally.
	resolve func(JobSpec) (exp.Job, error)

	mu       sync.Mutex
	jobs     map[string]*jobEntry
	order    []string // submission order, for /progress
	queue    []string // pending keys, FIFO
	leases   map[uint64]*lease
	leaseSeq uint64
	workers  map[string]*workerState
	ctr      fleetCounters
	// runCounters sums the obs counters of every settling execution: the
	// fleet's tls_run_* series. A duplicate, rejected or failed execution
	// adds nothing, so each job's run counts once.
	runCounters map[string]uint64

	campaign string // correlation ID minted at first submission

	// Phase-latency histograms (ms), always on: queue wait (submit to first
	// grant), lease hold (grant to settle), attempt wall (worker-reported)
	// and result delivery (attempt finish to coordinator ingest). The
	// registry is single-goroutine by contract, so it lives under mu.
	phases     *obs.Registry
	queueWait  *obs.Histogram
	leaseHold  *obs.Histogram
	attempt    *obs.Histogram
	delivery   *obs.Histogram
	fleetSpans []trace.Span // spans shipped by workers, bounded
	spansLost  uint64       // worker spans dropped by the bound

	// Dashboard state: when the first job was submitted, the ring of the
	// latest settled jobs, and caller-registered gauges.
	firstSubmit time.Time
	recent      []recentJob
	recentNext  int // ring write cursor (the oldest entry once full)
	gauges      []gauge

	ln   net.Listener
	srv  *http.Server
	stop chan struct{}
}

// phaseBuckets are the phase-latency histogram bounds in milliseconds: fine
// enough to separate loopback microseconds from minutes-long leases.
var phaseBuckets = []uint64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000, 120000}

// maxFleetSpans bounds the coordinator's merged span store; a long campaign
// past the bound keeps the earliest spans and counts the drops.
const maxFleetSpans = 1 << 17

// maxLeases caps concurrent leases per job: the original plus the one
// duplicate an idle worker may steal.
const maxLeases = 2

// NewCoordinator builds a coordinator, stamps its campaign ID on the journal
// and, for a named campaign, journals the campaign header.
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:         cfg,
		now:         time.Now,
		resolve:     JobSpec.Job,
		jobs:        make(map[string]*jobEntry),
		leases:      make(map[uint64]*lease),
		workers:     make(map[string]*workerState),
		campaign:    cfg.Campaign,
		phases:      obs.NewRegistry(),
		runCounters: make(map[string]uint64),
	}
	c.queueWait = c.phases.Histogram("queue_wait_ms", phaseBuckets)
	c.leaseHold = c.phases.Histogram("lease_hold_ms", phaseBuckets)
	c.attempt = c.phases.Histogram("attempt_wall_ms", phaseBuckets)
	c.delivery = c.phases.Histogram("result_delivery_ms", phaseBuckets)
	// The coordinator's own spans must survive until FleetSpans merges them.
	cfg.Tracer.Retain()
	if cfg.Journal != nil {
		c.cfg.Journal.SetCampaign(c.campaignLocked())
		if cfg.Name != "" {
			c.journalAppend(exp.JournalRecord{T: exp.RecCampaign, Name: cfg.Name})
		}
	}
	return c
}

// campaignLocked returns the campaign correlation ID, minting it on first
// use so every spec, span and journal record of this campaign carries one
// shared ID.
func (c *Coordinator) campaignLocked() string {
	if c.campaign == "" {
		name := c.cfg.Name
		if name == "" {
			name = "campaign"
		}
		c.campaign = trace.MintCampaign(name, c.now())
	}
	return c.campaign
}

// Campaign returns the campaign correlation ID (minting it if needed).
func (c *Coordinator) Campaign() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.campaignLocked()
}

func (c *Coordinator) journalAppend(rec exp.JournalRecord) {
	if c.cfg.Journal == nil {
		return
	}
	if err := c.cfg.Journal.Append(rec); err != nil {
		c.ctr.journalErrors++
	}
}

// OverloadError reports a submission shed by the -max-pending queue bound
// and how long to wait before retrying. The HTTP layer renders it as 429 +
// Retry-After.
type OverloadError struct {
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("cluster: coordinator overloaded, retry after %v", e.RetryAfter)
}

// Submit registers jobs (idempotent by key) and resolves as many as possible
// without leasing: joins to tracked keys, resumed outcomes from the replayed
// journal, and result-cache hits. Under overload it sheds instead of
// queueing without bound: a non-nil *OverloadError carries the partial
// response (already-registered jobs stay registered — resubmission joins
// them) and a Retry-After hint.
func (c *Coordinator) Submit(req SubmitRequest) (SubmitResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	return c.submitLocked(req.Jobs, true)
}

// Preload registers jobs bypassing the queue bound — the coordinator's own
// grid preload and resume seeding must never be shed.
func (c *Coordinator) Preload(specs []JobSpec) SubmitResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	resp, _ := c.submitLocked(specs, false)
	return resp
}

func (c *Coordinator) submitLocked(specs []JobSpec, admit bool) (SubmitResponse, error) {
	var resp SubmitResponse
	for _, spec := range specs {
		if spec.Key == "" {
			continue
		}
		if c.firstSubmit.IsZero() {
			c.firstSubmit = c.now()
		}
		if e, ok := c.jobs[spec.Key]; ok {
			c.ctr.dedupeHits++
			e.joins++
			if e.state == jobDone || e.state == jobFailed {
				resp.Done++
			}
			continue
		}
		job, err := c.resolve(spec)
		if err != nil {
			// The spec does not re-hash to its own key: version skew, or a
			// corrupted submit body. Reject rather than register-and-fail —
			// a clean resubmission of the real spec must be able to heal
			// transport corruption, which a permanently failed key never
			// could.
			c.ctr.specRejects++
			resp.Rejected = append(resp.Rejected, spec.Key)
			continue
		}
		if admit && c.cfg.MaxPending > 0 && len(c.queue) >= c.cfg.MaxPending {
			c.ctr.shedSubmits++
			return resp, &OverloadError{RetryAfter: time.Second}
		}
		// Stamp the campaign correlation ID. Campaign is not part of the
		// content hash, so the stamp cannot invalidate spec.Key; it rides the
		// wire into worker spans and journal records.
		spec.Campaign = c.campaignLocked()
		e := &jobEntry{spec: spec, job: job, leases: make(map[uint64]*lease)}
		c.jobs[spec.Key] = e
		c.order = append(c.order, spec.Key)
		resp.Accepted++
		if c.settleWithoutRunLocked(e) {
			resp.Done++
			continue
		}
		c.enqueueLocked(e)
	}
	return resp, nil
}

// settleWithoutRunLocked tries to finish a freshly submitted entry without
// leasing it: a journaled outcome or a result cache hit completes it.
func (c *Coordinator) settleWithoutRunLocked(e *jobEntry) bool {
	key := e.spec.Key
	// A completed key from the replayed journal: chaotic outcomes travel in
	// the journal itself, plain ones are reconstructed from the cache below.
	// A payload that is not a valid sealed envelope (torn, or an older
	// format) re-runs its job.
	if data, ok := c.cfg.State.Outcomes[key]; ok {
		var stored Envelope
		var o Outcome
		if json.Unmarshal(data, &stored) == nil && stored.Open(&o) == nil {
			o.Cached, o.Attempts, o.WallMS = true, 0, 0
			if env, err := Seal(o); err == nil {
				e.outcome = env
				e.state = jobDone
				c.ctr.resumeHits++
				c.noteRecentLocked(e, o)
				return true
			}
		}
	}
	if c.cfg.Cache != nil && !e.spec.Chaotic() {
		if res, ok := c.cfg.Cache.Get(e.job); ok {
			o := Outcome{Key: key, Result: res, Cached: true}
			env, err := Seal(o)
			if err == nil {
				e.outcome = env
				e.state = jobDone
				c.cfg.Tracer.Instant(trace.Span{
					Name: e.label(), Kind: trace.KindCacheHit, Campaign: c.campaignLocked(), Key: key,
				})
				if c.cfg.State.Done[key] {
					c.ctr.resumeHits++
				} else {
					c.ctr.cacheHits++
					c.journalAppend(exp.JournalRecord{
						T: exp.RecJobDone, Key: key, Label: e.job.Label(), Cached: true,
					})
				}
				c.noteRecentLocked(e, o)
				return true
			}
		}
	}
	return false
}

func (c *Coordinator) enqueueLocked(e *jobEntry) {
	if e.queued || e.state == jobDone || e.state == jobFailed {
		return
	}
	e.queued = true
	e.queuedAt = c.now()
	c.queue = append(c.queue, e.spec.Key)
}

// LeaseJobs grants up to req.Max pending jobs to the worker; an idle fleet
// steals a speculative duplicate of the longest-held lease. A quarantined
// worker gets nothing but a Retry-After hint; a worker on probation gets at
// most one probe lease (and may not steal) until it proves itself with a
// CRC-valid delivery.
func (c *Coordinator) LeaseJobs(req LeaseRequest) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	w := c.touchWorkerLocked(req.Worker)
	if wait, blocked := c.breakerGateLocked(w); blocked {
		return LeaseResponse{RetryAfterMS: wait.Milliseconds()}
	}
	max := req.Max
	if max <= 0 {
		max = 1
	}
	if w.brk.phase == breakerHalfOpen {
		max = 1
	}
	var resp LeaseResponse
	for len(resp.Leases) < max {
		e := c.popQueueLocked()
		if e == nil {
			break
		}
		resp.Leases = append(resp.Leases, c.grantLocked(e, req.Worker))
	}
	if len(resp.Leases) == 0 && c.cfg.stealAfter() > 0 && w.brk.phase == breakerClosed {
		if e := c.stealCandidateLocked(req.Worker); e != nil {
			c.ctr.steals++
			granted := c.grantLocked(e, req.Worker)
			c.cfg.Tracer.Instant(trace.Span{
				Name: e.label(), Kind: trace.KindSteal, Campaign: c.campaignLocked(),
				Key: e.spec.Key, Flow: granted.ID, Note: req.Worker,
			})
			resp.Leases = append(resp.Leases, granted)
		}
	}
	if w.brk.phase == breakerHalfOpen && len(resp.Leases) == 1 {
		w.brk.probation = resp.Leases[0].ID
	}
	return resp
}

// breakerGateLocked resolves w's breaker phase at lease time: still-serving
// quarantines block with the remaining wait; a lapsed quarantine moves the
// worker to probation; a probation with its probe still outstanding blocks
// until the probe resolves.
func (c *Coordinator) breakerGateLocked(w *workerState) (time.Duration, bool) {
	switch w.brk.phase {
	case breakerOpen:
		q := c.quarantineSpanLocked(w)
		if elapsed := c.now().Sub(w.brk.openedAt); elapsed < q {
			return q - elapsed, true
		}
		w.brk.phase = breakerHalfOpen
		w.brk.probation = 0
		c.ctr.breakerProbations++
	case breakerHalfOpen:
		if w.brk.probation != 0 {
			return c.cfg.leaseTTL() / 4, true
		}
	}
	return 0, false
}

// quarantineSpanLocked is how long w's current quarantine lasts: the base
// span doubled per repeat trip, capped at 8x.
func (c *Coordinator) quarantineSpanLocked(w *workerState) time.Duration {
	span := c.cfg.quarantineFor()
	for i := 1; i < w.brk.trips && i < 4; i++ {
		span *= 2
	}
	return span
}

// tripBreakerLocked opens w's breaker (from any phase).
func (c *Coordinator) tripBreakerLocked(w *workerState) {
	w.brk.trips++
	w.brk.phase = breakerOpen
	w.brk.openedAt = c.now()
	w.brk.probation = 0
	c.ctr.breakerOpens++
}

// popQueueLocked pops the next leasable entry, dropping keys that finished
// while queued.
func (c *Coordinator) popQueueLocked() *jobEntry {
	for len(c.queue) > 0 {
		key := c.queue[0]
		c.queue = c.queue[1:]
		e := c.jobs[key]
		if e == nil || !e.queued {
			continue
		}
		e.queued = false
		if e.state == jobDone || e.state == jobFailed {
			continue
		}
		return e
	}
	return nil
}

func (c *Coordinator) grantLocked(e *jobEntry, worker string) Lease {
	now := c.now()
	c.leaseSeq++
	l := &lease{
		id:          c.leaseSeq,
		key:         e.spec.Key,
		worker:      worker,
		deadline:    now.Add(c.cfg.leaseTTL()),
		grantedAt:   now,
		speculative: len(e.leases) > 0,
	}
	c.leases[l.id] = l
	e.leases[l.id] = l
	e.issues++
	if len(e.leases) == 1 {
		e.firstLeased = now
	}
	e.state = jobLeased
	c.ctr.leasesGranted++
	if !e.queuedAt.IsZero() {
		wait := now.Sub(e.queuedAt)
		c.queueWait.Observe(uint64(wait.Milliseconds()))
		c.cfg.Tracer.Emit(trace.Span{
			Name: e.label(), Kind: trace.KindQueue, Campaign: c.campaignLocked(),
			Key: l.key, Flow: l.id,
			Start: trace.UnixMicro(e.queuedAt), Dur: wait.Microseconds(),
		})
		e.queuedAt = time.Time{} // a steal grant must not re-measure this wait
	}
	c.journalAppend(exp.JournalRecord{
		T: exp.RecLease, Key: l.key, Label: e.label(), Worker: worker, Lease: l.id,
	})
	return Lease{
		ID: l.id, Spec: e.spec, TTLMS: c.cfg.leaseTTL().Milliseconds(),
		Attempt: e.issues, Speculative: l.speculative,
	}
}

// settleLeaseLocked records the end of one lease's life in the phase
// histograms and the span stream: how is "complete", "released" or
// "expired"; errText annotates an unhappy ending.
func (c *Coordinator) settleLeaseLocked(l *lease, how, errText string) {
	if l.grantedAt.IsZero() {
		return
	}
	hold := c.now().Sub(l.grantedAt)
	c.leaseHold.Observe(uint64(hold.Milliseconds()))
	c.cfg.Tracer.Emit(trace.Span{
		Name: how, Kind: trace.KindLease, Campaign: c.campaignLocked(),
		Key: l.key, Flow: l.id, Err: errText, Note: l.worker,
		Start: trace.UnixMicro(l.grantedAt), Dur: hold.Microseconds(),
	})
}

func (e *jobEntry) label() string { return e.job.Label() }

// stealCandidateLocked picks the entry with the oldest lease older than
// StealAfter that has no duplicate yet and is not already running on this
// worker.
func (c *Coordinator) stealCandidateLocked(worker string) *jobEntry {
	now := c.now()
	var best *jobEntry
	for _, key := range c.order {
		e := c.jobs[key]
		if e.state != jobLeased || len(e.leases) >= maxLeases {
			continue
		}
		if now.Sub(e.firstLeased) < c.cfg.stealAfter() {
			continue
		}
		held := false
		for _, l := range e.leases {
			if l.worker == worker {
				held = true
				break
			}
		}
		if held {
			continue
		}
		if best == nil || e.firstLeased.Before(best.firstLeased) {
			best = e
		}
	}
	return best
}

// Heartbeat extends the worker's leases and collects its shipped spans; the
// response lists leases whose jobs finished elsewhere.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	w := c.touchWorkerLocked(req.Worker)
	deadline := c.now().Add(c.cfg.leaseTTL())
	for _, id := range req.Leases {
		if l := c.leases[id]; l != nil && l.worker == req.Worker {
			l.deadline = deadline
		}
	}
	c.ingestSpansLocked(req.Spans)
	resp := HeartbeatResponse{Cancel: w.cancel}
	w.cancel = nil
	return resp
}

// ingestSpansLocked folds worker-shipped spans into the merged fleet store,
// bounded so a runaway worker cannot exhaust coordinator memory.
func (c *Coordinator) ingestSpansLocked(spans []trace.Span) {
	for i, sp := range spans {
		if len(c.fleetSpans) >= maxFleetSpans {
			c.spansLost += uint64(len(spans) - i)
			return
		}
		c.fleetSpans = append(c.fleetSpans, sp)
	}
}

// Complete ingests one lease's sealed outcome. The first valid result wins;
// later duplicates are counted and discarded. A checksum failure rejects the
// body and re-queues the job if nothing else is running it.
func (c *Coordinator) Complete(req CompleteRequest) CompleteResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	w := c.touchWorkerLocked(req.Worker)
	e := c.jobs[req.Key]
	if l := c.leases[req.Lease]; l != nil && l.key == req.Key {
		c.settleLeaseLocked(l, "complete", "")
		c.dropLeaseLocked(l)
	}
	c.ingestSpansLocked(req.Spans)
	// CRC-validate before the entry check: a corrupted body can flip the
	// outer req.Key too (unknown entry), and that must still count against
	// the sender's breaker rather than vanish.
	var o Outcome
	if err := req.Env.Open(&o); err != nil || o.Key != req.Key {
		c.ctr.crcRejected++
		w.brk.consecCRC++
		if w.brk.phase == breakerHalfOpen ||
			(w.brk.phase == breakerClosed && w.brk.consecCRC >= c.cfg.breakerCRCLimit()) {
			c.tripBreakerLocked(w)
		}
		c.maybeRequeueLocked(e)
		return CompleteResponse{}
	}
	if e == nil {
		return CompleteResponse{}
	}
	// A CRC-valid delivery (even a duplicate or a failed execution) is proof
	// the worker's transport and sealing are sound: reset the breaker's
	// consecutive-fault counts, and graduate a probation back to closed.
	w.brk.consecCRC, w.brk.consecExpiry = 0, 0
	if w.brk.phase == breakerHalfOpen {
		w.brk.phase = breakerClosed
		w.brk.probation = 0
		c.ctr.breakerCloses++
	}
	// Phase latencies for every CRC-valid delivery: the attempt wall the
	// worker measured, and how long the sealed result took to reach us.
	now := c.now()
	if o.WallMS > 0 {
		c.attempt.Observe(uint64(o.WallMS))
	}
	if req.FinishedUS > 0 {
		if lag := now.UnixMicro() - req.FinishedUS; lag >= 0 {
			c.delivery.Observe(uint64(lag / 1000))
		}
	}
	c.cfg.Tracer.Emit(trace.Span{
		Name: e.label(), Kind: trace.KindComplete, Campaign: c.campaignLocked(),
		Key: req.Key, Flow: req.Lease, Note: req.Worker, Err: o.Err,
		Start: trace.UnixMicro(now),
	})
	if e.state == jobDone || e.state == jobFailed {
		c.ctr.dupResults++
		return CompleteResponse{Accepted: true, Duplicate: true}
	}
	if o.Err != "" {
		e.failures++
		if o.TimedOut {
			// Deterministic hang: re-running it anywhere only hangs again.
			e.failures = c.cfg.failLimit()
		}
		if len(e.leases) == 0 {
			if e.failures >= c.cfg.failLimit() {
				c.failLocked(e, req.Env, o)
				return CompleteResponse{Accepted: true, Failed: true}
			}
			c.maybeRequeueLocked(e)
		}
		return CompleteResponse{Accepted: true}
	}
	e.outcome = c.settledLocked(e, req.Env, o)
	e.state = jobDone
	w.completed++
	c.ctr.executed++
	c.ctr.simCycles += uint64(o.Result.ExecCycles)
	c.ctr.maxWallMS = max(c.ctr.maxWallMS, o.WallMS)
	obs.MergeCounters(c.runCounters, o.Counters)
	if c.cfg.Cache != nil && !e.spec.Chaotic() {
		if err := c.cfg.Cache.Put(e.job, o.Result); err != nil {
			// The campaign survives a failed write (the result is in hand),
			// but a full disk must be visible.
			c.ctr.cachePutErrors++
		}
	}
	rec := exp.JournalRecord{T: exp.RecJobDone, Key: req.Key, Label: e.label(), Worker: req.Worker}
	if e.spec.Chaotic() {
		// The verdict is not reconstructible from the result cache, so the
		// sealed outcome itself rides in the journal for crash-resume.
		if data, err := json.Marshal(e.outcome); err == nil {
			rec.Data = data
		}
	}
	c.journalAppend(rec)
	c.cancelSiblingsLocked(e)
	return CompleteResponse{Accepted: true}
}

// settledLocked returns the envelope a settling outcome is published under:
// its Attempts counts every execution the coordinator issued for the key,
// not just the settling lease's one. It also records the settlement on the
// dashboard.
func (c *Coordinator) settledLocked(e *jobEntry, env Envelope, o Outcome) Envelope {
	c.ctr.retries += uint64(max(e.issues-1, 0))
	if o.TimedOut {
		c.ctr.timeouts++
	}
	c.noteRecentLocked(e, Outcome{Err: o.Err, Attempts: e.issues, WallMS: o.WallMS, Result: o.Result})
	if o.Attempts == e.issues {
		return env
	}
	o.Attempts = e.issues
	if resealed, err := Seal(o); err == nil {
		return resealed
	}
	return env
}

// failLocked marks the entry permanently failed with the given outcome.
func (c *Coordinator) failLocked(e *jobEntry, env Envelope, o Outcome) {
	e.outcome = c.settledLocked(e, env, o)
	e.state = jobFailed
	c.journalAppend(exp.JournalRecord{
		T: exp.RecJobDone, Key: e.spec.Key, Label: e.label(), Worker: o.Worker, Err: o.Err,
	})
	c.cancelSiblingsLocked(e)
}

// cancelSiblingsLocked voids every remaining lease of a finished entry and
// queues cancellation notices for their workers.
func (c *Coordinator) cancelSiblingsLocked(e *jobEntry) {
	for id, l := range e.leases {
		c.dropLeaseLocked(l)
		if w := c.workers[l.worker]; w != nil {
			w.cancel = append(w.cancel, id)
			if w.brk.phase == breakerHalfOpen && id == w.brk.probation {
				// Losing the race to a sibling is not the probe's fault;
				// free the probation slot so the worker can probe again.
				w.brk.probation = 0
			}
		}
	}
}

// Release returns leases without outcomes (drain or acknowledged cancel).
func (c *Coordinator) Release(req ReleaseRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	w := c.touchWorkerLocked(req.Worker)
	for _, id := range req.Leases {
		l := c.leases[id]
		if l == nil || l.worker != req.Worker {
			continue
		}
		if w.brk.phase == breakerHalfOpen && id == w.brk.probation {
			// Returning the probe (drain, or an acknowledged cancel) is not
			// a failure; free the probation slot for the next lease request.
			w.brk.probation = 0
		}
		c.settleLeaseLocked(l, "released", "")
		c.dropLeaseLocked(l)
		c.ctr.leasesReturned++
		e := c.jobs[l.key]
		c.journalAppend(exp.JournalRecord{
			T: exp.RecLeaseReturn, Key: l.key, Label: e.label(), Worker: req.Worker, Lease: id,
		})
		c.maybeRequeueLocked(e)
	}
}

// Results returns sealed outcomes for every finished requested key.
func (c *Coordinator) Results(req ResultsRequest) ResultsResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := ResultsResponse{Results: make(map[string]Envelope)}
	for _, key := range req.Keys {
		e := c.jobs[key]
		if e == nil {
			resp.Pending++
			resp.Unknown = append(resp.Unknown, key)
			continue
		}
		if e.state == jobDone || e.state == jobFailed {
			resp.Results[key] = e.outcome
		} else {
			resp.Pending++
		}
	}
	return resp
}

// dropLeaseLocked removes a lease from both tables (does not journal).
func (c *Coordinator) dropLeaseLocked(l *lease) {
	delete(c.leases, l.id)
	if e := c.jobs[l.key]; e != nil {
		delete(e.leases, l.id)
		if e.state == jobLeased && len(e.leases) == 0 && !e.queued {
			e.state = jobPending
		}
	}
}

// maybeRequeueLocked puts an unfinished entry with no active leases back on
// the pending queue.
func (c *Coordinator) maybeRequeueLocked(e *jobEntry) {
	if e == nil || e.state == jobDone || e.state == jobFailed {
		return
	}
	if len(e.leases) > 0 || e.queued {
		return
	}
	e.state = jobPending
	c.ctr.requeues++
	c.enqueueLocked(e)
}

// sweepLocked expires dead leases. Called on every API mutation and by the
// background ticker.
func (c *Coordinator) sweepLocked() {
	now := c.now()
	for _, l := range c.leases {
		if now.After(l.deadline) {
			key, id, worker := l.key, l.id, l.worker
			c.settleLeaseLocked(l, "expired", "lease expired")
			c.dropLeaseLocked(l)
			c.ctr.leasesExpired++
			// Attribute the expiry to the worker's breaker: a probe lease
			// that expires fails the probation outright; a closed worker
			// whose leases keep dying is flapping and gets quarantined.
			// (Plain map access — an expiry must not refresh lastSeen.)
			if w := c.workers[worker]; w != nil {
				w.brk.consecExpiry++
				if w.brk.phase == breakerHalfOpen && id == w.brk.probation {
					c.tripBreakerLocked(w)
				} else if w.brk.phase == breakerClosed && w.brk.consecExpiry >= c.cfg.breakerExpiryLimit() {
					c.tripBreakerLocked(w)
				}
			}
			e := c.jobs[key]
			c.journalAppend(exp.JournalRecord{
				T: exp.RecLeaseReturn, Key: key, Label: e.label(), Worker: worker, Lease: id,
			})
			c.maybeRequeueLocked(e)
		}
	}
}

func (c *Coordinator) touchWorkerLocked(name string) *workerState {
	w := c.workers[name]
	if w == nil {
		w = &workerState{}
		c.workers[name] = w
	}
	w.lastSeen = c.now()
	return w
}

// Counts is a point-in-time census of the campaign, for the dashboard and
// for -exit-when-done.
type Counts struct {
	Total, Pending, Leased, Done, Failed int
	ActiveLeases                         int
	Workers                              int
	// Quarantined counts workers whose circuit breaker is currently open.
	Quarantined int
}

// Counts returns the current census.
func (c *Coordinator) Counts() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.countsLocked()
}

func (c *Coordinator) countsLocked() Counts {
	n := Counts{Total: len(c.jobs), ActiveLeases: len(c.leases)}
	for _, e := range c.jobs {
		switch e.state {
		case jobPending:
			n.Pending++
		case jobLeased:
			n.Leased++
		case jobDone:
			n.Done++
		case jobFailed:
			n.Failed++
		}
	}
	cutoff := c.now().Add(-3 * c.cfg.leaseTTL())
	for _, w := range c.workers {
		if w.lastSeen.After(cutoff) {
			n.Workers++
		}
		if w.brk.phase == breakerOpen {
			n.Quarantined++
		}
	}
	return n
}

// Handler returns the coordinator's HTTP handler: the /v1 API plus the
// merged fleet dashboard (/metrics, /progress).
func (c *Coordinator) Handler() http.Handler {
	mux := c.dashboard(c.cfg.Name, c.cfg.Name+" campaign coordinator: /metrics (Prometheus text), /progress (JSON), /v1/* (fabric API)")
	mux.HandleFunc("/v1/submit", c.serveSubmit)
	mux.HandleFunc("/v1/lease", post(c.LeaseJobs))
	mux.HandleFunc("/v1/heartbeat", post(c.Heartbeat))
	mux.HandleFunc("/v1/complete", post(c.Complete))
	mux.HandleFunc("/v1/release", post(func(req ReleaseRequest) struct{} {
		c.Release(req)
		return struct{}{}
	}))
	mux.HandleFunc("/v1/results", post(c.Results))
	return mux
}

// serveSubmit is /v1/submit: like post(c.Submit), but an admission refusal
// becomes 429 + Retry-After, with the partial response still in the body so
// the client knows which jobs landed before the shed.
func (c *Coordinator) serveSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := c.Submit(req)
	w.Header().Set("Content-Type", "application/json")
	var over *OverloadError
	if errors.As(err, &over) {
		secs := int((over.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.WriteHeader(http.StatusTooManyRequests)
	}
	json.NewEncoder(w).Encode(resp)
}

// post adapts a typed request/response method to an HTTP JSON endpoint.
func post[Req, Resp any](fn func(Req) Resp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(fn(req))
	}
}

// Start binds addr (":0" picks a free port), serves in the background, and
// runs the lease sweeper until Stop.
func (c *Coordinator) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	c.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve serves the fabric API on ln — which may be wrapped, e.g. by a
// chaosnet.Listener — and runs the lease sweeper until Stop.
func (c *Coordinator) Serve(ln net.Listener) {
	c.mu.Lock()
	c.ln = ln
	c.srv = &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 5 * time.Second}
	c.stop = make(chan struct{})
	srv, stop := c.srv, c.stop
	c.mu.Unlock()
	go srv.Serve(ln)
	go func() {
		tick := time.NewTicker(c.sweepEvery())
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.mu.Lock()
				c.sweepLocked()
				c.mu.Unlock()
			case <-stop:
				return
			}
		}
	}()
}

func (c *Coordinator) sweepEvery() time.Duration {
	d := c.cfg.leaseTTL() / 4
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// FleetSpans returns the merged fleet span set: the coordinator's own
// retained spans plus every span workers shipped on heartbeats and
// completions. The copy is safe to export or inspect after Stop.
func (c *Coordinator) FleetSpans() []trace.Span {
	spans := c.cfg.Tracer.Drain()
	c.cfg.Tracer.Requeue(spans) // keep exportable again later
	c.mu.Lock()
	out := make([]trace.Span, 0, len(spans)+len(c.fleetSpans))
	out = append(out, spans...)
	out = append(out, c.fleetSpans...)
	c.mu.Unlock()
	return out
}

// WriteFleetTrace exports the merged fleet Perfetto trace to path through
// the iofault seam (nil fsys = the real filesystem), atomically published so
// a crash mid-export never leaves a torn trace file.
func (c *Coordinator) WriteFleetTrace(fsys iofault.FS, path string) error {
	if fsys == nil {
		fsys = iofault.Real
	}
	spans := c.FleetSpans()
	if len(spans) == 0 {
		return fmt.Errorf("cluster: no fleet spans collected (is tracing enabled on the coordinator and workers?)")
	}
	var buf bytes.Buffer
	if err := trace.ExportPerfetto(&buf, c.cfg.Tracer.Proc(), spans); err != nil {
		return err
	}
	return iofault.WriteFileAtomic(fsys, path, buf.Bytes(), 0o644)
}

// Stop closes the listener and halts the sweeper. Safe without a prior Start.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	srv, stop := c.srv, c.stop
	c.srv, c.ln, c.stop = nil, nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	if srv != nil {
		srv.Close()
	}
}
