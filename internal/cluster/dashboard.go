package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"sort"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
)

// The campaign dashboard. Every campaign, local (Local) or fleet (tlsserve),
// is served by its coordinator: /metrics in Prometheus text and /progress in
// JSON. The coordinator is the campaign's only job-count store, and Snapshot
// renders the same counts as the campaign CLIs' -metrics line. The dashboard
// observes but never steers: simulations stay deterministic whether or not
// anyone is scraping.

// recentRing is the /progress ring size: enough to see what the campaign is
// chewing on without unbounded growth on long campaigns.
const recentRing = 32

// recentJob is one entry of the /progress ring of settled jobs.
type recentJob struct {
	Label      string `json:"label"`
	Cached     bool   `json:"cached,omitempty"`
	Error      string `json:"error,omitempty"`
	Attempts   int    `json:"attempts,omitempty"`
	WallMS     int64  `json:"wall_ms"`
	ExecCycles uint64 `json:"exec_cycles"`
}

// gauge is a caller-registered /metrics gauge.
type gauge struct {
	name string
	fn   func() float64
}

// AddGauge registers a named gauge evaluated at scrape time, for campaign
// state beyond the job counts (tlschaos's verdict tallies). Names are bare
// metric names; /metrics prefixes them with "tls_".
func (c *Coordinator) AddGauge(name string, fn func() float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gauges = append(c.gauges, gauge{name: name, fn: fn})
}

// noteRecentLocked records a settled job in the /progress ring.
func (c *Coordinator) noteRecentLocked(e *jobEntry, o Outcome) {
	rj := recentJob{Label: e.label(), Cached: o.Cached, Error: o.Err, Attempts: o.Attempts, WallMS: o.WallMS}
	if o.Err == "" {
		rj.ExecCycles = uint64(o.Result.ExecCycles)
	}
	if len(c.recent) < recentRing {
		c.recent = append(c.recent, rj)
		return
	}
	c.recent[c.recentNext] = rj
	c.recentNext = (c.recentNext + 1) % recentRing
}

// recentLocked returns the ring oldest-first.
func (c *Coordinator) recentLocked() []recentJob {
	out := make([]recentJob, 0, len(c.recent))
	out = append(out, c.recent[c.recentNext:]...)
	return append(out, c.recent[:c.recentNext]...)
}

// Snapshot returns the campaign's job accounting, the -metrics line. Every
// submission counts: a key submitted again (later in a batch, or in a later
// batch) is Deduped once its first submission succeeds, and an Error when
// it failed.
func (c *Coordinator) Snapshot() exp.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Coordinator) snapshotLocked() exp.Snapshot {
	s := exp.Snapshot{
		CacheHits:      int(c.ctr.cacheHits + c.ctr.resumeHits),
		Executed:       int(c.ctr.executed),
		Retries:        int(c.ctr.retries),
		Timeouts:       int(c.ctr.timeouts),
		CachePutErrors: int(c.ctr.cachePutErrors),
		JournalErrors:  int(c.ctr.journalErrors),
		SimCycles:      c.ctr.simCycles,
		JobWallMax:     time.Duration(c.ctr.maxWallMS) * time.Millisecond,
	}
	for _, e := range c.jobs {
		n := 1 + e.joins
		s.Total += n
		switch e.state {
		case jobDone:
			s.Done += n
			s.Deduped += e.joins
		case jobFailed:
			s.Done += n
			s.Errors += n
		}
	}
	if n := c.attempt.Count(); n > 0 {
		s.JobWallMean = time.Duration(float64(c.attempt.Sum()) / float64(n) * float64(time.Millisecond))
	}
	if !c.firstSubmit.IsZero() {
		s.Elapsed = c.now().Sub(c.firstSubmit)
	}
	if c.cfg.Cache != nil {
		heal := c.cfg.Cache.LastHeal()
		s.CacheQuarantined = heal.Quarantined
		s.CacheQuarantineErrors = heal.QuarantineFailures + heal.RemoveFailures
	}
	return s
}

// dashboard returns a mux serving /metrics, /progress (naming campaign) and
// an index page showing index.
func (c *Coordinator) dashboard(campaign, index string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", c.serveMetrics)
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) { c.serveProgress(w, campaign) })
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, index)
	})
	return mux
}

func (c *Coordinator) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.mu.Lock()
	c.sweepLocked()
	n := c.countsLocked()
	s := c.snapshotLocked()
	ctr := c.ctr
	runs := maps.Clone(c.runCounters)
	gauges := append([]gauge(nil), c.gauges...)
	// Render the phase-latency histograms while still holding mu (the
	// registry is single-goroutine by contract), emit after unlock.
	var phases bytes.Buffer
	c.phases.WritePrometheus(&phases, "tls_fleet_")
	spansCollected := len(c.fleetSpans)
	spansLost := c.spansLost
	c.mu.Unlock()

	obs.PromMetric(w, "tls_fleet_jobs_total", "gauge", float64(n.Total))
	obs.PromMetric(w, "tls_fleet_jobs_pending", "gauge", float64(n.Pending))
	obs.PromMetric(w, "tls_fleet_jobs_leased", "gauge", float64(n.Leased))
	obs.PromMetric(w, "tls_fleet_jobs_done", "gauge", float64(n.Done))
	obs.PromMetric(w, "tls_fleet_jobs_failed", "gauge", float64(n.Failed))
	obs.PromMetric(w, "tls_fleet_jobs_executed", "counter", float64(s.Executed))
	obs.PromMetric(w, "tls_fleet_job_retries", "counter", float64(s.Retries))
	obs.PromMetric(w, "tls_fleet_job_timeouts", "counter", float64(s.Timeouts))
	obs.PromMetric(w, "tls_fleet_job_wall_max_ms", "gauge", float64(s.JobWallMax.Milliseconds()))
	obs.PromMetric(w, "tls_fleet_sim_cycles", "counter", float64(s.SimCycles))
	obs.PromMetric(w, "tls_fleet_elapsed_seconds", "gauge", s.Elapsed.Seconds())
	obs.PromMetric(w, "tls_fleet_leases_active", "gauge", float64(n.ActiveLeases))
	obs.PromMetric(w, "tls_fleet_workers", "gauge", float64(n.Workers))
	obs.PromMetric(w, "tls_fleet_leases_granted", "counter", float64(ctr.leasesGranted))
	obs.PromMetric(w, "tls_fleet_leases_expired", "counter", float64(ctr.leasesExpired))
	obs.PromMetric(w, "tls_fleet_leases_returned", "counter", float64(ctr.leasesReturned))
	obs.PromMetric(w, "tls_fleet_steals", "counter", float64(ctr.steals))
	obs.PromMetric(w, "tls_fleet_dedupe_hits", "counter", float64(ctr.dedupeHits))
	obs.PromMetric(w, "tls_fleet_cache_hits", "counter", float64(ctr.cacheHits))
	obs.PromMetric(w, "tls_fleet_resume_hits", "counter", float64(ctr.resumeHits))
	obs.PromMetric(w, "tls_fleet_dup_results", "counter", float64(ctr.dupResults))
	obs.PromMetric(w, "tls_fleet_crc_rejected", "counter", float64(ctr.crcRejected))
	obs.PromMetric(w, "tls_fleet_requeues", "counter", float64(ctr.requeues))
	obs.PromMetric(w, "tls_fleet_journal_errors", "counter", float64(ctr.journalErrors))
	obs.PromMetric(w, "tls_fleet_cache_put_errors", "counter", float64(ctr.cachePutErrors))
	obs.PromMetric(w, "tls_fleet_cache_quarantined", "counter", float64(s.CacheQuarantined))
	obs.PromMetric(w, "tls_fleet_cache_quarantine_errors", "counter", float64(s.CacheQuarantineErrors))
	obs.PromMetric(w, "tls_fleet_workers_quarantined", "gauge", float64(n.Quarantined))
	obs.PromMetric(w, "tls_fleet_shed_submits", "counter", float64(ctr.shedSubmits))
	obs.PromMetric(w, "tls_fleet_spec_rejects", "counter", float64(ctr.specRejects))
	obs.PromMetric(w, "tls_fleet_breaker_opens", "counter", float64(ctr.breakerOpens))
	obs.PromMetric(w, "tls_fleet_breaker_probations", "counter", float64(ctr.breakerProbations))
	obs.PromMetric(w, "tls_fleet_breaker_closes", "counter", float64(ctr.breakerCloses))
	obs.PromMetric(w, "tls_fleet_spans_collected", "gauge", float64(spansCollected))
	obs.PromMetric(w, "tls_fleet_spans_lost", "counter", float64(spansLost))
	w.Write(phases.Bytes())

	for _, g := range gauges {
		obs.PromMetric(w, "tls_"+g.name, "gauge", g.fn())
	}
	// Settled runs' obs counters, sorted for a stable scrape.
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		obs.PromMetric(w, "tls_run_"+name, "counter", float64(runs[name]))
	}
}

// progressWorker is one worker's row in the /progress document.
type progressWorker struct {
	Name         string `json:"name"`
	LastSeenMS   int64  `json:"last_seen_ms"`
	ActiveLeases int    `json:"active_leases"`
	Completed    int    `json:"completed"`
	// Breaker is "open" or "probation" when the worker is quarantined or
	// probing its way back in; omitted for a healthy (closed) breaker.
	Breaker string `json:"breaker,omitempty"`
}

// fleetProgress is the /progress JSON document.
type fleetProgress struct {
	Campaign       string           `json:"campaign"`
	Total          int              `json:"total"`
	Pending        int              `json:"pending"`
	Leased         int              `json:"leased"`
	Done           int              `json:"done"`
	Failed         int              `json:"failed"`
	Executed       int              `json:"executed"`
	Retries        int              `json:"retries"`
	Timeouts       int              `json:"timeouts"`
	SimCycles      uint64           `json:"sim_cycles"`
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	ActiveLeases   int              `json:"active_leases"`
	LeasesGranted  uint64           `json:"leases_granted"`
	LeasesExpired  uint64           `json:"leases_expired"`
	Steals         uint64           `json:"steals"`
	DedupeHits     uint64           `json:"dedupe_hits"`
	CacheHits      uint64           `json:"cache_hits"`
	ResumeHits     uint64           `json:"resume_hits"`
	DupResults     uint64           `json:"dup_results"`
	Workers        []progressWorker `json:"workers"`
	// Summary is the -metrics line; Recent the latest settled jobs,
	// oldest first.
	Summary string      `json:"summary"`
	Recent  []recentJob `json:"recent"`
}

func (c *Coordinator) serveProgress(w http.ResponseWriter, campaign string) {
	c.mu.Lock()
	c.sweepLocked()
	n := c.countsLocked()
	s := c.snapshotLocked()
	now := c.now()
	view := fleetProgress{
		Campaign: campaign,
		Total:    n.Total, Pending: n.Pending, Leased: n.Leased,
		Done: n.Done, Failed: n.Failed,
		Executed: s.Executed, Retries: s.Retries, Timeouts: s.Timeouts,
		SimCycles: s.SimCycles, ElapsedSeconds: s.Elapsed.Seconds(),
		ActiveLeases:  n.ActiveLeases,
		LeasesGranted: c.ctr.leasesGranted, LeasesExpired: c.ctr.leasesExpired,
		Steals: c.ctr.steals, DedupeHits: c.ctr.dedupeHits, CacheHits: c.ctr.cacheHits,
		ResumeHits: c.ctr.resumeHits, DupResults: c.ctr.dupResults,
		Summary: s.String(),
		Recent:  c.recentLocked(),
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := c.workers[name]
		active := 0
		for _, l := range c.leases {
			if l.worker == name {
				active++
			}
		}
		row := progressWorker{
			Name:         name,
			LastSeenMS:   now.Sub(ws.lastSeen).Milliseconds(),
			ActiveLeases: active,
			Completed:    ws.completed,
		}
		if ws.brk.phase != breakerClosed {
			row.Breaker = ws.brk.phase.String()
		}
		view.Workers = append(view.Workers, row)
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(view)
}
