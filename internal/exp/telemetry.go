package exp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Telemetry serves live campaign state over HTTP while a sweep runs: a
// Prometheus-text /metrics endpoint (orchestration counters from Metrics,
// caller-registered gauges, and aggregated per-run obs registries) and a
// JSON /progress view with the most recent job outcomes. It is the
// machinery behind the campaign CLIs' -listen flag.
//
// The server observes but never steers: simulations remain deterministic
// whether or not anyone is scraping. All methods are safe for concurrent
// use; the zero value (plus Name/Metrics) is ready to Start.
type Telemetry struct {
	// Name identifies the campaign ("tlssweep", "tlsreport", "tlschaos").
	Name string
	// Metrics, when non-nil, supplies the orchestration counters.
	Metrics *Metrics

	mu      sync.Mutex
	gauges  []telemetryGauge
	runSums map[string]uint64 // aggregated per-run obs counter totals
	recent  []RecentJob       // ring of the latest finished jobs
	next    int               // ring write cursor
	seen    int               // total jobs observed
	ln      net.Listener
	srv     *http.Server
}

// telemetryRecent is the /progress ring size: enough to see what the pool
// is chewing on without unbounded growth on long campaigns.
const telemetryRecent = 32

type telemetryGauge struct {
	name string
	fn   func() float64
}

// RecentJob is one entry of the /progress recent-jobs ring.
type RecentJob struct {
	Label      string `json:"label"`
	Cached     bool   `json:"cached,omitempty"`
	Error      string `json:"error,omitempty"`
	Attempts   int    `json:"attempts,omitempty"`
	WallMS     int64  `json:"wall_ms"`
	ExecCycles uint64 `json:"exec_cycles"`
}

// AddGauge registers a named gauge evaluated at scrape time, for campaign
// state beyond the job counters (tlschaos's verdict tallies). Names should
// be bare metric names; /metrics prefixes them with "tls_".
func (t *Telemetry) AddGauge(name string, fn func() float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gauges = append(t.gauges, telemetryGauge{name: name, fn: fn})
}

// ObserveJob records a finished job for /progress and folds any observed
// run's obs counters into the aggregated /metrics totals. Chain it into the
// executor's Progress hook.
func (t *Telemetry) ObserveJob(jr JobResult) {
	rj := RecentJob{
		Label:    jr.Job.Label(),
		Cached:   jr.Cached,
		Attempts: jr.Attempts,
		WallMS:   jr.Wall.Milliseconds(),
	}
	if jr.Err != nil {
		rj.Error = jr.Err.Error()
	} else {
		rj.ExecCycles = uint64(jr.Result.ExecCycles)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen++
	if len(t.recent) < telemetryRecent {
		t.recent = append(t.recent, rj)
	} else {
		t.recent[t.next] = rj
		t.next = (t.next + 1) % telemetryRecent
	}
	if jr.Job.Obs != nil {
		t.aggregateLocked(jr.Job.Obs.Registry)
	}
}

// ObserveRun folds one run's obs registry into the aggregated per-run
// counter totals exposed on /metrics, for callers that run simulators
// outside an executor.
func (t *Telemetry) ObserveRun(reg *obs.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aggregateLocked(reg)
}

func (t *Telemetry) aggregateLocked(reg *obs.Registry) {
	if reg == nil {
		return
	}
	if t.runSums == nil {
		t.runSums = make(map[string]uint64)
	}
	for _, name := range reg.CounterNames() {
		t.runSums[name] += reg.CounterValue(name)
	}
}

// Handler returns the HTTP handler serving /metrics and /progress.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", t.serveMetrics)
	mux.HandleFunc("/progress", t.serveProgress)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "%s campaign telemetry: /metrics (Prometheus text), /progress (JSON)\n", t.Name)
	})
	return mux
}

func (t *Telemetry) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var s Snapshot
	if t.Metrics != nil {
		s = t.Metrics.Snapshot()
	}
	// Orchestration counters, in a fixed order. Every value is finite by
	// construction: ETA and CyclesPerSecond guard their divisions.
	obs.PromMetric(w, "tls_jobs_total", "gauge", float64(s.Total))
	obs.PromMetric(w, "tls_jobs_done", "gauge", float64(s.Done))
	obs.PromMetric(w, "tls_jobs_remaining", "gauge", float64(s.Remaining()))
	obs.PromMetric(w, "tls_cache_hits", "counter", float64(s.CacheHits))
	obs.PromMetric(w, "tls_jobs_deduped", "counter", float64(s.Deduped))
	obs.PromMetric(w, "tls_jobs_executed", "counter", float64(s.Executed))
	obs.PromMetric(w, "tls_job_errors", "counter", float64(s.Errors))
	obs.PromMetric(w, "tls_job_retries", "counter", float64(s.Retries))
	obs.PromMetric(w, "tls_job_timeouts", "counter", float64(s.Timeouts))
	obs.PromMetric(w, "tls_cache_put_errors", "counter", float64(s.CachePutErrors))
	obs.PromMetric(w, "tls_journal_errors", "counter", float64(s.JournalErrors))
	obs.PromMetric(w, "tls_cache_quarantined", "counter", float64(s.CacheQuarantined))
	obs.PromMetric(w, "tls_cache_quarantine_errors", "counter", float64(s.CacheQuarantineErrors))
	obs.PromMetric(w, "tls_sim_cycles_total", "counter", float64(s.SimCycles))
	obs.PromMetric(w, "tls_sim_cycles_per_second", "gauge", s.CyclesPerSecond())
	obs.PromMetric(w, "tls_elapsed_seconds", "gauge", s.Elapsed.Seconds())
	obs.PromMetric(w, "tls_eta_seconds", "gauge", s.ETA().Seconds())

	t.mu.Lock()
	gauges := append([]telemetryGauge(nil), t.gauges...)
	sums := make(map[string]uint64, len(t.runSums))
	for k, v := range t.runSums {
		sums[k] = v
	}
	t.mu.Unlock()

	for _, g := range gauges {
		obs.PromMetric(w, "tls_"+g.name, "gauge", g.fn())
	}
	// Aggregated per-run obs counters, sorted for a stable scrape.
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		obs.PromMetric(w, "tls_run_"+name, "counter", float64(sums[name]))
	}
}

// progressView is the /progress JSON document.
type progressView struct {
	Campaign        string      `json:"campaign"`
	Total           int         `json:"total"`
	Done            int         `json:"done"`
	Remaining       int         `json:"remaining"`
	CacheHits       int         `json:"cache_hits"`
	Deduped         int         `json:"deduped"`
	Executed        int         `json:"executed"`
	Errors          int         `json:"errors"`
	Retries         int         `json:"retries"`
	Timeouts        int         `json:"timeouts"`
	ElapsedSeconds  float64     `json:"elapsed_seconds"`
	ETASeconds      float64     `json:"eta_seconds"`
	SimCycles       uint64      `json:"sim_cycles"`
	CyclesPerSecond float64     `json:"cycles_per_second"`
	Summary         string      `json:"summary"`
	Recent          []RecentJob `json:"recent"`
}

func (t *Telemetry) serveProgress(w http.ResponseWriter, _ *http.Request) {
	var s Snapshot
	if t.Metrics != nil {
		s = t.Metrics.Snapshot()
	}
	t.mu.Lock()
	// Oldest-first: the ring cursor marks the oldest entry once full.
	recent := make([]RecentJob, 0, len(t.recent))
	recent = append(recent, t.recent[t.next:]...)
	recent = append(recent, t.recent[:t.next]...)
	t.mu.Unlock()

	view := progressView{
		Campaign: t.Name, Total: s.Total, Done: s.Done, Remaining: s.Remaining(),
		CacheHits: s.CacheHits, Deduped: s.Deduped, Executed: s.Executed, Errors: s.Errors,
		Retries: s.Retries, Timeouts: s.Timeouts,
		ElapsedSeconds:  s.Elapsed.Seconds(),
		ETASeconds:      s.ETA().Seconds(),
		SimCycles:       s.SimCycles,
		CyclesPerSecond: s.CyclesPerSecond(),
		Summary:         s.String(),
		Recent:          recent,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(view)
}

// Start binds addr (":0" picks a free port) and serves in the background,
// returning the bound address for log lines and tests.
func (t *Telemetry) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	t.ln = ln
	t.srv = &http.Server{Handler: t.Handler(), ReadHeaderTimeout: 5 * time.Second}
	srv := t.srv
	t.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Stop closes the listener and any in-flight connections. Safe to call
// without a prior Start.
func (t *Telemetry) Stop() {
	t.mu.Lock()
	srv := t.srv
	t.srv, t.ln = nil, nil
	t.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}
