package exp

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
)

// Metrics accumulates orchestration statistics across every batch executed
// with it: job counts, cache hits, per-job wall times, simulated-
// cycle throughput, and an ETA. The zero value is ready to use; all methods
// are safe for concurrent use.
type Metrics struct {
	mu          sync.Mutex
	start       time.Time
	total       int
	done        int
	hits        int
	deduped     int
	executed    int
	errors      int
	retries     int
	timeouts    int
	putErrors   int
	journalErrs int
	heal        HealReport
	wall        stats.Tally // per-executed-job wall time, seconds
	simCycles   uint64
}

// Queue records that n more jobs have been submitted.
func (m *Metrics) Queue(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.start.IsZero() {
		m.start = time.Now()
	}
	m.total += n
}

// Observe records one finished job (executed, cached, deduped or failed).
func (m *Metrics) Observe(jr JobResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done++
	switch {
	case jr.Err != nil:
		m.errors++
		if jr.TimedOut {
			m.timeouts++
		}
	case jr.Cached:
		m.hits++
	case jr.Deduped:
		m.deduped++
	default:
		m.executed++
		m.wall.Observe(jr.Wall.Seconds())
		m.simCycles += uint64(jr.Result.ExecCycles)
	}
	if jr.Attempts > 1 {
		m.retries += jr.Attempts - 1
	}
}

// AddWriteErrors records cache writes and WAL appends that could not be
// persisted (a full disk, an unwritable cache directory, a poisoned
// journal). The campaign continues and its results are unaffected, but a
// crash before the next successful append loses progress, so the counts
// must be visible.
func (m *Metrics) AddWriteErrors(cachePut, journal int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putErrors += cachePut
	m.journalErrs += journal
}

// ObserveHeal folds the cache's latest self-healing scan into the metrics
// (idempotent: the report replaces the previous one).
func (m *Metrics) ObserveHeal(rep HealReport) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.heal = rep
}

// Snapshot is a point-in-time view of a Metrics.
type Snapshot struct {
	// Job counts: Done = CacheHits + Deduped + Executed + Errors.
	Total, Done, CacheHits, Executed, Errors, Retries int
	// Deduped counts successful jobs that shared an identical job's
	// execution earlier in the same batch instead of running themselves.
	Deduped int
	// Timeouts counts the watchdog-cancelled jobs among the errors.
	Timeouts int
	// CachePutErrors counts results that could not be persisted to the
	// cache (e.g. a full disk); the results themselves were still used.
	CachePutErrors int
	// JournalErrors counts WAL appends that could not be persisted (a full
	// disk, or a journal poisoned by a failed fsync).
	JournalErrors int
	// CacheQuarantined and CacheQuarantineErrors report the startup heal
	// scan: corrupt entries set aside, and corrupt entries that could not
	// even be renamed aside.
	CacheQuarantined, CacheQuarantineErrors int
	// Elapsed is the wall time since the first batch was queued.
	Elapsed time.Duration
	// JobWallMean and JobWallMax summarize per-executed-job wall times.
	JobWallMean, JobWallMax time.Duration
	// SimCycles is the total simulated cycles of executed jobs.
	SimCycles uint64
}

// Snapshot returns the current state.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Total: m.total, Done: m.done, CacheHits: m.hits, Deduped: m.deduped,
		Executed: m.executed, Errors: m.errors, Retries: m.retries,
		Timeouts:              m.timeouts,
		CachePutErrors:        m.putErrors,
		JournalErrors:         m.journalErrs,
		CacheQuarantined:      m.heal.Quarantined,
		CacheQuarantineErrors: m.heal.QuarantineFailures + m.heal.RemoveFailures,
		SimCycles:             m.simCycles,
	}
	if !m.start.IsZero() {
		s.Elapsed = time.Since(m.start)
	}
	if m.wall.Count() > 0 {
		s.JobWallMean = time.Duration(m.wall.Mean() * float64(time.Second))
		s.JobWallMax = time.Duration(m.wall.Max() * float64(time.Second))
	}
	return s
}

// Remaining returns how many submitted jobs have not finished.
func (s Snapshot) Remaining() int { return s.Total - s.Done }

// ETA estimates the time to drain the remaining jobs at the observed rate
// (0 when nothing has finished yet).
func (s Snapshot) ETA() time.Duration {
	if s.Done == 0 || s.Remaining() <= 0 {
		return 0
	}
	return time.Duration(float64(s.Elapsed) / float64(s.Done) * float64(s.Remaining()))
}

// CyclesPerSecond is the simulated-cycle throughput of the run so far.
func (s Snapshot) CyclesPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.SimCycles) / s.Elapsed.Seconds()
}

// String renders the one-line summary the -metrics flag prints.
func (s Snapshot) String() string {
	line := fmt.Sprintf("metrics: %d/%d jobs (%d cached, %d simulated, %d errors",
		s.Done, s.Total, s.CacheHits, s.Executed, s.Errors)
	if s.Deduped > 0 {
		line += fmt.Sprintf(", %d deduped", s.Deduped)
	}
	if s.Retries > 0 {
		line += fmt.Sprintf(", %d retries", s.Retries)
	}
	if s.Timeouts > 0 {
		line += fmt.Sprintf(", %d timeouts", s.Timeouts)
	}
	if s.CachePutErrors > 0 {
		line += fmt.Sprintf(", %d cache-put errors", s.CachePutErrors)
	}
	if s.JournalErrors > 0 {
		line += fmt.Sprintf(", %d journal errors", s.JournalErrors)
	}
	if s.CacheQuarantined > 0 {
		line += fmt.Sprintf(", %d cache entries quarantined", s.CacheQuarantined)
	}
	if s.CacheQuarantineErrors > 0 {
		line += fmt.Sprintf(", %d cache quarantine errors", s.CacheQuarantineErrors)
	}
	line += fmt.Sprintf("), %s simulated at %s/s, job wall mean %s max %s, elapsed %s",
		siCycles(float64(s.SimCycles)), siCycles(s.CyclesPerSecond()),
		s.JobWallMean.Round(time.Millisecond), s.JobWallMax.Round(time.Millisecond),
		s.Elapsed.Round(time.Millisecond))
	if r := s.Remaining(); r > 0 {
		line += fmt.Sprintf(", %d remaining (eta %s)", r, s.ETA().Round(time.Second))
	}
	return line
}

// siCycles formats a cycle count with an SI prefix.
func siCycles(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2f Gcycles", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2f Mcycles", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2f Kcycles", v/1e3)
	default:
		return fmt.Sprintf("%.0f cycles", v)
	}
}
