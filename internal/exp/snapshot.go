package exp

import (
	"fmt"
	"time"
)

// Snapshot is a point-in-time view of a campaign's job accounting: the
// shape of the -metrics summary line and the dashboard's /progress summary.
// The campaign's coordinator (cluster.Coordinator) is the only store of
// these counts; a Snapshot is just their value.
type Snapshot struct {
	// Job counts: Done = CacheHits + Deduped + Executed + Errors.
	Total, Done, CacheHits, Executed, Errors, Retries int
	// Deduped counts successful submissions that joined an identical job
	// already submitted to the campaign (earlier in the same batch, or in an
	// earlier batch) instead of running themselves.
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
	// Elapsed is the wall time since the first job was submitted.
	Elapsed time.Duration
	// JobWallMean and JobWallMax summarize execution wall times.
	JobWallMean, JobWallMax time.Duration
	// SimCycles is the total simulated cycles of executed jobs.
	SimCycles uint64
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
