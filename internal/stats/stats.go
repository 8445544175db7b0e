// Package stats provides the time-breakdown accounting of the evaluation:
// per-processor execution time split into busy and stall categories
// (Figures 9-11 report Busy and Stall; we keep the stall sub-categories for
// analysis), and time-weighted samplers for quantities like the number of
// co-existing speculative tasks (Figure 1).
package stats

import "repro/internal/event"

// Breakdown is one processor's (or the aggregate) account of where cycles
// went. The sum of all fields equals wall-clock time for a processor that
// existed for the whole run.
type Breakdown struct {
	// Busy is instruction execution (including pipeline hazards folded into
	// the CPI) and the portion of memory access the core overlaps. Work
	// that is later squashed still counts as Busy — it occupied the core.
	Busy event.Time
	// StallMem is time stalled on memory accesses (cache misses, remote
	// fetches, overflow-area retrievals).
	StallMem event.Time
	// StallTask is stall due to insufficient task/version support: a
	// SingleT processor waiting for the commit token, or a MultiT&SV
	// processor waiting to create a second local version.
	StallTask event.Time
	// StallCommit is time a SingleT processor spends performing its own
	// eager merge (MultiT schemes merge in background hardware).
	StallCommit event.Time
	// StallRecovery is time spent in squash recovery (gang invalidation or
	// the FMM software log walk).
	StallRecovery event.Time
	// StallIdle is end-of-section idling: the commit wavefront outlasting
	// execution, or load-imbalance tail where no tasks remain to run.
	StallIdle event.Time
}

// Total returns the sum of all categories.
func (b Breakdown) Total() event.Time {
	return b.Busy + b.StallMem + b.StallTask + b.StallCommit + b.StallRecovery + b.StallIdle
}

// Stall returns the total non-busy time — the "Stall" component of the
// figures.
func (b Breakdown) Stall() event.Time {
	return b.Total() - b.Busy
}

// Add accumulates other into b.
func (b *Breakdown) Add(other Breakdown) {
	b.Busy += other.Busy
	b.StallMem += other.StallMem
	b.StallTask += other.StallTask
	b.StallCommit += other.StallCommit
	b.StallRecovery += other.StallRecovery
	b.StallIdle += other.StallIdle
}

// Sum aggregates a set of per-processor breakdowns.
func Sum(bs []Breakdown) Breakdown {
	var out Breakdown
	for _, b := range bs {
		out.Add(b)
	}
	return out
}

// BusyFraction returns Busy/Total in [0,1], or 0 for an empty breakdown.
func (b Breakdown) BusyFraction() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Busy) / float64(t)
}

// Sampler computes the time-weighted average of an integer quantity, e.g.
// the number of speculative tasks co-existing in the system.
type Sampler struct {
	last     event.Time
	level    int
	weighted float64
	started  bool
}

// Observe records that the quantity has value level from time now onward.
// Observations arriving with a timestamp earlier than the previous one
// (processors run ahead within bounded quanta) are clamped to zero-length
// intervals.
func (s *Sampler) Observe(now event.Time, level int) {
	if s.started && now > s.last {
		s.weighted += float64(s.level) * float64(now-s.last)
		s.last = now
	} else if !s.started {
		s.last = now
	}
	s.level = level
	s.started = true
}

// Mean returns the time-weighted mean over [first observation, end].
func (s *Sampler) Mean(end event.Time) float64 {
	if !s.started || end <= s.last {
		if end == s.last && s.weighted > 0 {
			// Fall through to the closed-form below with zero tail.
		} else if !s.started {
			return 0
		}
	}
	total := s.weighted
	horizon := event.Time(0)
	if end > s.last {
		total += float64(s.level) * float64(end-s.last)
	}
	// The horizon is from time 0 (simulation start) to end.
	horizon = end
	if horizon == 0 {
		return 0
	}
	return total / float64(horizon)
}

// Counter is a named monotonically increasing count.
type Counter struct {
	n uint64
}

// Inc adds delta.
func (c *Counter) Inc(delta uint64) { c.n += delta }

// Value returns the count.
func (c *Counter) Value() uint64 { return c.n }

// Mean of a float64 accumulator.
type Mean struct {
	sum float64
	n   int
}

// Observe adds a sample.
func (m *Mean) Observe(v float64) { m.sum += v; m.n++ }

// Value returns the mean (0 when empty).
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Count returns the number of samples.
func (m *Mean) Count() int { return m.n }

// Tally accumulates count, sum, min and max of a float64 quantity — the
// experiment orchestrator uses it for per-job wall times.
type Tally struct {
	n        int
	sum      float64
	min, max float64
}

// Observe adds a sample.
func (t *Tally) Observe(v float64) {
	if t.n == 0 || v < t.min {
		t.min = v
	}
	if t.n == 0 || v > t.max {
		t.max = v
	}
	t.n++
	t.sum += v
}

// Count returns the number of samples.
func (t *Tally) Count() int { return t.n }

// Sum returns the sample sum.
func (t *Tally) Sum() float64 { return t.sum }

// Mean returns the sample mean (0 when empty).
func (t *Tally) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// Min returns the smallest sample (0 when empty).
func (t *Tally) Min() float64 { return t.min }

// Max returns the largest sample (0 when empty).
func (t *Tally) Max() float64 { return t.max }
