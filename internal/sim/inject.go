package sim

import (
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/memsys"
)

// FaultInjector is the seam through which a fault plan (internal/fault)
// perturbs a run. Each method is one named hook point; the simulator calls
// them in a deterministic order, so an injector drawing decisions from a
// seeded stream makes the whole faulty run replayable. With no injector
// installed every hook site is a nil check and the simulation is identical
// to one built without fault support.
type FaultInjector interface {
	// SpuriousSquash decides whether a conflict-free write should deliver a
	// violation message anyway.
	SpuriousSquash() bool
	// MessageDelay returns extra latency for the current remote transfer or
	// memory round trip (0 = on time).
	MessageDelay() event.Time
	// ForceOverflow decides whether a cache insert that found a free way
	// must victimize a resident line anyway (capacity theft).
	ForceOverflow() bool
	// CommitStall returns extra cycles the current commit holds the token.
	CommitStall() event.Time
	// FlipTag decides whether to corrupt a cached version tag after the
	// current store — deliberate corruption used to validate the invariant
	// checker, not survivable stress.
	FlipTag() bool
	// Pick chooses a fault target index in [0, n).
	Pick(n int) int
}

// InjectFaults installs a fault injector. Call before Run; a nil injector
// is a no-op.
func (s *Simulator) InjectFaults(fi FaultInjector) {
	if fi == nil {
		return
	}
	s.inject = fi
	for _, p := range s.procs {
		p.l2.SetPressure(fi.ForceOverflow)
	}
	s.dir.SetSpuriousConflict(func(readers []ids.TaskID) ids.TaskID {
		if !fi.SpuriousSquash() {
			return ids.None
		}
		// Never pick the commit-token holder: a finishCommit event may
		// already be in flight for it, and a genuine out-of-order RAW cannot
		// hit it either (no uncommitted predecessor writer exists).
		head := s.order.Head()
		for _, r := range readers {
			if !r.After(head) {
				continue
			}
			if t := s.tasks[r]; t != nil && t.state != taskCommitted {
				return r
			}
		}
		return ids.None
	})
}

// faultDelay returns injected extra transfer latency (0 with no injector).
func (s *Simulator) faultDelay() event.Time {
	if s.inject == nil {
		return 0
	}
	return s.inject.MessageDelay()
}

// maybeFlipTag corrupts the producer tag of one dirty line in p's L2 when
// the injector fires. The flip prefers an earlier task ID (the corrupted
// version then poses as older — committed or architectural — state), which
// a correct protocol can neither absorb nor repair: the invariant checker
// or the final-memory verification must flag the run.
func (s *Simulator) maybeFlipTag(p *processor) {
	if s.inject == nil || !s.inject.FlipTag() {
		return
	}
	var dirty []*memsys.Line
	p.l2.ForEach(func(l *memsys.Line) {
		if l.Dirty() {
			dirty = append(dirty, l)
		}
	})
	if len(dirty) == 0 {
		return
	}
	l := dirty[s.inject.Pick(len(dirty))]
	if l.Producer > ids.First {
		p.l2.SetProducer(l, l.Producer-1)
	} else {
		p.l2.SetProducer(l, l.Producer+1)
	}
}
