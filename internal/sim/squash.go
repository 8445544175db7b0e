package sim

import (
	"cmp"
	"slices"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/memsys"
)

// squashFrom handles a detected out-of-order RAW: the offending reader and
// every uncommitted successor are squashed, their polluted state is
// repaired, and they restart after recovery completes. word and writer name
// the cause — the violated word and the task whose write exposed the RAW —
// and flow into the trace's squash attribution and the obs wasted-cycles
// accounting; they do not influence timing.
//
// Recovery cost is where AMM and FMM differ most (Section 3.3.4): AMM
// recovery gang-invalidates the squashed speculative versions from the
// MROB (cheap, parallel across processors); FMM recovery runs a software
// handler that walks the distributed MHB and copies every overwritten
// version back to main memory in strict reverse task order (serialized
// across processors).
func (s *Simulator) squashFrom(first ids.TaskID, now event.Time, word memsys.Addr, writer ids.TaskID) {
	s.squashEvents++

	// Collect the victims: every uncommitted task at or after first,
	// grouped per processor, in deterministic ID order. The per-processor
	// lists are scratch reused across squashes.
	perProc := s.squashScratch
	for i := range perProc {
		perProc[i] = perProc[i][:0]
	}
	for id, t := range s.tasks {
		if !id.Before(first) && t.state != taskCommitted {
			perProc[t.proc] = append(perProc[t.proc], t)
		}
	}
	squashed := s.squashedIDs[:0]
	for _, victims := range perProc {
		for i := 1; i < len(victims); i++ {
			for j := i; j > 0 && victims[j].id.Before(victims[j-1].id); j-- {
				victims[j], victims[j-1] = victims[j-1], victims[j]
			}
		}
		for _, t := range victims {
			squashed = append(squashed, t.id)
		}
	}
	s.squashedIDs = squashed

	for pi, victims := range perProc {
		p := s.procs[pi]
		for _, t := range victims {
			s.tasksSquashed++
			t.squashCount++
			s.dir.Squash(t.id)
			// Attribution: cycles of discarded execution. A finished victim
			// wasted its whole run; a running victim wasted up to its
			// processor's local time (>= startedAt by construction); a victim
			// already sitting squashed in the redo queue did no new work.
			var wasted event.Time
			switch t.state {
			case taskFinished:
				wasted = t.finishedAt - t.startedAt
			case taskRunning:
				wasted = p.lastTime - t.startedAt
			}
			s.traceSquash(now, t, word, writer, wasted)
			s.obs.taskSquashed(wasted, t.id, writer)
			t.reset()
			t.state = taskSquashed
			if p.cur == t {
				p.cur = nil
			}
			p.pushRedo(t)
			if s.pf != nil {
				// Re-request the stream so the re-dispatch after recovery
				// finds it pregenerated.
				s.pf.redo(t.index)
			}
		}
	}

	// Stale copies of squashed versions anywhere in the system are purged
	// (the squash protocol's invalidations; their latency is folded into
	// the recovery delay below).
	for _, p := range s.procs {
		purge := func(l *memsys.Line) bool {
			return l.Producer != ids.None && !l.Producer.Before(first) && l.Kind == memsys.KindCopy
		}
		p.l1.InvalidateWhere(func(l *memsys.Line) bool {
			return l.Producer != ids.None && !l.Producer.Before(first)
		})
		p.l2.InvalidateWhere(purge)
	}

	// Repair the squashed versions and compute the restart time.
	restart := now + s.cfg.SquashMsg
	if s.scheme.UsesUndoLog() {
		// FMM: the log walks run serially in reverse task order across the
		// distributed MHBs (undo entries of different processors interleave
		// in task order), so the handler times add up. The pops are per
		// processor, but the restores must be applied globally youngest-
		// overwriter-first: when squashed tasks on different processors
		// overwrote the same line, a per-processor walk can finish by
		// re-instating a squashed version that an earlier walk had already
		// undone.
		undo := s.undoScratch[:0]
		var serial event.Time
		for pi, victims := range perProc {
			if len(victims) == 0 {
				continue
			}
			p := s.procs[pi]
			n := len(undo)
			undo = p.mhb.PopForRecovery(undo, victims[0].id)
			serial += s.cfg.FMMRestoreFixed + event.Time(len(undo)-n)*s.cfg.FMMRestoreLine
			s.invalidateVersions(p, victims, squashed)
		}
		restoreOrder(undo)
		for _, e := range undo {
			s.mem.Restore(e.Tag, e.Producer)
		}
		s.checkRecovery(first, undo, now)
		s.undoScratch = undo
		restart += serial
	} else {
		// AMM: gang-invalidate the MROB entries, processors in parallel.
		var worst event.Time
		for pi, victims := range perProc {
			if len(victims) == 0 {
				continue
			}
			lines := s.invalidateVersions(s.procs[pi], victims, squashed)
			if d := event.Time(lines) * s.cfg.AMMInvalidate; d > worst {
				worst = d
			}
		}
		restart += worst
	}

	// Stall the affected processors until recovery completes.
	for pi, victims := range perProc {
		if len(victims) == 0 {
			continue
		}
		p := s.procs[pi]
		p.blockedUntil = restart
		s.wake(p, restart)
	}
}

// restoreOrder sorts the undo records popped from every processor's MHB
// into the global restore order: youngest overwriter first, equal
// overwriters keeping their order in undo (their per-processor pop order).
// Each processor's records arrive youngest first, so undo is a
// concatenation of descending runs; the stable sort makes no use of that and
// costs O(n log n) comparisons whatever the runs look like.
func restoreOrder(undo []memsys.LogEntry) {
	slices.SortStableFunc(undo, func(a, b memsys.LogEntry) int {
		return cmp.Compare(b.Overwriter, a.Overwriter)
	})
}

// invalidateVersions removes the cached and overflowed versions produced by
// the squashed tasks on processor p, returning how many lines were touched.
// victims are p's own squashed tasks and squashed every processor's: the
// L2 walk goes through the producer index for all of them, because a
// corrupted tag (fault injection) can leave another processor's victim's
// ID on one of p's versions, and every version of a squashed task goes.
func (s *Simulator) invalidateVersions(p *processor, victims []*task, squashed []ids.TaskID) int {
	n := p.l2.InvalidateOwnVersions(squashed)
	for _, t := range victims {
		n += p.ovf.DropTask(t.id)
	}
	return n
}
