package sim

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/memsys"
)

// This file is the runtime protocol checker: an optional observer that
// validates the buffering invariants the paper's argument rests on at every
// commit, squash-recovery, and merge event, while the section is running —
// localizing a protocol bug to the event that broke the invariant instead
// of a corrupt final memory image. Violations are collected as structured
// reports, never panics: fault campaigns need the run to finish so the
// report can say which injected fault sequence broke what.
//
// The rules, by event:
//
//	commit        commit-order      only the token holder commits
//	              commit-state      the committing task has finished executing
//	              own-index         the L2's producer index, which the commit
//	                                walks, matches a full scan of the cache
//	              unmerged-version  no speculative line of the task survives its commit
//	              unmerged-overflow no overflowed version of the task survives its commit
//	              foreign-version   no other processor holds dirty state of the task
//	merge         spec-escape       under AMM, only committed (or currently
//	                                committing) versions reach main memory
//	              merge-order       without MTID, memory versions only move forward
//	              dup-committed     after a VCL merge, at most one committed
//	                                version of the line remains cached
//	squash (FMM)  undo-entry        every undo record's saved producer precedes
//	                                its overwriter, and the overwriter is squashed
//	              undo-memory       after recovery, memory holds no squashed version
//	                                of a restored line
//	section end   leftover-spec     no speculative line survives the section
//	              leftover-overflow the overflow areas end empty
//	              leftover-undo     the undo logs end empty
type InvariantViolation struct {
	Rule   string
	Cycle  event.Time
	Task   ids.TaskID
	Line   memsys.LineAddr
	Detail string
}

func (v InvariantViolation) String() string {
	return fmt.Sprintf("[%s] cycle %d %v line %#x: %s", v.Rule, uint64(v.Cycle), v.Task, uint64(v.Line), v.Detail)
}

// invariantSampleCap bounds how many violation samples are retained; the
// count keeps going past it.
const invariantSampleCap = 64

type invariantChecker struct {
	samples []InvariantViolation
	total   int
}

// EnableInvariantChecks turns the runtime protocol checker on. Call before
// Run. The checker only observes — timing and results are unchanged — so it
// composes with fault injection to distinguish "survived the faults" from
// "silently corrupted state".
func (s *Simulator) EnableInvariantChecks() {
	s.inv = &invariantChecker{}
}

// InvariantViolationCount returns how many violations the checker saw
// (0 when the checker is off).
func (s *Simulator) InvariantViolationCount() int {
	if s.inv == nil {
		return 0
	}
	return s.inv.total
}

// InvariantViolations returns the retained violation samples (at most
// invariantSampleCap; the count keeps going).
func (s *Simulator) InvariantViolations() []InvariantViolation {
	if s.inv == nil {
		return nil
	}
	return s.inv.samples
}

func (c *invariantChecker) report(rule string, now event.Time, t ids.TaskID, line memsys.LineAddr, format string, args ...any) {
	c.total++
	if len(c.samples) < invariantSampleCap {
		c.samples = append(c.samples, InvariantViolation{
			Rule: rule, Cycle: now, Task: t, Line: line,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// checkCommitStart validates the in-order-commit invariant as t's commit
// completes its token hold.
func (s *Simulator) checkCommitStart(t *task, now event.Time) {
	if s.inv == nil {
		return
	}
	if head := s.order.Head(); t.id != head {
		s.inv.report("commit-order", now, t.id, 0, "committing while token is at %v", head)
	}
	if t.state != taskFinished {
		s.inv.report("commit-state", now, t.id, 0, "committing in state %d", t.state)
	}
	if err := s.procs[t.proc].l2.CheckIndex(); err != nil {
		s.inv.report("own-index", now, t.id, 0, "%v", err)
	}
}

// checkCommitEnd validates that t's commit disposed of every version it
// produced: nothing speculative of t survives in its own hierarchy, its
// overflow area, or (dirty) anywhere else in the machine.
func (s *Simulator) checkCommitEnd(p *processor, t *task, now event.Time) {
	if s.inv == nil {
		return
	}
	p.l2.ForEach(func(l *memsys.Line) {
		if l.Producer == t.id && l.Kind == memsys.KindOwnVersion {
			s.inv.report("unmerged-version", now, t.id, l.Tag, "speculative line survived commit")
		}
	})
	for _, line := range p.ovf.TaskLines(t.id) {
		s.inv.report("unmerged-overflow", now, t.id, line, "overflowed version survived commit")
	}
	for _, q := range s.procs {
		if q == p {
			continue
		}
		q.l2.ForEach(func(l *memsys.Line) {
			if l.Producer == t.id && l.Dirty() {
				s.inv.report("foreign-version", now, t.id, l.Tag,
					"dirty %s line on %v, but the task ran on %v", l.Kind, q.id, p.id)
			}
		})
	}
}

// checkWriteBack validates a main-memory merge before it is applied: under
// AMM, speculative state must never escape to memory (only committed
// versions, or the version of the task whose commit is merging right now);
// and without the MTID filter, memory must only move forward in task order.
func (s *Simulator) checkWriteBack(tag memsys.LineAddr, producer ids.TaskID, now event.Time) {
	if s.inv == nil {
		return
	}
	if !s.scheme.UsesUndoLog() && producer != ids.None && !s.order.IsCommitted(producer) {
		if s.committing == nil || producer != s.committing.id {
			s.inv.report("spec-escape", now, producer, tag,
				"speculative version written back to main memory before commit")
		}
	}
	if !s.mem.MTIDEnabled() {
		if cur := s.mem.Version(tag); cur != ids.None && cur.After(producer) {
			s.inv.report("merge-order", now, producer, tag,
				"write-back over newer version %v", cur)
		}
	}
}

// memWriteBack funnels a main-memory merge through the invariant checker.
// Every write-back that models protocol behavior goes through here; only
// squash-recovery restores (which legitimately move memory backwards) call
// mem.Restore directly.
func (s *Simulator) memWriteBack(tag memsys.LineAddr, producer ids.TaskID, now event.Time) {
	s.checkWriteBack(tag, producer, now)
	s.mem.WriteBack(tag, producer)
}

// checkVCLMerge validates the at-most-one-committed-version-per-line
// invariant the VCL maintains: after merging `latest`, no other committed
// version of the line may remain cached anywhere.
func (s *Simulator) checkVCLMerge(tag memsys.LineAddr, latest ids.TaskID, now event.Time) {
	if s.inv == nil {
		return
	}
	for _, q := range s.procs {
		for _, l := range q.l2.VersionsOf(tag) {
			if l.Kind == memsys.KindCommitted && l.Producer != latest {
				s.inv.report("dup-committed", now, l.Producer, tag,
					"committed version survived VCL merge of %v", latest)
			}
		}
	}
}

// checkRecovery validates an FMM undo walk: every popped record must have a
// squashed overwriter and a saved producer that precedes it, and once every
// restore has been applied, memory must hold no squashed version (at or
// after first) of any restored line.
func (s *Simulator) checkRecovery(first ids.TaskID, undo []memsys.LogEntry, now event.Time) {
	if s.inv == nil {
		return
	}
	for _, e := range undo {
		if e.Overwriter.Before(first) {
			s.inv.report("undo-entry", now, e.Overwriter, e.Tag,
				"undo record popped for unsquashed overwriter (squash from %v)", first)
		}
		if e.Producer != ids.None && !e.Producer.Before(e.Overwriter) {
			s.inv.report("undo-entry", now, e.Overwriter, e.Tag,
				"saved producer %v does not precede its overwriter", e.Producer)
		}
	}
	for _, e := range undo {
		if v := s.mem.Version(e.Tag); v != ids.None && !v.Before(first) {
			s.inv.report("undo-memory", now, v, e.Tag,
				"memory still holds squashed version after recovery (squash from %v)", first)
		}
	}
}

// checkSectionEnd validates that the section retired cleanly: every
// speculative version merged or died, the overflow areas drained, and the
// undo logs were released.
func (s *Simulator) checkSectionEnd(now event.Time) {
	if s.inv == nil {
		return
	}
	for _, p := range s.procs {
		p.l2.ForEach(func(l *memsys.Line) {
			if l.Kind == memsys.KindOwnVersion {
				s.inv.report("leftover-spec", now, l.Producer, l.Tag,
					"speculative line survived the section on %v", p.id)
			}
		})
		if n := p.ovf.Len(); n > 0 {
			s.inv.report("leftover-overflow", now, ids.None, 0,
				"%d versions left in %v's overflow area", n, p.id)
		}
		if n := p.mhb.Len(); n > 0 {
			s.inv.report("leftover-undo", now, ids.None, 0,
				"%d undo records left in %v's MHB", n, p.id)
		}
	}
}
