package sim

import (
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// coarseRecover implements the failure path of coarse-grain recovery
// (LRPD/SUDS): the end-of-section dependence test has failed, so the state
// reverts to the beginning of the entire speculative section and the loop
// re-executes serially. The time penalty is the serial re-execution (the
// sum of the tasks' execution times); the memory image afterwards is
// exactly the sequential outcome.
func (s *Simulator) coarseRecover(end event.Time) event.Time {
	s.squashEvents++
	s.tasksSquashed += s.commits

	// Serial re-execution of every task, on one processor.
	penalty := event.Time(s.execPerTask.Value() * float64(s.commits))
	newEnd := end + penalty
	for _, p := range s.procs {
		// Close each processor's books through the parallel section's end,
		// then extend them: processor 0 re-executes, the rest wait.
		p.account(end)
		if p.id == 0 {
			p.bd.Busy += penalty
		} else {
			p.bd.StallRecovery += penalty
		}
		p.lastTime = newEnd
	}

	// The re-execution produces the sequential memory image.
	last := make(map[memsys.LineAddr]ids.TaskID)
	var buf []workload.Op
	for idx := 0; idx < s.total; idx++ {
		buf, _ = s.gen.Task(idx, buf[:0])
		for _, op := range buf {
			if op.Kind() == workload.OpWrite {
				last[op.Addr().Line()] = ids.TaskID(idx + 1)
			}
		}
	}
	for line, producer := range last {
		s.mem.Restore(line, producer)
	}
	return newEnd
}
