package sim

import (
	"repro/internal/ids"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// VerifyFinalMemory checks, after Run has completed, that the main-memory
// version image equals the outcome of sequential execution: for every line
// the section wrote, memory holds the version of the LAST task (in
// sequential order) that wrote it. Under AMM this is the architectural
// state produced by in-order commits plus VCL-ordered lazy merging; under
// FMM it is the future state filtered by MTID and repaired by undo-log
// recovery. It returns the number of lines checked and how many hold the
// wrong version (which must be zero for a correct protocol).
//
// The check replays the deterministic workload to compute the sequential
// last-writer per line, so it costs one generation pass over all tasks.
func (s *Simulator) VerifyFinalMemory() (checked, wrong int) {
	if !s.done {
		panic("sim: VerifyFinalMemory before Run completed")
	}
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
	for line, want := range last {
		checked++
		if got := s.mem.Version(line); got != want {
			wrong++
		}
	}
	return checked, wrong
}
