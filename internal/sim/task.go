// Package sim is the execution-driven simulator that runs a workload's
// speculative section on a machine under one buffering scheme and accounts
// for every cycle: instruction execution, memory stalls, task/version
// stalls, commit work, squash recovery, and end-of-section idling.
//
// Processors execute their tasks' operation streams in bounded time quanta
// over a global discrete-event queue, so cross-processor interactions
// (version forwarding, violations, the commit token) interleave
// deterministically with bounded skew.
package sim

import (
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// taskState is the lifecycle of a speculative task.
type taskState uint8

const (
	taskRunning taskState = iota
	taskFinished
	taskSquashed
	taskCommitted
)

// task is one speculative task in flight.
type task struct {
	id    ids.TaskID
	index int // 0-based workload index
	proc  ids.ProcID
	state taskState

	ops []workload.Op
	pc  int
	// spent records that the compute chunk of ops[pc] has run and only
	// its memory access is left.
	spent bool

	startedAt  event.Time
	finishedAt event.Time

	// Footprint counters for Figure 1 (reset on squash).
	wordsWritten int
	privWords    int

	// consumed records, for communication-region reads, the producer whose
	// version the first read of each address observed — checked against the
	// sequential-order oracle at commit (the protocol-correctness
	// invariant). Kept as a first-read-ordered slice: communication
	// footprints are small, and the backing array survives squashes.
	consumed []consumedRead

	// commitStart is when the commit token reached the task.
	commitStart event.Time

	squashCount int
}

// consumedRead is one communication-region address and the producer whose
// version its first read observed.
type consumedRead struct {
	addr     memsys.Addr
	producer ids.TaskID
}

// recordConsumed notes the producer observed by the first read of addr.
func (t *task) recordConsumed(addr memsys.Addr, producer ids.TaskID) {
	for i := range t.consumed {
		if t.consumed[i].addr == addr {
			return
		}
	}
	t.consumed = append(t.consumed, consumedRead{addr: addr, producer: producer})
}

// reset prepares the task for (re-)execution after a squash.
func (t *task) reset() {
	t.state = taskRunning
	t.ops = nil
	t.pc = 0
	t.spent = false
	t.wordsWritten = 0
	t.privWords = 0
	t.consumed = t.consumed[:0]
}
