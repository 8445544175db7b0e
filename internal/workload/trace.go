package workload

import (
	"fmt"

	"repro/internal/memsys"
)

// Trace is an explicit workload: the caller supplies each task's operation
// stream directly instead of synthesizing one from a Profile. It lets a
// downstream user run their own access patterns — a kernel sketch, a
// recorded address trace, a hand-built dependence structure — through the
// buffering schemes.
//
// Task streams must respect the simulator's conventions: a task has at
// most one version of any word (repeated writes to the same word are
// idempotent versioning-wise), and streams are immutable once built (a
// squashed task re-executes the same stream).
type Trace struct {
	name          string
	tasks         [][]Op
	tasksPerInvoc int
	instr         []int
}

// NewTrace builds an explicit workload from per-task operation streams.
// tasksPerInvoc of 0 means a single invocation. It panics on an empty task
// list, a task with no operations or an operation of no known kind: an
// explicit trace with nothing (or nothing valid) to run is a construction
// error.
func NewTrace(name string, tasks [][]Op, tasksPerInvoc int) *Trace {
	if name == "" {
		name = "trace"
	}
	if len(tasks) == 0 {
		panic("workload: empty trace")
	}
	t := &Trace{name: name, tasksPerInvoc: tasksPerInvoc, instr: make([]int, len(tasks))}
	for i, ops := range tasks {
		if len(ops) == 0 {
			panic(fmt.Sprintf("workload: trace task %d has no operations", i))
		}
		n := 0
		for k, op := range ops {
			if op.Kind() > OpWrite {
				panic(fmt.Sprintf("workload: trace task %d op %d has kind %d", i, k, op.Kind()))
			}
			n += op.Chunk()
		}
		if n == 0 {
			// The simulator needs at least one instruction of work per task
			// (zero-length tasks would commit at time zero en masse).
			n = 1
			ops = append([]Op{makeOp(OpCompute, 0, 1)}, ops...)
		}
		t.tasks = append(t.tasks, ops)
		t.instr[i] = n
	}
	return t
}

// Name implements the simulator's workload interface.
func (t *Trace) Name() string { return t.name }

// NumTasks implements the simulator's workload interface.
func (t *Trace) NumTasks() int { return len(t.tasks) }

// TasksPerInvocation implements the simulator's workload interface.
func (t *Trace) TasksPerInvocation() int { return t.tasksPerInvoc }

// Task returns task index's stream. The stored stream is returned directly
// (the simulator treats it as read-only); buf is ignored.
func (t *Trace) Task(index int, buf []Op) ([]Op, int) {
	_ = buf
	return t.tasks[index], t.instr[index]
}

// ConcurrentTaskSafe reports that Task may be called from multiple
// goroutines at once: the streams are immutable once built and Task only
// reads them. The returned slices are shared; the simulator hands them
// back as buf in both modes, which is safe because Task ignores buf.
func (t *Trace) ConcurrentTaskSafe() bool { return true }

// TraceBuilder accumulates one task's operations fluently. A compute
// chunk rides on the operation after it; Ops flushes a trailing one.
type TraceBuilder struct {
	ops   []Op
	chunk int // instructions not yet attached to an operation
}

// Compute appends n instructions of computation. It panics if n exceeds
// MaxChunk.
func (b *TraceBuilder) Compute(n int) *TraceBuilder {
	if n <= 0 {
		return b
	}
	if n > MaxChunk {
		panic(fmt.Sprintf("workload: trace compute chunk %d exceeds %d", n, MaxChunk))
	}
	b.flush()
	b.chunk = n
	return b
}

// Read appends a load of the given word address. It panics if addr
// exceeds MaxAddr.
func (b *TraceBuilder) Read(addr memsys.Addr) *TraceBuilder {
	return b.access(OpRead, addr)
}

// Write appends a store to the given word address. It panics if addr
// exceeds MaxAddr.
func (b *TraceBuilder) Write(addr memsys.Addr) *TraceBuilder {
	return b.access(OpWrite, addr)
}

func (b *TraceBuilder) access(kind OpKind, addr memsys.Addr) *TraceBuilder {
	if addr > MaxAddr {
		panic(fmt.Sprintf("workload: trace address %#x exceeds %#x", addr, MaxAddr))
	}
	b.ops = append(b.ops, makeOp(kind, addr, b.chunk))
	b.chunk = 0
	return b
}

// flush appends the pending chunk as an operation of its own.
func (b *TraceBuilder) flush() {
	if b.chunk > 0 {
		b.ops = append(b.ops, makeOp(OpCompute, 0, b.chunk))
		b.chunk = 0
	}
}

// Ops returns the accumulated stream.
func (b *TraceBuilder) Ops() []Op {
	b.flush()
	return b.ops
}
