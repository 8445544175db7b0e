package workload

import "repro/internal/memsys"

// OpKind is the kind of one task operation.
type OpKind uint8

const (
	// OpCompute executes its chunk of instructions with no memory access.
	OpCompute OpKind = iota
	// OpRead executes its chunk, then loads one word.
	OpRead
	// OpWrite executes its chunk, then stores one word.
	OpWrite
)

// Op is one operation of a task's dynamic stream, packed into 8 bytes: the
// kind in the top 2 bits, the word address in the next 30 and, in the low
// 32, the chunk of instructions executed before the operation. A memory
// operation thus carries the compute chunk that precedes it. An OpCompute
// carries a chunk alone: a task's trailing chunk, or the first of two
// back-to-back chunks.
type Op uint64

const (
	opKindShift = 62
	opAddrShift = 32

	// MaxAddr is the largest word address an Op holds.
	MaxAddr memsys.Addr = 1<<(opKindShift-opAddrShift) - 1
	// MaxChunk is the largest compute chunk an Op carries.
	MaxChunk = 1<<opAddrShift - 1
)

// makeOp packs one operation. addr must not exceed MaxAddr, nor chunk
// MaxChunk: profile validation and TraceBuilder enforce both.
func makeOp(kind OpKind, addr memsys.Addr, chunk int) Op {
	return Op(kind)<<opKindShift | Op(addr)<<opAddrShift | Op(chunk)
}

// Kind returns the operation's kind.
func (op Op) Kind() OpKind { return OpKind(op >> opKindShift) }

// Addr returns the word a memory operation accesses (0 for OpCompute).
func (op Op) Addr() memsys.Addr { return memsys.Addr(op>>opAddrShift) & MaxAddr }

// Chunk returns the instructions executed before the operation's access,
// or all of an OpCompute's work.
func (op Op) Chunk() int { return int(op & MaxChunk) }
