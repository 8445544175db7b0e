package workload

import (
	"sync"

	"repro/internal/memsys"
	"repro/internal/rng"
)

// OpKind is the kind of one task operation.
type OpKind uint8

const (
	// OpCompute executes Instr instructions with no memory access.
	OpCompute OpKind = iota
	// OpRead loads one word.
	OpRead
	// OpWrite stores one word.
	OpWrite
)

// Op is one operation of a task's dynamic stream.
type Op struct {
	Kind  OpKind
	Addr  memsys.Addr
	Instr int // instructions in this compute chunk (OpCompute only)
}

// Address-space layout (word addresses). The regions are far apart so they
// can never alias.
const (
	// SharedBase is the read-only shared region: data written before the
	// speculative section (architectural state).
	SharedBase memsys.Addr = 0

	// sharedWords sizes the read-only region at 64 KB: a hot read set that
	// becomes cache-resident after warm-up (real numerical loops re-read a
	// bounded working set), leaving the version traffic and cold footprint
	// as the memory-system load.
	sharedWords = 1 << 14

	// PrivBase is the mostly-privatization region: every task writes its own
	// version of these same variables (the work(k) pattern of Figure 1-(b)).
	PrivBase memsys.Addr = 1 << 24

	// UniqueBase is the pool of task-private regions. A region is reused by
	// tasks regionPool apart — never concurrently — which bounds the address
	// space without creating cross-task reads.
	UniqueBase memsys.Addr = 1 << 26

	// regionPool is the number of distinct task-private regions.
	regionPool = 96
	// regionStride is the size of one task-private region, in words. It is
	// deliberately NOT a power of two: a power-of-two stride would start
	// every region at cache set 0 and alias the regions of all concurrent
	// tasks onto the same few sets — an artifact real array bases do not
	// have. 66064 words = 4129 lines, odd, hence coprime with any
	// power-of-two set count.
	regionStride = 1<<16 + 528

	// CommBase is the communication region: the words through which tasks
	// occasionally read their predecessors' results — the source of
	// cross-task RAW dependences and, when out of order, squashes.
	CommBase memsys.Addr = 1 << 28

	// commChannels is the number of communication words.
	commChannels = 64
)

// Generator produces the deterministic operation stream of each task of a
// profile. The stream of task i is a pure function of (profile, seed, i),
// so a squashed task re-executes the identical stream.
type Generator struct {
	prof Profile
	seed uint64

	privLines   int
	uniqueLines int
}

// NewGenerator returns a generator for the profile. It panics if the
// profile fails validation: generating from a malformed profile is a
// programming error.
func NewGenerator(prof Profile, seed uint64) *Generator {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	lines := prof.LinesWritten()
	priv := int(float64(lines)*prof.PrivFrac + 0.5)
	if priv > lines {
		priv = lines
	}
	return &Generator{
		prof:        prof,
		seed:        seed,
		privLines:   priv,
		uniqueLines: lines - priv,
	}
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// ConcurrentTaskSafe reports that Task may be called from multiple
// goroutines at once: the stream of task i is a pure function of
// (profile, seed, i) and the generator's fields are immutable after
// construction. The parallel simulator's prefetch workers rely on this.
func (g *Generator) ConcurrentTaskSafe() bool { return true }

// Name returns the application name.
func (g *Generator) Name() string { return g.prof.Name }

// NumTasks returns the number of tasks in the section.
func (g *Generator) NumTasks() int { return g.prof.Tasks }

// TasksPerInvocation returns the invocation granularity (0 = one
// invocation).
func (g *Generator) TasksPerInvocation() int { return g.prof.TasksPerInvoc }

// channelAddr returns the communication word of task index. Channels
// occupy one line each by default; packed layouts put 16 per line (false
// sharing, for the conflict-granularity ablation).
func (g *Generator) channelAddr(index int) memsys.Addr {
	if g.prof.PackedChannels {
		return CommBase + memsys.Addr(index%commChannels)
	}
	return CommBase + memsys.Addr(index%commChannels)*memsys.WordsPerLine
}

// timed pairs an operation with its fractional position in the task. Its
// index in the construction sequence (seq) is implicit: ops are appended in
// seq order and every reordering pass below is stable.
type timed struct {
	pos  float64
	kind OpKind
	addr memsys.Addr
}

// taskScratch is the per-call working memory of Task, recycled through
// scratchPool so that concurrent callers (the parallel core's prefetch
// workers) never share it and the Generator stays immutable.
type taskScratch struct {
	mem     []timed
	sorted  []timed
	written []memsys.Addr
	counts  []int32
}

var scratchPool = sync.Pool{New: func() any { return new(taskScratch) }}

// LengthMultiplier returns the deterministic task-length multiplier of task
// index (mean ~1). It is exposed so tests can verify the imbalance model.
func (g *Generator) LengthMultiplier(index int) float64 {
	var r rng.Source
	r.Seed(g.seed ^ 0x1eaf<<32 ^ uint64(index)*0x9e3779b97f4a7c15)
	if g.prof.HeavyTailFrac > 0 && r.Bool(g.prof.HeavyTailFrac) {
		return r.Pareto(g.prof.HeavyTailMax/4, g.prof.HeavyTailMax, 1.2)
	}
	if g.prof.ImbalanceCV <= 0 {
		return 1
	}
	return r.LogNormalCV(1, g.prof.ImbalanceCV)
}

// Task generates the operation stream of task index (0-based), appending
// into buf to avoid allocation, and returns the stream and its total
// instruction count. Streams interleave compute chunks with the memory
// operations of the profile: versioned writes (privatized and task-private
// lines), re-reads of own data, scattered shared reads, and occasional
// cross-task communication.
func (g *Generator) Task(index int, buf []Op) (ops []Op, instr int) {
	sc := scratchPool.Get().(*taskScratch)
	defer scratchPool.Put(sc)
	instr = g.timedOps(index, sc)
	// Order by (pos, seq) and interleave compute chunks proportional to the
	// gaps. seq is unique, so the order is total and any correct sort yields
	// the same stream; bucketing on pos avoids a comparison sort on what
	// profiling shows is the hottest single call in a full run.
	return emit(sc.orderByPos(), instr, buf), instr
}

// timedOps generates the memory operations of task index into sc.mem, in
// construction (seq) order, and returns the task's instruction count.
func (g *Generator) timedOps(index int, sc *taskScratch) (instr int) {
	p := &g.prof
	var r rng.Source
	r.Seed(g.seed ^ uint64(index)*0x9e3779b97f4a7c15)
	mul := g.LengthMultiplier(index)
	instr = int(float64(p.InstrPerTask) * mul)
	if instr < 1 {
		instr = 1
	}

	density := p.WriteDensity
	mem := sc.mem[:0]
	add := func(pos float64, kind OpKind, addr memsys.Addr) {
		mem = append(mem, timed{pos: pos, kind: kind, addr: addr})
	}

	// Writes, spread over the first WritePhase of the task. Privatized lines
	// are the same addresses for every task; private lines live in the
	// task's pooled region. The pattern is MOSTLY privatization: with
	// probability PrivFrac a task writes the shared-name variables (creating
	// its own version of them); otherwise its whole footprint is private.
	privLines := g.privLines
	if privLines > 0 && !r.Bool(p.PrivFrac) {
		privLines = 0
	}
	uniqueLines := g.privLines + g.uniqueLines - privLines
	region := memsys.Addr(index%regionPool) * regionStride
	written := sc.written[:0]
	writeLine := func(base memsys.Addr, line, k int) {
		la := (base + memsys.Addr(line*memsys.WordsPerLine)).Line()
		for w := 0; w < density; w++ {
			pos := p.WritePhase * (float64(k) + r.Float64()) / float64(privLines+uniqueLines)
			a := la.Word(w)
			add(pos, OpWrite, a)
			written = append(written, a)
		}
	}
	for i := 0; i < privLines; i++ {
		writeLine(PrivBase, i, i)
	}
	for i := 0; i < uniqueLines; i++ {
		writeLine(UniqueBase+region, i, privLines+i)
	}

	// Reads: re-reads of own writes late in the task, scattered shared
	// reads throughout.
	totalReads := int(p.ReadsPerWrite*float64(len(written)) + 0.5)
	sharedReads := int(float64(totalReads) * p.SharedReadFrac)
	ownReads := totalReads - sharedReads
	for i := 0; i < ownReads && len(written) > 0; i++ {
		a := written[r.Intn(len(written))]
		// Own values are consumed after the write phase.
		add(p.WritePhase+(1-p.WritePhase)*r.Float64(), OpRead, a)
	}
	hot := p.HotReadWords
	if hot <= 0 {
		hot = sharedWords
	}
	for i := 0; i < sharedReads; i++ {
		add(r.Float64(), OpRead, SharedBase+memsys.Addr(r.Intn(hot)))
	}

	// Cross-task communication: every task publishes into its channel near
	// its end; with probability DepProb it consumes a recent predecessor's
	// channel near its start — the out-of-order RAW candidate. Channels live
	// one per line so that communication does not create artificial
	// same-line version conflicts.
	add(0.97, OpWrite, g.channelAddr(index))
	if p.DepProb > 0 && index > 0 && r.Bool(p.DepProb) {
		delta := 1 + r.Intn(p.DepReach)
		if delta > index {
			delta = index
		}
		add(0.03, OpRead, g.channelAddr(index-delta))
	}

	sc.mem, sc.written = mem, written
	return instr
}

// emit interleaves the ordered memory operations with compute chunks
// proportional to the gaps between their positions, appending into buf.
func emit(mem []timed, instr int, buf []Op) []Op {
	ops := buf[:0]
	emitted := 0
	prev := 0.0
	for _, m := range mem {
		chunk := int(float64(instr) * (m.pos - prev))
		if chunk > 0 {
			ops = append(ops, Op{Kind: OpCompute, Instr: chunk})
			emitted += chunk
		}
		prev = m.pos
		ops = append(ops, Op{Kind: m.kind, Addr: m.addr})
	}
	if rest := instr - emitted; rest > 0 {
		ops = append(ops, Op{Kind: OpCompute, Instr: rest})
	}
	return ops
}

// orderByPos returns sc.mem ordered by (pos, seq), in sc.sorted. Every pos
// lies in [0, 1], so a counting pass over n buckets keyed on floor(pos·n)
// (clamped to n-1: a float sum can round up to 1.0) scatters the ops,
// keeping seq order inside each bucket. Bucket keys are monotone in pos, so
// the closing stable insertion pass never moves an op across a bucket
// boundary and costs no more than the small buckets' squared sizes: it only
// orders ops sharing a key by pos, and equal pos keeps seq order.
func (sc *taskScratch) orderByPos() []timed {
	mem := sc.mem
	n := len(mem)
	if cap(sc.counts) < n+1 {
		sc.counts = make([]int32, n+1)
	}
	counts := sc.counts[:n+1]
	clear(counts)
	key := func(pos float64) int {
		k := int(pos * float64(n))
		if k >= n {
			k = n - 1
		}
		return k
	}
	for i := range mem {
		counts[key(mem[i].pos)+1]++
	}
	for k := 1; k <= n; k++ {
		counts[k] += counts[k-1]
	}
	if cap(sc.sorted) < n {
		sc.sorted = make([]timed, n)
	}
	out := sc.sorted[:n]
	for i := range mem {
		k := key(mem[i].pos)
		out[counts[k]] = mem[i]
		counts[k]++
	}
	for i := 1; i < n; i++ {
		m := out[i]
		j := i
		for j > 0 && m.pos < out[j-1].pos {
			out[j] = out[j-1]
			j--
		}
		out[j] = m
	}
	return out
}

// SequentialOrderOracle returns, for testing, the producer task index that
// a read of addr by task index must observe under sequential semantics
// given this generator's write pattern, or -1 for architectural data. Only
// meaningful for privatized and communication addresses (task-private
// regions are written and read by the same task).
func (g *Generator) SequentialOrderOracle(addr memsys.Addr, index int) int {
	switch {
	case addr >= CommBase:
		ch := int(addr - CommBase)
		if !g.prof.PackedChannels {
			ch /= memsys.WordsPerLine
		}
		// The latest predecessor writing channel ch. The task's own channel
		// write happens after its channel read in program order, so the
		// producer is strictly before index.
		for t := index - 1; t >= 0; t-- {
			if t%commChannels == ch {
				return t
			}
		}
		return -1
	default:
		return -1
	}
}
