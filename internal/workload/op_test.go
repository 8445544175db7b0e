package workload

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/memsys"
	"repro/internal/rng"
)

// TestOpKeepsItsSize: a stream costs 8 bytes per operation.
func TestOpKeepsItsSize(t *testing.T) {
	if n := unsafe.Sizeof(Op(0)); n != 8 {
		t.Fatalf("Op is %d bytes, want 8", n)
	}
}

// legacyOp is the 24-byte stream element Op replaced, where a compute chunk
// and a memory access were separate operations.
type legacyOp struct {
	Kind  OpKind
	Addr  memsys.Addr
	Instr int
}

// legacyEmit is emit as it was for legacyOp streams.
func legacyEmit(mem []timed, instr int) []legacyOp {
	var ops []legacyOp
	emitted := 0
	prev := 0.0
	for _, m := range mem {
		chunk := int(float64(instr) * (m.pos - prev))
		if chunk > 0 {
			ops = append(ops, legacyOp{Kind: OpCompute, Instr: chunk})
			emitted += chunk
		}
		prev = m.pos
		ops = append(ops, legacyOp{Kind: m.op.Kind(), Addr: m.op.Addr()})
	}
	if rest := instr - emitted; rest > 0 {
		ops = append(ops, legacyOp{Kind: OpCompute, Instr: rest})
	}
	return ops
}

// expand splits each op into the legacy operations it stands for: its
// chunk, if any, then its access. It fails t on a compute op that carries
// an address or no instructions, which no legacy stream could express.
func expand(t *testing.T, ops []Op) []legacyOp {
	t.Helper()
	var out []legacyOp
	for _, op := range ops {
		if op.Kind() == OpCompute && (op.Addr() != 0 || op.Chunk() == 0) {
			t.Fatalf("malformed compute op %#x", uint64(op))
		}
		if c := op.Chunk(); c > 0 {
			out = append(out, legacyOp{Kind: OpCompute, Instr: c})
		}
		if op.Kind() != OpCompute {
			out = append(out, legacyOp{Kind: op.Kind(), Addr: op.Addr()})
		}
	}
	return out
}

// checkLegacy fails t unless every task of g expands to the stream the
// legacy emit builds from the same ordered operations.
func checkLegacy(t *testing.T, what string, g *Generator) {
	t.Helper()
	var buf []Op
	sc := &taskScratch{}
	for i := 0; i < g.NumTasks(); i++ {
		instr := g.timedOps(i, sc)
		want := legacyEmit(sc.orderByPos(), instr)
		var got int
		buf, got = g.Task(i, buf)
		if got != instr || !slices.Equal(expand(t, buf), want) {
			t.Fatalf("%s task %d: packed stream differs from the legacy one", what, i)
		}
	}
}

// TestOpsExpandToLegacyStreams: packing the chunk before each access into
// the access changes no (kind, address, chunk) sequence, for generated
// streams and for TraceBuilder's.
func TestOpsExpandToLegacyStreams(t *testing.T) {
	for _, p := range Apps() {
		checkLegacy(t, p.Name+" standard", NewGenerator(StandardScale(p), 1))
		if !testing.Short() && !raceEnabled {
			checkLegacy(t, p.Name+" full", NewGenerator(p, 1))
		}
	}
	r := rng.New(30)
	for i := 0; i < 60; i++ {
		checkLegacy(t, "fuzz", NewGenerator(FuzzProfile(r), uint64(i)))
	}
	noReads := StandardScale(Euler())
	noReads.ReadsPerWrite = -3 // issues no reads, as a zero would
	checkLegacy(t, "negative reads per write", NewGenerator(noReads, 1))

	// A builder script: n > 0 computes n, n <= 0 with an address accesses.
	type call struct {
		kind OpKind
		addr memsys.Addr
		n    int
	}
	c := func(n int) call { return call{OpCompute, 0, n} }
	rd := func(a memsys.Addr) call { return call{OpRead, a, 0} }
	wr := func(a memsys.Addr) call { return call{OpWrite, a, 0} }
	for name, script := range map[string][]call{
		"compute only":        {c(100)},
		"no compute":          {wr(8)},
		"back-to-back chunks": {c(5), c(7), rd(1)},
		"three chunks":        {c(1), c(2), c(3), wr(2), c(4)},
		"leading accesses":    {rd(1), wr(1), c(10)},
		"non-positive":        {c(0), c(-5), rd(1), c(-1)},
		"limits":              {c(MaxChunk), rd(MaxAddr), c(MaxChunk), c(MaxChunk)},
		"overflow revisit":    {wr(4096), c(50), wr(8192), c(50), c(500), rd(4096), wr(4096), c(100)},
	} {
		var b TraceBuilder
		var want []legacyOp
		for _, s := range script {
			switch {
			case s.kind == OpRead:
				b.Read(s.addr)
				want = append(want, legacyOp{Kind: OpRead, Addr: s.addr})
			case s.kind == OpWrite:
				b.Write(s.addr)
				want = append(want, legacyOp{Kind: OpWrite, Addr: s.addr})
			default:
				b.Compute(s.n)
				if s.n > 0 {
					want = append(want, legacyOp{Kind: OpCompute, Instr: s.n})
				}
			}
		}
		if got := expand(t, b.Ops()); !slices.Equal(got, want) {
			t.Fatalf("%s: builder stream expands to %+v, want %+v", name, got, want)
		}
	}
}

// TestValidateRejectsOversizedOps: a profile passes validation only if no
// chunk of its streams can exceed MaxChunk and no address MaxAddr.
func TestValidateRejectsOversizedOps(t *testing.T) {
	for name, mutate := range map[string]func(*Profile){
		"long tasks":       func(p *Profile) { p.InstrPerTask = MaxChunk + 1; p.ImbalanceCV = 0 },
		"imbalance tail":   func(p *Profile) { p.InstrPerTask = MaxChunk / 8 },
		"heavy tail":       func(p *Profile) { p.InstrPerTask = 1e8; p.HeavyTailFrac = 0.01; p.HeavyTailMax = 100 },
		"NaN imbalance":    func(p *Profile) { p.ImbalanceCV = math.NaN() },
		"NaN heavy tail":   func(p *Profile) { p.HeavyTailFrac = 0.01; p.HeavyTailMax = math.NaN() },
		"footprint":        func(p *Profile) { p.WriteDensity = 1; p.FootprintBytes = (maxLinesWritten + 1) * memsys.WordBytes },
		"hot read set":     func(p *Profile) { p.HotReadWords = int(MaxAddr) + 2 },
		"imbalance at cap": func(p *Profile) { p.InstrPerTask = int(MaxChunk / maxLengthMultiplier(p) * 1.001) },
	} {
		p := Bdna()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: profile accepted", name)
		}
	}
	for name, mutate := range map[string]func(*Profile){
		"largest footprint": func(p *Profile) { p.WriteDensity = 1; p.FootprintBytes = maxLinesWritten * memsys.WordBytes },
		"largest hot set":   func(p *Profile) { p.HotReadWords = int(MaxAddr) + 1 },
		"below the cap":     func(p *Profile) { p.InstrPerTask = int(MaxChunk / maxLengthMultiplier(p) * 0.999) },
	} {
		p := Bdna()
		mutate(&p)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// The footprint cap is the last line of the last private region.
	last := UniqueBase + (regionPool-1)*regionStride + memsys.Addr(maxLinesWritten)*memsys.WordsPerLine - 1
	if last > MaxAddr || last+memsys.WordsPerLine <= MaxAddr {
		t.Fatalf("the largest footprint ends at %#x, want the last line below %#x", last, MaxAddr)
	}
	// Every drawn multiplier lies within the bound validation uses.
	for _, p := range Apps() {
		g := NewGenerator(p, 5)
		bound := maxLengthMultiplier(&p)
		for i := 0; i < 20000; i++ {
			if m := g.LengthMultiplier(i); m > bound {
				t.Fatalf("%s task %d: multiplier %v exceeds the bound %v", p.Name, i, m, bound)
			}
		}
	}
}

// TestBuilderRejectsOversizedOps: TraceBuilder panics on what an Op cannot
// hold, and NewTrace on an operation of no known kind.
func TestBuilderRejectsOversizedOps(t *testing.T) {
	for name, fn := range map[string]func(){
		"chunk": func() { new(TraceBuilder).Compute(MaxChunk + 1) },
		"read":  func() { new(TraceBuilder).Read(MaxAddr + 1) },
		"write": func() { new(TraceBuilder).Compute(3).Write(1 << 40) },
		"kind":  func() { NewTrace("x", [][]Op{{makeOp(OpWrite, 1, 5) | 1<<opKindShift}}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}
