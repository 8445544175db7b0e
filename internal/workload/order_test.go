package workload

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/memsys"
	"repro/internal/rng"
)

// referenceOrder is the comparison sort the bucket pass replaces: ops
// ordered by (pos, seq), seq being the construction index.
func referenceOrder(mem []timed) []timed {
	type seqd struct {
		t   timed
		seq int
	}
	s := make([]seqd, len(mem))
	for i, m := range mem {
		s[i] = seqd{m, i}
	}
	slices.SortFunc(s, func(a, b seqd) int {
		switch {
		case a.t.pos < b.t.pos:
			return -1
		case a.t.pos > b.t.pos:
			return 1
		default:
			return a.seq - b.seq
		}
	})
	out := make([]timed, len(s))
	for i := range s {
		out[i] = s[i].t
	}
	return out
}

// checkOrder fails t if orderByPos disagrees with referenceOrder on mem.
func checkOrder(t *testing.T, what string, mem []timed) {
	t.Helper()
	want := referenceOrder(mem)
	sc := &taskScratch{mem: slices.Clone(mem)}
	got := sc.orderByPos()
	if !slices.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: op %d of %d = %+v, reference sort has %+v", what, i, len(want), got[i], want[i])
			}
		}
	}
}

// referenceEmit is emit written as plain appends onto a nil slice, with no
// up-front sizing.
func referenceEmit(mem []timed, instr int) []Op {
	var ops []Op
	emitted := 0
	prev := 0.0
	for _, m := range mem {
		chunk := int(float64(instr) * (m.pos - prev))
		emitted += chunk
		prev = m.pos
		ops = append(ops, makeOp(m.op.Kind(), m.op.Addr(), chunk))
	}
	if rest := instr - emitted; rest > 0 {
		ops = append(ops, makeOp(OpCompute, 0, rest))
	}
	return ops
}

// checkTask fails t if g's streams differ from the ones the reference sort
// and plain appends yield, over tasks [0, n).
func checkTask(t *testing.T, what string, g *Generator, n int) {
	t.Helper()
	var buf []Op
	for i := 0; i < n; i++ {
		sc := &taskScratch{}
		instr := g.timedOps(i, sc)
		checkOrder(t, what, sc.mem)
		want := referenceEmit(referenceOrder(sc.mem), instr)
		var gotInstr int
		buf, gotInstr = g.Task(i, buf)
		if gotInstr != instr || !slices.Equal(buf, want) {
			t.Fatalf("%s task %d: stream differs from the reference sort's", what, i)
		}
	}
}

func TestOrderMatchesReferenceSortApps(t *testing.T) {
	for _, p := range Apps() {
		checkTask(t, p.Name+" standard", NewGenerator(StandardScale(p), 1), 64)
		checkTask(t, p.Name+" full", NewGenerator(p, 7), 8)
	}
}

func TestOrderMatchesReferenceSortFuzz(t *testing.T) {
	r := rng.New(13)
	for i := 0; i < 80; i++ {
		p := FuzzProfile(r)
		g := NewGenerator(p, uint64(i))
		checkTask(t, "fuzz", g, p.Tasks)
	}
}

func TestOrderTiesAndBoundaries(t *testing.T) {
	below1 := math.Nextafter(1, 0)
	cases := map[string][]float64{
		"empty":         {},
		"single":        {0.5},
		"all tied":      {0.25, 0.25, 0.25, 0.25, 0.25},
		"ties spread":   {0.9, 0.1, 0.5, 0.1, 0.9, 0.5, 0, 0},
		"rounds to one": {1, 0.5, 1, 0, below1, 1},
		"descending":    {0.99, 0.8, 0.6, 0.4, 0.2, 0},
		"one bucket":    {0.0003, 0.0001, 0.0002, 0.0001, 0.5, 0.75},
		"near keys":     {0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 0.5},
	}
	for name, pos := range cases {
		mem := make([]timed, len(pos))
		for i, p := range pos {
			mem[i] = timed{pos: p, op: makeOp(OpRead, memsys.Addr(i), 0)}
		}
		checkOrder(t, name, mem)
	}
	// Random draws from a handful of values force long tie runs.
	r := rng.New(5)
	for round := 0; round < 100; round++ {
		mem := make([]timed, 1+r.Intn(300))
		for i := range mem {
			mem[i] = timed{pos: float64(r.Intn(8)) / 7, op: makeOp(OpRead, memsys.Addr(i), 0)}
		}
		checkOrder(t, "random ties", mem)
	}
}

func TestTaskAllocsWithReusedBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	g := NewGenerator(Bdna(), 1)
	var buf []Op
	for i := 0; i < 4; i++ {
		buf, _ = g.Task(i, buf)
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		buf, _ = g.Task(i%4, buf)
		i++
	})
	if allocs > 1 {
		t.Fatalf("Task made %.1f allocations per call with a reused buffer, want <= 1", allocs)
	}
}

// TestTaskNilBufferAllocatesOnce: with no buffer to reuse, Task sizes the
// op stream once up front instead of doubling it mid-stream, and the stream
// is the one plain appends build.
func TestTaskNilBufferAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	for _, p := range []Profile{Bdna(), Euler()} {
		g := NewGenerator(p, 1)
		for i := 0; i < 4; i++ {
			sc := &taskScratch{}
			instr := g.timedOps(i, sc)
			ops, _ := g.Task(i, nil)
			if want := referenceEmit(referenceOrder(sc.mem), instr); !slices.Equal(ops, want) {
				t.Fatalf("%s task %d: stream differs from the plain-append one", p.Name, i)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(20, func() {
			g.Task(i%4, nil)
			i++
		})
		if allocs != 1 {
			t.Fatalf("%s: Task with a nil buffer made %.1f allocations per call, want 1", p.Name, allocs)
		}
	}
}

// TestConcurrentTaskMatchesSerial: the pooled scratch must not leak between
// goroutines generating at once, as the parallel core's prefetch workers do.
func TestConcurrentTaskMatchesSerial(t *testing.T) {
	g := NewGenerator(StandardScale(Euler()), 3)
	if !g.ConcurrentTaskSafe() {
		t.Fatal("generator no longer reports ConcurrentTaskSafe")
	}
	const n = 48
	want := make([][]Op, n)
	for i := range want {
		want[i], _ = g.Task(i, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []Op
			for k := 0; k < n; k++ {
				i := (k + w*n/4) % n
				buf, _ = g.Task(i, buf)
				if !slices.Equal(buf, want[i]) {
					t.Errorf("worker %d task %d: stream differs from the serial one", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
