package workload

import "testing"

// taskGenOp generates one full-size Bdna task stream into a reused buffer.
func taskGenOp() func() {
	g := NewGenerator(Bdna(), 1)
	var buf []Op
	i := 0
	return func() {
		buf, _ = g.Task(i%g.NumTasks(), buf)
		i++
	}
}

// storedTaskOp replays one full-size Bdna task stream from a stream store
// whose tasks were all generated before the first op.
func storedTaskOp() func() {
	store := NewStore()
	for i := 0; i < 10; i++ { // a figure grid's jobs per app
		store.Hold(Bdna(), 1)
	}
	g := store.Generator(Bdna(), 1)
	var buf []Op
	for i := 0; i < g.NumTasks(); i++ {
		buf, _ = g.Task(i, buf)
	}
	i := 0
	return func() {
		buf, _ = g.Task(i%g.NumTasks(), buf)
		i++
	}
}

func BenchmarkTaskGeneration(b *testing.B) { bench(b, taskGenOp()) }
func BenchmarkStoredTask(b *testing.B)     { bench(b, storedTaskOp()) }

func bench(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer() // op's set-up ran before this call
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestAllocBudgets holds each benchmarked op to its allocations per op. A
// budget changes only with the code it measures, in the same change.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	for _, c := range []struct {
		name   string
		op     func() func()
		budget float64
	}{
		{"task-gen", taskGenOp, 0},
		{"stored-task", storedTaskOp, 0},
	} {
		// A benchmark's millions of ops amortize its warm-up; run as
		// many ops first as are measured.
		const runs = 100
		op := c.op()
		for i := 0; i < runs; i++ {
			op()
		}
		if n := testing.AllocsPerRun(runs, op); n > c.budget {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, n, c.budget)
		}
	}
}
