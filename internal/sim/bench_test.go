package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchProfile is quarter-size Bdna: a mid-size run of the serial event
// loop, the version directory and the caches with no squashes.
var benchProfile = workload.Bdna().Scale(0.25, 0.25, 0.25)

func newBenchSim() *sim.Simulator {
	return sim.New(machine.NUMA16(), core.MultiTMVLazy, workload.NewGenerator(benchProfile, 1))
}

// fullRun simulates benchProfile on NUMA16 under MultiT&MV Lazy AMM on
// storage of its own: it releases none, so the next run finds no spare.
func fullRun() sim.Result { return newBenchSim().Run() }

// recycledRun is fullRun built on the storage the previous run released,
// as the campaign path builds simulations: the per-job cost once a batch
// is under way.
func recycledRun() sim.Result {
	s := newBenchSim()
	r := s.Run()
	s.Release()
	return r
}

// parallelRun is fullRun on the parallel core with two workers.
func parallelRun() sim.Result {
	s := newBenchSim()
	s.SetParallel(2)
	return s.Run()
}

func BenchmarkFullRun(b *testing.B) { benchRuns(b, fullRun) }

func BenchmarkRecycledRun(b *testing.B) {
	recycledRun() // the first measured run builds on this one's storage
	benchRuns(b, recycledRun)
}

func benchRuns(b *testing.B, run func() sim.Result) {
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += run().Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// TestAllocBudgets holds each run above to its allocations per run. A
// budget changes only with the code it measures, in the same change.
// AllocsPerRun's first, unmeasured run parks the storage the recycled
// runs build on. Every budget sits 30% above its count: the count moves
// with the toolchain's map and slice layouts and with the garbage
// collections that empty the generator's scratch pool. TestCommitAllocs
// sees what a per-run budget that wide cannot, one allocation per commit.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	for _, c := range []struct {
		name   string
		run    func() sim.Result
		budget float64
	}{
		{"full-run", fullRun, 12056},
		{"recycled-run", recycledRun, 10280},
		{"parallel-run", parallelRun, 12285},
	} {
		n := testing.AllocsPerRun(2, func() { c.run() })
		if n > c.budget {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, n, c.budget)
		}
	}
}

// commitTrace is n tasks that each read one of 8 words no task writes and
// then write one of 64 others: every task commits and none squashes.
func commitTrace(n int) *workload.Trace {
	base := memsys.Addr(1 << 16)
	streams := make([][]workload.Op, n)
	for i := range streams {
		var b workload.TraceBuilder
		b.Compute(2000).Read(base + memsys.Addr(64+i%8)*memsys.WordsPerLine)
		b.Compute(1000).Write(base + memsys.Addr(i%64)*memsys.WordsPerLine)
		streams[i] = b.Ops()
	}
	return workload.NewTrace("commits", streams, 0)
}

// TestCommitAllocs holds what each task adds to a recycled run's
// allocations to one, its task record. The count is the difference
// between runs of 1,024 and 512 tasks, in which every fixed cost cancels
// whatever the toolchain, so one more allocation per commit fails it.
func TestCommitAllocs(t *testing.T) {
	perRun := func(n int) float64 {
		tr := commitTrace(n)
		return testing.AllocsPerRun(4, func() {
			s := sim.New(machine.NUMA16(), core.MultiTMVLazy, tr)
			s.Run()
			s.Release()
		})
	}
	const n = 512
	if perTask := (perRun(2*n) - perRun(n)) / n; perTask > 1.25 {
		t.Errorf("%.2f allocs per committed task, budget 1.25 (its task record is 1)", perTask)
	}
}
