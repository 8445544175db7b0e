package memsys

import (
	"testing"

	"repro/internal/ids"
)

// cacheProbeHitOp probes a 512-KB 4-way L2 for a line it holds.
func cacheProbeHitOp() func() {
	c := NewCache(Config{Name: "L2", SizeBytes: 512 << 10, Ways: 4})
	c.Insert(100, ids.TaskID(1), KindOwnVersion)
	return func() { c.Probe(100, ids.TaskID(1)) }
}

// cacheInsertEvictOp inserts a new line into a full 64-KB 4-way L2, evicting
// one, for eight tasks in turn.
func cacheInsertEvictOp() func() {
	c := NewCache(Config{Name: "L2", SizeBytes: 64 << 10, Ways: 4})
	i := 0
	return func() {
		c.Insert(LineAddr(i), ids.TaskID(i%8+1), KindOwnVersion)
		i++
	}
}

// cacheCommitOwnOp finds one task's own versions, as a commit does, in a
// full 512-KB 4-way L2 (8,192 lines) holding 64 tasks' versions of 128
// lines each.
func cacheCommitOwnOp() func() {
	c := NewCache(Config{Name: "L2", SizeBytes: 512 << 10, Ways: 4})
	for line := 0; line < 8192; line++ {
		c.Insert(LineAddr(line), ids.TaskID(line%64+1), KindOwnVersion)
	}
	lines := 0
	visit := func(*Line) { lines++ }
	i := 0
	return func() {
		t := ids.TaskID(i%64 + 1)
		lines += c.OwnVersions(t)
		c.ForEachOwnVersion(t, visit)
		i++
	}
}

// memoryWriteBackOp merges one version into MTID-filtered main memory: a
// stream over 4096 lines (four pages of tags) whose producers rise every
// pass, where every third write-back offers an older version for the
// filter to judge.
func memoryWriteBackOp() func() {
	m := NewMemory(true)
	i := 0
	return func() {
		producer := ids.TaskID(i>>12 + 2)
		if i%3 == 0 {
			producer--
		}
		m.WriteBack(LineAddr(i&4095), producer)
		i++
	}
}

func BenchmarkCacheProbeHit(b *testing.B)    { bench(b, cacheProbeHitOp()) }
func BenchmarkCacheInsertEvict(b *testing.B) { bench(b, cacheInsertEvictOp()) }
func BenchmarkCacheCommitOwn(b *testing.B)   { bench(b, cacheCommitOwnOp()) }
func BenchmarkMemoryWriteBack(b *testing.B)  { bench(b, memoryWriteBackOp()) }

func BenchmarkCacheProbeMiss(b *testing.B) {
	c := NewCache(Config{Name: "L2", SizeBytes: 512 << 10, Ways: 4})
	i := 0
	bench(b, func() {
		c.Probe(LineAddr(i), ids.TaskID(1))
		i++
	})
}

func BenchmarkBestVersionFor(b *testing.B) {
	c := NewCache(Config{Name: "L2", SizeBytes: 64 << 10, Ways: 8})
	for t := ids.TaskID(1); t <= 8; t++ {
		c.Insert(4, t, KindOwnVersion)
	}
	bench(b, func() { c.BestVersionFor(4, ids.TaskID(5)) })
}

func BenchmarkMHBAppendRelease(b *testing.B) {
	m := NewMHB()
	t := ids.TaskID(0)
	bench(b, func() {
		t++
		for j := 0; j < 8; j++ {
			m.Append(LineAddr(j), ids.None, t)
		}
		m.ReleaseCommitted(t)
	})
}

func BenchmarkOverflowSpillRetrieve(b *testing.B) {
	o := NewOverflow()
	i := 0
	bench(b, func() {
		o.Spill(LineAddr(i%1024), ids.TaskID(i%16+1), 1)
		o.Retrieve(LineAddr(i%1024), ids.TaskID(i%16+1))
		i++
	})
}

func bench(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer() // op's set-up ran before this call
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestAllocBudgets holds each op above with a budget to its allocations
// per op. A budget changes only with the code it measures, in the same
// change.
func TestAllocBudgets(t *testing.T) {
	for _, c := range []struct {
		name   string
		op     func() func()
		budget float64
	}{
		{"cache/probe-hit", cacheProbeHitOp, 0},
		{"cache/insert-evict", cacheInsertEvictOp, 0},
		{"cache/commit-own", cacheCommitOwnOp, 0},
		{"memory/write-back", memoryWriteBackOp, 0},
	} {
		// A benchmark's millions of ops amortize its warm-up; run as
		// many ops first as are measured.
		const runs = 1000
		op := c.op()
		for i := 0; i < runs; i++ {
			op()
		}
		if n := testing.AllocsPerRun(runs, op); n > c.budget {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, n, c.budget)
		}
	}
}
