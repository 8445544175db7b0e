package coherence

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// recordWriteReadOp writes a word and has the next task read it, cycling 64
// tasks over 4096 words; every 64 ops all 65 tasks commit.
func recordWriteReadOp() func() {
	d := NewDirectory()
	i := 0
	return func() {
		t := ids.TaskID(i%64 + 1)
		a := memsys.Addr(i % 4096)
		d.RecordWrite(a, t)
		d.RecordRead(a, t+1)
		if i%64 == 63 {
			for j := ids.TaskID(1); j <= 65; j++ {
				d.Commit(j)
			}
		}
		i++
	}
}

// versionForOp resolves a read by task 9 of a word 16 tasks have written.
func versionForOp() func() {
	d := NewDirectory()
	for t := ids.TaskID(1); t <= 16; t++ {
		d.RecordWrite(4, t)
	}
	return func() { d.VersionFor(4, ids.TaskID(9)) }
}

// footprintOp runs one task's directory traffic over the generator's address
// layout: 32 reads scattered over the 16K-word shared region, 32 writes
// into the task's pooled UniqueBase region, then commit. Regions recur
// every 96 tasks, so commits prune and the directory stays bounded.
func footprintOp() func() {
	const (
		sharedWords  = 1 << 14
		regions      = 96
		regionStride = 1<<16 + 528 // the generator's task-private region size
	)
	d := NewDirectory()
	i := 0
	return func() {
		t := ids.TaskID(i + 1)
		region := workload.UniqueBase + memsys.Addr(i%regions)*regionStride
		for k := 0; k < 32; k++ {
			d.RecordRead(workload.SharedBase+memsys.Addr((i*32+k)*4099%sharedWords), t)
			d.RecordWrite(region+memsys.Addr(k*memsys.WordsPerLine), t)
		}
		d.Commit(t)
		i++
	}
}

// privatizedOp runs one task in the mostly-privatization regime: the task
// writes its own version of each word of one 1024-word block and then
// reads every word back, and once 16 tasks are live the oldest commits, in
// order. Each word carries up to 16 versions, and every read is an
// own-version read.
func privatizedOp() func() {
	const (
		live  = 16
		words = 1024
	)
	d := NewDirectory()
	t := ids.TaskID(0)
	return func() {
		t++
		for k := memsys.Addr(0); k < words; k++ {
			d.RecordWrite(workload.PrivBase+k, t)
		}
		for k := memsys.Addr(0); k < words; k++ {
			d.RecordRead(workload.PrivBase+k, t)
		}
		if t > live {
			d.Commit(t - live)
		}
	}
}

// freshWordsOp builds a fresh directory in which one task writes and
// re-reads 4096 never-seen words and commits: the first-touch cost of a
// section's footprint, which the entry chunks and carved list slabs make a
// handful of allocations rather than a few per word.
func freshWordsOp() func() {
	const words = 4096
	return func() {
		d := NewDirectory()
		for k := memsys.Addr(0); k < words; k++ {
			d.RecordWrite(workload.PrivBase+k, 1)
		}
		for k := memsys.Addr(0); k < words; k++ {
			d.RecordRead(workload.PrivBase+k, 1)
		}
		d.Commit(1)
	}
}

func BenchmarkRecordWriteRead(b *testing.B) { bench(b, recordWriteReadOp()) }
func BenchmarkVersionFor(b *testing.B)      { bench(b, versionForOp()) }
func BenchmarkFootprint(b *testing.B)       { bench(b, footprintOp()) }
func BenchmarkPrivatized(b *testing.B)      { bench(b, privatizedOp()) }
func BenchmarkFreshWords(b *testing.B)      { bench(b, freshWordsOp()) }

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
	for _, c := range []struct {
		name   string
		op     func() func()
		runs   int
		budget float64
	}{
		{"record-write-read", recordWriteReadOp, 1000, 0},
		{"version-for", versionForOp, 1000, 0},
		{"footprint", footprintOp, 1000, 0},
		{"privatized", privatizedOp, 100, 0},
		{"fresh-words", freshWordsOp, 10, 54},
	} {
		// A benchmark's millions of ops amortize its warm-up; run as
		// many ops first as are measured.
		op := c.op()
		for i := 0; i < c.runs; i++ {
			op()
		}
		if n := testing.AllocsPerRun(c.runs, op); n > c.budget {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, n, c.budget)
		}
	}
}
