package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestSectionEndMergesInLineOrder: the section-end pass merges every line
// still held as a committed version, once, with its latest version, in
// ascending line order. Lines are planted in shuffled order across several
// caches, some with older versions of the same line elsewhere; none of the
// producers has committed, so the invariant checker reports each merge as a
// spec-escape, and the reports list the merged lines in merge order.
func TestSectionEndMergesInLineOrder(t *testing.T) {
	gen := workload.NewTrace("section-end", [][]workload.Op{new(workload.TraceBuilder).Compute(1).Ops()}, 0)
	s := New(machine.NUMA16(), core.MultiTMVLazy, gen)
	s.EnableInvariantChecks()
	r := rng.New(7)
	const lines = 40
	latest := map[memsys.LineAddr]ids.TaskID{}
	order := make([]int, lines)
	r.Perm(order)
	for _, k := range order {
		tag := memsys.LineAddr(0x100 + 37*k)
		producer := ids.TaskID(2 + r.Intn(50))
		s.procs[r.Intn(4)].l2.Insert(tag, producer, memsys.KindCommitted)
		latest[tag] = producer
		if k%3 == 0 {
			// An older committed version lingers in another cache.
			s.procs[4+r.Intn(4)].l2.Insert(tag, producer-1, memsys.KindCommitted)
		}
	}
	s.finishSection(0)

	merged := s.InvariantViolations()
	if len(merged) != lines {
		t.Fatalf("%d merges reported, want one per line (%d): %s", len(merged), lines, s.InvariantViolations())
	}
	for i, v := range merged {
		if v.Rule != "spec-escape" {
			t.Fatalf("merge %d reported %s, want spec-escape", i, v.Rule)
		}
		if i > 0 && v.Line <= merged[i-1].Line {
			t.Fatalf("line %#x merged after line %#x: section-end merges out of ascending order",
				uint64(v.Line), uint64(merged[i-1].Line))
		}
		if v.Task != latest[v.Line] {
			t.Fatalf("line %#x merged version %v, want the latest %v", uint64(v.Line), v.Task, latest[v.Line])
		}
	}
	for tag, producer := range latest {
		if got := s.mem.Version(tag); got != producer {
			t.Fatalf("memory holds version %v of line %#x, want %v", got, uint64(tag), producer)
		}
	}
}
