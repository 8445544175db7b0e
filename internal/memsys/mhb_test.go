package memsys

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestMHBAppendLen(t *testing.T) {
	m := NewMHB()
	if m.Len() != 0 {
		t.Fatal("new MHB not empty")
	}
	m.Append(4, ids.None, ids.TaskID(1))
	m.Append(4, ids.TaskID(1), ids.TaskID(2))
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if m.EntriesOverwrittenBy(ids.TaskID(2)) != 1 {
		t.Fatal("EntriesOverwrittenBy wrong")
	}
}

func TestMHBAppendOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order append must panic")
		}
	}()
	m := NewMHB()
	m.Append(4, ids.None, ids.TaskID(3))
	m.Append(8, ids.None, ids.TaskID(2))
}

func TestMHBRecoveryReverseOrder(t *testing.T) {
	m := NewMHB()
	// Task 2 overwrote twice (lines 4, 8), task 3 once (line 4 again).
	m.Append(4, ids.None, ids.TaskID(2))
	m.Append(8, ids.TaskID(1), ids.TaskID(2))
	m.Append(4, ids.TaskID(2), ids.TaskID(3))
	undo := m.PopForRecovery(nil, ids.TaskID(2))
	if len(undo) != 3 {
		t.Fatalf("recovered %d entries, want 3", len(undo))
	}
	// Youngest first: the overwrite by task 3 must be undone before the
	// overwrites by task 2, and within a task in reverse program order.
	if undo[0].Overwriter != ids.TaskID(3) || undo[0].Producer != ids.TaskID(2) {
		t.Fatalf("first undo = %+v, want task 3's overwrite", undo[0])
	}
	if undo[1].Tag != 8 || undo[2].Tag != 4 {
		t.Fatalf("intra-task undo order wrong: %+v", undo[1:])
	}
	if m.Len() != 0 {
		t.Fatal("entries left after full recovery")
	}
}

func TestMHBRecoveryKeepsPredecessors(t *testing.T) {
	m := NewMHB()
	m.Append(4, ids.None, ids.TaskID(1))
	m.Append(8, ids.None, ids.TaskID(3))
	undo := m.PopForRecovery(nil, ids.TaskID(2))
	if len(undo) != 1 || undo[0].Overwriter != ids.TaskID(3) {
		t.Fatalf("undo = %+v", undo)
	}
	if m.Len() != 1 {
		t.Fatal("predecessor entry was dropped")
	}
}

// PopForRecovery appends to dst and reverses only what it appended, so one
// reused scratch slice collects every processor's undo records.
func TestMHBRecoveryAppendsToDst(t *testing.T) {
	a, b := NewMHB(), NewMHB()
	a.Append(4, ids.None, ids.TaskID(2))
	a.Append(8, ids.None, ids.TaskID(3))
	b.Append(12, ids.None, ids.TaskID(1))
	b.Append(16, ids.None, ids.TaskID(2))
	b.Append(20, ids.None, ids.TaskID(4))
	scratch := make([]LogEntry, 0, 8)
	undo := a.PopForRecovery(scratch, ids.TaskID(2))
	undo = b.PopForRecovery(undo, ids.TaskID(2))
	var tags []LineAddr
	for _, e := range undo {
		tags = append(tags, e.Tag)
	}
	if want := []LineAddr{8, 4, 20, 16}; !slices.Equal(tags, want) {
		t.Fatalf("undo tags = %v, want %v (each log youngest first, in pop order)", tags, want)
	}
	if &undo[0] != &scratch[:1][0] {
		t.Fatal("PopForRecovery reallocated a scratch slice with room to spare")
	}
	if b.Len() != 1 {
		t.Fatalf("b keeps %d entries, want its predecessor only", b.Len())
	}
}

func TestMHBReleaseCommitted(t *testing.T) {
	m := NewMHB()
	m.Append(4, ids.None, ids.TaskID(1))
	m.Append(8, ids.None, ids.TaskID(2))
	m.Append(12, ids.None, ids.TaskID(3))
	if freed := m.ReleaseCommitted(ids.TaskID(2)); freed != 2 {
		t.Fatalf("freed %d, want 2", freed)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after release", m.Len())
	}
}

func TestMHBStats(t *testing.T) {
	m := NewMHB()
	m.Append(4, ids.None, ids.TaskID(1))
	m.Append(8, ids.None, ids.TaskID(2))
	m.PopForRecovery(nil, ids.TaskID(2))
	appends, restored, peak := m.Stats()
	if appends != 2 || restored != 1 || peak != 2 {
		t.Fatalf("stats = (%d, %d, %d)", appends, restored, peak)
	}
}

// Property: recovery plus retained entries partition the log, and the undo
// list is in non-increasing overwriter order (reverse task order).
func TestMHBRecoveryProperty(t *testing.T) {
	f := func(overwriters []uint8, cut uint8) bool {
		m := NewMHB()
		// Entries arrive in local program order: sort the random overwriters.
		sorted := append([]uint8(nil), overwriters...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i]%8 < sorted[j]%8 })
		for i, o := range sorted {
			m.Append(LineAddr(i), ids.None, ids.TaskID(o%8)+1)
		}
		first := ids.TaskID(cut%8) + 1
		before := m.Len()
		undo := m.PopForRecovery(nil, first)
		if len(undo)+m.Len() != before {
			return false
		}
		for i := 1; i < len(undo); i++ {
			if undo[i].Overwriter.After(undo[i-1].Overwriter) {
				return false
			}
		}
		for _, e := range undo {
			if e.Overwriter.Before(first) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverflowSpillRetrieve(t *testing.T) {
	o := NewOverflow()
	o.Spill(4, ids.TaskID(1), WordMask(0).Set(3))
	if !o.Has(4, ids.TaskID(1)) {
		t.Fatal("spilled version not found")
	}
	if o.Has(4, ids.TaskID(2)) {
		t.Fatal("wrong version found")
	}
	w, ok := o.Retrieve(4, ids.TaskID(1))
	if !ok || !w.Has(3) {
		t.Fatal("retrieve failed")
	}
	if o.Has(4, ids.TaskID(1)) {
		t.Fatal("version still present after retrieve")
	}
	if _, ok := o.Retrieve(4, ids.TaskID(1)); ok {
		t.Fatal("double retrieve succeeded")
	}
}

func TestOverflowSpillMergesMasks(t *testing.T) {
	o := NewOverflow()
	o.Spill(4, ids.TaskID(1), WordMask(0).Set(1))
	o.Spill(4, ids.TaskID(1), WordMask(0).Set(2))
	w, _ := o.Retrieve(4, ids.TaskID(1))
	if !w.Has(1) || !w.Has(2) {
		t.Fatal("re-spill did not merge written masks")
	}
}

func TestOverflowTaskLinesAndDrop(t *testing.T) {
	o := NewOverflow()
	o.Spill(4, ids.TaskID(1), 1)
	o.Spill(8, ids.TaskID(1), 1)
	o.Spill(12, ids.TaskID(2), 1)
	if got := len(o.TaskLines(ids.TaskID(1))); got != 2 {
		t.Fatalf("TaskLines = %d, want 2", got)
	}
	if n := o.DropTask(ids.TaskID(1)); n != 2 {
		t.Fatalf("DropTask = %d, want 2", n)
	}
	if o.Len() != 1 {
		t.Fatalf("Len = %d after drop", o.Len())
	}
}

func TestOverflowStats(t *testing.T) {
	o := NewOverflow()
	o.Spill(4, ids.TaskID(1), 1)
	o.Spill(8, ids.TaskID(1), 1)
	o.Retrieve(4, ids.TaskID(1))
	spills, retrievals, peak := o.Stats()
	if spills != 2 || retrievals != 1 || peak != 2 {
		t.Fatalf("stats = (%d, %d, %d)", spills, retrievals, peak)
	}
}

func TestMemoryWithoutMTIDAcceptsEverything(t *testing.T) {
	m := NewMemory(false)
	if !m.WriteBack(4, ids.TaskID(5)) {
		t.Fatal("write-back rejected without MTID")
	}
	if !m.WriteBack(4, ids.TaskID(2)) {
		t.Fatal("stale write-back rejected without MTID")
	}
	if m.Version(4) != ids.TaskID(2) {
		t.Fatal("without MTID, last write wins (caller must order)")
	}
}

func TestMemoryMTIDRejectsStale(t *testing.T) {
	m := NewMemory(true)
	if !m.WriteBack(4, ids.TaskID(5)) {
		t.Fatal("first write-back rejected")
	}
	if m.WriteBack(4, ids.TaskID(2)) {
		t.Fatal("MTID accepted an earlier version over a later one")
	}
	if m.Version(4) != ids.TaskID(5) {
		t.Fatal("memory lost the newer version")
	}
	if m.WriteBack(4, ids.TaskID(5)) {
		t.Fatal("MTID accepted a duplicate of the same version")
	}
	if !m.WriteBack(4, ids.TaskID(7)) {
		t.Fatal("newer version rejected")
	}
	wb, rej := m.Stats()
	if wb != 4 || rej != 2 {
		t.Fatalf("stats = (%d, %d)", wb, rej)
	}
}

func TestMemoryRestoreBypassesMTID(t *testing.T) {
	m := NewMemory(true)
	m.WriteBack(4, ids.TaskID(7))
	m.Restore(4, ids.TaskID(3))
	if m.Version(4) != ids.TaskID(3) {
		t.Fatal("restore did not bypass MTID")
	}
	m.Restore(4, ids.None)
	if m.Version(4) != ids.None {
		t.Fatal("restore to architectural state failed")
	}
	if m.version.Len() != 0 {
		t.Fatal("architectural restore should clear the version entry")
	}
}

// Property: with MTID, memory's version for a line is the maximum producer
// ever offered.
func TestMTIDMaxProperty(t *testing.T) {
	f := func(producers []uint8) bool {
		m := NewMemory(true)
		var max ids.TaskID
		for _, p := range producers {
			task := ids.TaskID(p) + 1
			m.WriteBack(4, task)
			if task.After(max) {
				max = task
			}
		}
		return m.Version(4) == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
