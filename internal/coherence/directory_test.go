package coherence

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/memsys"
	"repro/internal/rng"
)

func TestVersionForEmpty(t *testing.T) {
	d := NewDirectory()
	if got := d.VersionFor(4, ids.TaskID(3)); got != ids.None {
		t.Fatalf("empty directory returned %v", got)
	}
}

func TestVersionForPicksLatestPredecessor(t *testing.T) {
	d := NewDirectory()
	d.RecordWrite(4, ids.TaskID(2))
	d.RecordWrite(4, ids.TaskID(5))
	d.RecordWrite(4, ids.TaskID(8))
	tests := []struct {
		reader, want ids.TaskID
	}{
		{ids.TaskID(1), ids.None},
		{ids.TaskID(2), ids.TaskID(2)},
		{ids.TaskID(4), ids.TaskID(2)},
		{ids.TaskID(5), ids.TaskID(5)},
		{ids.TaskID(7), ids.TaskID(5)},
		{ids.TaskID(9), ids.TaskID(8)},
	}
	for _, tt := range tests {
		if got := d.VersionFor(4, tt.reader); got != tt.want {
			t.Errorf("VersionFor(reader %v) = %v, want %v", tt.reader, got, tt.want)
		}
	}
}

func TestOutOfOrderWritesKeepSortedVersions(t *testing.T) {
	d := NewDirectory()
	// Successor writes first — the common case under speculation.
	d.RecordWrite(4, ids.TaskID(7))
	d.RecordWrite(4, ids.TaskID(3))
	if got := d.VersionFor(4, ids.TaskID(5)); got != ids.TaskID(3) {
		t.Fatalf("VersionFor = %v, want T2's version", got)
	}
	if d.VersionCount(4) != 2 {
		t.Fatalf("VersionCount = %d", d.VersionCount(4))
	}
}

func TestRepeatedWriteIsIdempotent(t *testing.T) {
	d := NewDirectory()
	d.RecordWrite(4, ids.TaskID(3))
	d.RecordWrite(4, ids.TaskID(3))
	if d.VersionCount(4) != 1 {
		t.Fatalf("VersionCount = %d after repeated write", d.VersionCount(4))
	}
}

func TestInOrderRAWIsSafe(t *testing.T) {
	d := NewDirectory()
	d.RecordWrite(4, ids.TaskID(2))
	if got := d.RecordRead(4, ids.TaskID(5)); got != ids.TaskID(2) {
		t.Fatalf("read consumed %v", got)
	}
	// A later write by an even later task does not violate the read.
	if v := d.RecordWrite(4, ids.TaskID(7)); v != ids.None {
		t.Fatalf("in-order write flagged violation of %v", v)
	}
}

func TestOutOfOrderRAWViolation(t *testing.T) {
	d := NewDirectory()
	d.RecordRead(4, ids.TaskID(5)) // consumed architectural data
	if v := d.RecordWrite(4, ids.TaskID(3)); v != ids.TaskID(5) {
		t.Fatalf("violation victim = %v, want T4", v)
	}
	_, _, violations := d.Stats()
	if violations != 1 {
		t.Fatalf("violations = %d", violations)
	}
}

func TestViolationPicksEarliestReader(t *testing.T) {
	d := NewDirectory()
	d.RecordRead(4, ids.TaskID(5))
	d.RecordRead(4, ids.TaskID(8))
	d.RecordRead(4, ids.TaskID(2)) // predecessor of the writer: unaffected
	if v := d.RecordWrite(4, ids.TaskID(3)); v != ids.TaskID(5) {
		t.Fatalf("victim = %v, want the earliest violated reader T4", v)
	}
}

func TestReaderOfInterveningVersionNotViolated(t *testing.T) {
	d := NewDirectory()
	d.RecordWrite(4, ids.TaskID(5))
	d.RecordRead(4, ids.TaskID(7)) // consumed T4's version
	// An out-of-order write from before the consumed version is harmless.
	if v := d.RecordWrite(4, ids.TaskID(3)); v != ids.None {
		t.Fatalf("write flagged %v despite intervening version", v)
	}
}

func TestOwnReadNotViolatedByPredecessorWrite(t *testing.T) {
	d := NewDirectory()
	d.RecordWrite(4, ids.TaskID(6))
	d.RecordRead(4, ids.TaskID(6)) // task reads its own version
	if v := d.RecordWrite(4, ids.TaskID(3)); v != ids.None {
		t.Fatalf("own-version read flagged as violated: %v", v)
	}
}

func TestMinConsumedVersionIsKept(t *testing.T) {
	d := NewDirectory()
	d.RecordRead(4, ids.TaskID(9)) // consumed architectural (None)
	d.RecordWrite(4, ids.TaskID(8))
	d.RecordRead(4, ids.TaskID(9)) // now consumes T7's version
	// T2's write is after None and before T8: the FIRST read was violated.
	if v := d.RecordWrite(4, ids.TaskID(3)); v != ids.TaskID(9) {
		t.Fatalf("earliest consumed version not retained (victim %v)", v)
	}
}

func TestSquashRemovesVersionsAndMarks(t *testing.T) {
	d := NewDirectory()
	d.RecordWrite(4, ids.TaskID(5))
	d.RecordRead(8, ids.TaskID(5))
	d.Squash(ids.TaskID(5))
	if d.VersionCount(4) != 0 {
		t.Fatal("squashed version survived")
	}
	if v := d.RecordWrite(8, ids.TaskID(2)); v != ids.None {
		t.Fatalf("squashed read mark still triggers violations: %v", v)
	}
	if got := d.VersionFor(4, ids.TaskID(9)); got != ids.None {
		t.Fatalf("reader sees squashed version %v", got)
	}
	d.Squash(ids.TaskID(5)) // second squash is a no-op
}

func TestCommitDropsReadMarksAndPrunes(t *testing.T) {
	d := NewDirectory()
	d.RecordWrite(4, ids.TaskID(1))
	d.RecordWrite(4, ids.TaskID(2))
	d.RecordRead(4, ids.TaskID(2))
	d.Commit(ids.TaskID(2))
	if d.VersionCount(4) != 1 {
		t.Fatalf("VersionCount = %d after pruning", d.VersionCount(4))
	}
	// The committed version remains visible to later readers.
	if got := d.VersionFor(4, ids.TaskID(9)); got != ids.TaskID(2) {
		t.Fatalf("later reader sees %v", got)
	}
}

func TestCommitUnknownTaskIsNoop(t *testing.T) {
	d := NewDirectory()
	d.RecordWrite(4, ids.TaskID(1))
	d.Commit(ids.TaskID(3))
	if d.LiveWords() != 1 || d.LiveTasks() != 1 || d.VersionCount(4) != 1 {
		t.Fatalf("commit of unseen task changed the directory: LiveWords %d, LiveTasks %d, VersionCount %d",
			d.LiveWords(), d.LiveTasks(), d.VersionCount(4))
	}
}

func TestTaskWriteFootprint(t *testing.T) {
	d := NewDirectory()
	d.RecordWrite(4, ids.TaskID(1))
	d.RecordWrite(8, ids.TaskID(1))
	d.RecordWrite(4, ids.TaskID(1)) // duplicate
	tasks := view(d).Tasks
	if len(tasks) != 1 || tasks[0].Task != ids.TaskID(1) {
		t.Fatalf("view lists tasks %+v, want only task 1", tasks)
	}
	if got := tasks[0].Writes; !reflect.DeepEqual(got, []memsys.Addr{4, 8}) {
		t.Fatalf("task 1 writes = %v, want [4 8]", got)
	}
}

// Property test: the directory agrees with a brute-force oracle over random
// interleavings of reads and writes (no squashes), on both version
// resolution and violation detection.
func TestDirectoryOracleProperty(t *testing.T) {
	type op struct {
		write bool
		addr  uint8
		task  uint8
	}
	f := func(raw []uint32) bool {
		d := NewDirectory()
		// Oracle state.
		type mark struct {
			reader   ids.TaskID
			consumed ids.TaskID
		}
		versions := map[memsys.Addr][]ids.TaskID{}
		marks := map[memsys.Addr][]mark{}
		oracleVersionFor := func(a memsys.Addr, r ids.TaskID) ids.TaskID {
			best := ids.None
			for _, v := range versions[a] {
				if !v.After(r) && v.After(best) {
					best = v
				}
			}
			return best
		}
		for _, x := range raw {
			o := op{write: x&1 == 0, addr: uint8(x >> 1 & 3), task: uint8(x >> 3 & 7)}
			a := memsys.Addr(o.addr)
			task := ids.TaskID(o.task) + 1
			if o.write {
				// Oracle violation check.
				want := ids.None
				for _, m := range marks[a] {
					if m.reader.After(task) && m.consumed.Before(task) {
						if want == ids.None || m.reader.Before(want) {
							want = m.reader
						}
					}
				}
				got := d.RecordWrite(a, task)
				if got != want {
					return false
				}
				present := false
				for _, v := range versions[a] {
					if v == task {
						present = true
					}
				}
				if !present {
					versions[a] = append(versions[a], task)
				}
			} else {
				want := oracleVersionFor(a, task)
				got := d.RecordRead(a, task)
				if got != want {
					return false
				}
				marks[a] = append(marks[a], mark{task, want})
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLiveWordsBounded(t *testing.T) {
	d := NewDirectory()
	for task := ids.TaskID(1); task <= 100; task++ {
		d.RecordWrite(4, task)
		d.Commit(task)
	}
	if d.VersionCount(4) != 1 {
		t.Fatalf("VersionCount = %d; commit pruning failed", d.VersionCount(4))
	}
	if d.LiveWords() != 1 {
		t.Fatalf("LiveWords = %d", d.LiveWords())
	}
}

// TestMapsShrinkAfterFullSectionSquash is the regression lock for the
// directory-entry leak: squashing every task of a section must delete the
// emptied word entries and the tasks' footprint marks, not just their
// contents.
func TestMapsShrinkAfterFullSectionSquash(t *testing.T) {
	d := NewDirectory()
	for task := ids.TaskID(1); task <= 32; task++ {
		base := memsys.Addr(task) * 64
		for w := memsys.Addr(0); w < 8; w += 4 {
			d.RecordWrite(base+w, task)
			d.RecordRead(base+w+32, task)
		}
	}
	if d.LiveWords() == 0 || d.LiveTasks() != 32 {
		t.Fatalf("setup: LiveWords = %d, LiveTasks = %d", d.LiveWords(), d.LiveTasks())
	}
	for task := ids.TaskID(1); task <= 32; task++ {
		d.Squash(task)
	}
	if d.LiveWords() != 0 {
		t.Fatalf("LiveWords = %d after full-section squash, want 0", d.LiveWords())
	}
	if d.LiveTasks() != 0 {
		t.Fatalf("LiveTasks = %d after full-section squash, want 0", d.LiveTasks())
	}
}

// TestMapsShrinkAfterCommits: committing the whole section with disjoint
// read-only footprints must likewise drain both tables (the committed
// versions of written words stay live on purpose).
func TestMapsShrinkAfterCommits(t *testing.T) {
	d := NewDirectory()
	for task := ids.TaskID(1); task <= 16; task++ {
		d.RecordRead(memsys.Addr(task)*4, task)
	}
	for task := ids.TaskID(1); task <= 16; task++ {
		d.Commit(task)
	}
	if d.LiveWords() != 0 {
		t.Fatalf("LiveWords = %d after read-only commits, want 0", d.LiveWords())
	}
	if d.LiveTasks() != 0 {
		t.Fatalf("LiveTasks = %d after commits, want 0", d.LiveTasks())
	}
}

// TestManyLiveTasks forces the task-marks ring to grow past its initial
// size with every task still live, then checks each footprint survived.
func TestManyLiveTasks(t *testing.T) {
	d := NewDirectory()
	const n = 500
	for task := ids.TaskID(1); task <= n; task++ {
		d.RecordWrite(memsys.Addr(task)*4, task)
	}
	if d.LiveTasks() != n {
		t.Fatalf("LiveTasks = %d, want %d", d.LiveTasks(), n)
	}
	for k, ts := range view(d).Tasks {
		if want := ids.TaskID(k + 1); ts.Task != want || len(ts.Writes) != 1 {
			t.Fatalf("task %d lost its footprint across ring growth: %+v", want, ts)
		}
	}
	for task := ids.TaskID(1); task <= n; task++ {
		d.Commit(task)
	}
	if d.LiveTasks() != 0 {
		t.Fatalf("LiveTasks = %d after committing all, want 0", d.LiveTasks())
	}
}

// TestDirectoryHotPathAllocFree locks the arena/pooling work: in steady
// state (a section shape already seen once), RecordRead, RecordWrite,
// VersionFor, Squash and Commit must not touch the allocator.
func TestDirectoryHotPathAllocFree(t *testing.T) {
	d := NewDirectory()
	task := ids.TaskID(0)
	section := func() {
		task++
		w, r := task, task+1
		for a := memsys.Addr(0); a < 256; a += 4 {
			d.RecordWrite(a, w)
			d.RecordRead(a, r)
		}
		d.Squash(r)
		d.Commit(w)
		task++
	}
	for i := 0; i < 8; i++ {
		section() // warm up pools to the section's footprint
	}
	if n := testing.AllocsPerRun(100, section); n != 0 {
		t.Fatalf("directory section allocates %.1f allocs/op in steady state, want 0", n)
	}
}

// TestVersionForAllocFree: the read-resolution path alone must be
// allocation-free even on a cold directory.
func TestVersionForAllocFree(t *testing.T) {
	d := NewDirectory()
	for task := ids.TaskID(1); task <= 8; task++ {
		d.RecordWrite(4, task)
	}
	if n := testing.AllocsPerRun(100, func() {
		d.VersionFor(4, ids.TaskID(5))
		d.VersionFor(8, ids.TaskID(5))
	}); n != 0 {
		t.Fatalf("VersionFor allocates %.1f allocs/op, want 0", n)
	}
}

// TestReleasedMarksCarryNoFlags: every commit or squash must clear the
// task's entry flags before its marks return to the pool, whatever the call
// sequence (out-of-order commits, IDs reused after commit), or a later task
// reusing the marks would see phantom own versions.
func TestReleasedMarksCarryNoFlags(t *testing.T) {
	r := rng.New(11)
	d := NewDirectory()
	for step := 0; step < 20000; step++ {
		a := memsys.Addr(r.Intn(300))
		task := ids.TaskID(1 + r.Intn(16))
		switch k := r.Intn(10); {
		case k < 4:
			d.RecordWrite(a, task)
			d.RecordRead(a, task)
		case k < 8:
			d.RecordRead(a, task)
		case k < 9:
			d.Squash(task)
		default:
			d.Commit(task)
		}
		for _, m := range d.marksFree {
			if i := slices.IndexFunc(m.flags, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("step %d: released marks of %v keep flags %#x at word %d", step, m.id, m.flags[i], i)
			}
		}
	}
}

// TestPrivatizedAllocFree: own-version reads and repeat writes, with and
// without the spurious-conflict hook, stay allocation-free in steady state.
func TestPrivatizedAllocFree(t *testing.T) {
	for _, hook := range []bool{false, true} {
		d := NewDirectory()
		if hook {
			d.SetSpuriousConflict(func([]ids.TaskID) ids.TaskID { return ids.None })
		}
		task := ids.TaskID(0)
		section := func() {
			task++
			for a := memsys.Addr(0); a < 256; a++ {
				d.RecordWrite(a, task)
				d.RecordRead(a, task)
				d.RecordWrite(a, task)
				d.RecordRead(a, task+1)
			}
			if task > 4 {
				d.Commit(task - 4)
			}
		}
		for i := 0; i < 16; i++ {
			section()
		}
		if n := testing.AllocsPerRun(100, section); n != 0 {
			t.Fatalf("hook %v: privatized section allocates %.1f allocs/op in steady state, want 0", hook, n)
		}
	}
}
