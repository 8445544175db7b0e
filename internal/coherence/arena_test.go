package coherence

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/memsys"
	"repro/internal/rng"
)

// TestChunkBoundaries spreads more than three chunks of entries over every
// address region and drives them through writes, reads, squashes, commits
// and free-list recycling, checking each phase against the reference model.
func TestChunkBoundaries(t *testing.T) {
	r := rng.New(3)
	pool := addrPool(r, 5*chunkSize+200)
	d := NewDirectory()
	ref := newRefDirectory()
	w := newWriteChecker(d, ref)
	const tasks = 8
	read := func(where string, a memsys.Addr, task ids.TaskID) {
		t.Helper()
		if got, want := d.RecordRead(a, task), ref.read(a, task); got != want {
			t.Fatalf("%s: RecordRead(%v, %v) = %v, reference %v", where, a, task, got, want)
		}
	}
	// Task k writes every tasks-th word of the first half and reads some of
	// the second half, so entries hold versions, listed readers or both.
	half := len(pool) / 2
	for i, a := range pool[:half] {
		task := ids.TaskID(1 + i%tasks)
		w.write(t, "write", a, task)
		read("own read", a, task)
		if i%3 == 0 {
			read("cross read", pool[half+i], task%tasks+1)
		}
	}
	if len(d.chunks) <= 3 {
		t.Fatalf("%d entries fill %d chunks, want more than 3", d.entries, len(d.chunks))
	}
	checkDirectory(t, "after writes", d, ref, pool, r)

	// Squashing the later half of the tasks returns their entries to the
	// free list; their re-executions write words of the second half, which
	// take recycled entries before any new chunk.
	for task := ids.TaskID(tasks/2 + 1); task <= tasks; task++ {
		d.Squash(task)
		ref.squash(task)
	}
	checkDirectory(t, "after squash", d, ref, pool, r)
	entries, free := d.entries, len(d.freeWords)
	if free == 0 {
		t.Fatal("squash freed no entry")
	}
	fresh := 0
	for i, a := range pool[half:] {
		task := ids.TaskID(tasks/2 + 1 + i%(tasks/2))
		if d.words.Get(a) == 0 {
			fresh++
		}
		w.write(t, "rewrite", a, task)
		read("own reread", a, task)
	}
	if want := entries + int32(max(0, fresh-free)); d.entries != want {
		t.Fatalf("%d fresh words on %d free entries grew the arena to %d entries, want %d", fresh, free, d.entries, want)
	}
	checkDirectory(t, "after rewrites", d, ref, pool, r)

	for task := ids.TaskID(1); task <= tasks; task++ {
		d.Commit(task)
		ref.commit(task)
		checkDirectory(t, fmt.Sprintf("after committing task %d", task), d, ref, pool, r)
	}
}

// TestCarvedListsDoNotAlias: two entries created one after the other get
// neighbouring carves of the same slabs. Each grows past its carve, and
// neither may see the other's versions or readers.
func TestCarvedListsDoNotAlias(t *testing.T) {
	const a, b = memsys.Addr(100), memsys.Addr(200)
	d := NewDirectory()
	// First touches, in order: neighbouring version carves, then
	// neighbouring reader carves. Every reader is ordered between task 1
	// and the later writers, so it consumes task 1's version and no write
	// violates it.
	d.RecordWrite(a, 1)
	d.RecordWrite(b, 1)
	d.RecordRead(a, 2)
	d.RecordRead(b, 2)
	for task := ids.TaskID(10); task <= 14; task++ {
		d.RecordWrite(a, task)
	}
	for task := ids.TaskID(3); task <= 7; task++ {
		d.RecordRead(a, task)
	}
	for task := ids.TaskID(20); task <= 22; task++ {
		d.RecordWrite(b, task)
	}
	for task := ids.TaskID(3); task <= 5; task++ {
		d.RecordRead(b, task)
	}
	want := []wordView{
		{Addr: a, Versions: []ids.TaskID{1, 10, 11, 12, 13, 14}, Readers: []readerView{
			{2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}, {7, 1},
		}},
		{Addr: b, Versions: []ids.TaskID{1, 20, 21, 22}, Readers: []readerView{
			{2, 1}, {3, 1}, {4, 1}, {5, 1},
		}},
	}
	if got := view(d).Words; !reflect.DeepEqual(got, want) {
		t.Fatalf("words = %+v\nwant    %+v", got, want)
	}
}

// TestFirstTouchAllocs locks the arena's allocation count: starting from a
// fresh directory, each run has a new task first-touch 4096 never-seen
// words and commit. That takes a few chunks, slabs and index pages per run,
// not an allocation per word and no regrowth copy of the entries.
func TestFirstTouchAllocs(t *testing.T) {
	const words = 4096
	d := NewDirectory()
	task := ids.TaskID(0)
	base := memsys.Addr(0)
	n := testing.AllocsPerRun(4, func() {
		task++
		for k := memsys.Addr(0); k < words; k++ {
			d.RecordWrite(base+k, task)
		}
		d.Commit(task)
		base += words
	})
	if n > 16 {
		t.Fatalf("first-touching %d words allocates %.0f times, want <= 16", words, n)
	}
}
