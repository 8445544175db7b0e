// Package coherence implements the version-ordering side of the speculative
// parallelization protocol the evaluation uses for every buffering scheme
// (Section 4.1): it "supports multiple concurrent versions of the same
// variable in the system, and triggers squashes only on out-of-order RAWs
// to the same word", with a single task-ID tag per cache line.
//
// The directory is the centralized bookkeeping of that protocol: per-word
// version lists ordered by producer task ID, and per-word read marks used
// to detect out-of-order RAWs. Physical placement of version data (which
// cache, the overflow area, or memory) is tracked by the simulator; the
// directory answers the ordering questions: which producer's version must
// a reader observe, and does a write violate a recorded read.
//
// The bookkeeping is arena-backed and allocates in proportion to the
// section's footprint, not per word. Word entries live in fixed chunks of
// chunkSize entries (a new entry appends a chunk when the last is full, so
// no entry is ever copied or moved), are found through a paged address index
// (memsys.PageTable) by entry number, and are recycled through a free list.
// An entry's first version list and first reader list are carved, with a
// capacity of carveCap, from per-directory slabs; only a list that outgrows
// its carve reallocates, and a recycled entry keeps whatever capacity it
// holds. Per-task footprint marks are recycled through a ring keyed by task
// ID, and the hot paths (RecordRead, RecordWrite, VersionFor, Squash, Commit)
// use manual binary searches and insertion sorts instead of the
// closure-allocating sort package helpers, so steady state allocates nothing.
//
// Privatization loops make most reads own-version reads: a task writes its
// version of a word and reads it back. Each task's marks carry two bits per
// entry, "wrote" (the task holds a live version of the word) and "ownRead"
// (it has read that version), so such a read is answered from the task's
// bits alone. It needs no reader mark on the word, because a read whose
// consumed producer is the reader itself can never be violated; the rare
// paths that list readers (the spurious-conflict hook, State, a commit
// that prunes the version of a still-live task) fold the bits back in.
package coherence

import (
	"slices"

	"repro/internal/ids"
	"repro/internal/memsys"
)

// readerMark records that an uncommitted reader observed the version of one
// producer (None = pre-section architectural data). Keeping the minimum
// observed producer makes the violation check conservative and exact: a
// later write W violates reader R iff W is ordered after the oldest value R
// consumed and before R itself.
type readerMark struct {
	reader   ids.TaskID
	consumed ids.TaskID
}

// wordState is the directory entry for one word. Word entries are pooled:
// when a squash or commit empties one it returns to the Directory's free
// list with its slice capacity intact.
type wordState struct {
	addr memsys.Addr
	// versions holds the producers of live versions, ascending by task ID.
	versions []ids.TaskID
	// readers holds the listed marks of uncommitted readers, in no
	// particular order (removeReader swap-deletes; every consumer takes a
	// minimum or sorts). Own-version reads live in the readers' entry
	// flags instead.
	readers []readerMark
}

// Per-entry flag bits of a task, interleaved two bits per entry so one load
// answers both.
const (
	// flagWrote: this incarnation of the task inserted its version of the
	// entry's word, and the version is still live.
	flagWrote = 1
	// flagOwnRead: the task has read that version (only set with flagWrote).
	flagOwnRead = 2
)

// entryFlags is a task's flag bits, indexed by directory entry.
type entryFlags []uint64

func (f entryFlags) get(e int32) uint64 {
	w := uint(e >> 5) // a negative e (no entry) reads as unset
	if w >= uint(len(f)) {
		return 0
	}
	return f[w] >> (uint(e) & 31 * 2) & 3
}

func (f *entryFlags) set(e int32, bits uint64) {
	w := int(e >> 5)
	if n := len(*f); w >= n {
		*f = slices.Grow(*f, w+1-n)[:w+1]
		clear((*f)[n:])
	}
	(*f)[w] |= bits << (uint(e) & 31 * 2)
}

// clear zeroes e's bits and returns what they were.
func (f entryFlags) clear(e int32) uint64 {
	w := uint(e >> 5) // a negative e (no entry) reads as unset
	if w >= uint(len(f)) {
		return 0
	}
	sh := uint(e) & 31 * 2
	old := f[w] >> sh & 3
	f[w] &^= 3 << sh
	return old
}

// taskMarks remembers which words a task touched so that squash and commit
// can clean up in time proportional to the task's footprint.
type taskMarks struct {
	id ids.TaskID
	// writes lists the entries this incarnation inserted its version into.
	// An out-of-order commit may prune that version (the entry may then be
	// recycled for another word), so only an entry whose flagWrote bit is
	// set still holds it; pruned lists the addresses of pruned versions.
	writes []int32
	pruned []memsys.Addr
	// reads lists the entries holding one of the task's listed reader
	// marks; the mark keeps the entry live.
	reads []int32
	flags entryFlags
	// live is the task's index in Directory.live.
	live int
}

// taskSlot is one entry of the task-marks ring: live task IDs occupy the
// slot at index id mod ring-size. Uncommitted tasks form a dense ID window,
// so the ring only grows when the window outgrows it, and committed or
// squashed tasks return their marks to the free pool.
type taskSlot struct {
	id ids.TaskID
	m  *taskMarks
}

// Arena geometry: entries per chunk, and the slab sizes (in list elements)
// that first version and reader lists are carved from, carveCap at a time.
const (
	chunkShift      = 10
	chunkSize       = 1 << chunkShift
	versionSlabSize = 4096
	readerSlabSize  = 2048
	carveCap        = 2
)

// Directory is the global version directory of one speculative section.
type Directory struct {
	// words maps a word address to its entry number, plus one.
	words memsys.PageTable[memsys.Addr, int32]
	// chunks holds the entries, entry i at chunks[i>>chunkShift][i%chunkSize];
	// entries numbers the ones handed out so far.
	chunks  []*[chunkSize]wordState
	entries int32
	// freeWords lists recycled (emptied) entry numbers.
	freeWords []int32
	// versionSlabs and readerSlabs are what first lists are carved from.
	versionSlabs slabs[ids.TaskID]
	readerSlabs  slabs[readerMark]

	// slots is the task-marks ring (power-of-two length); live lists the
	// same marks densely; marksFree pools released marks; livePeak is the
	// most marks live at once since the last Reset.
	slots     []taskSlot
	live      []*taskMarks
	marksFree []*taskMarks
	livePeak  int

	// scratch backs laterReaders.
	scratch []ids.TaskID

	// Statistics.
	violations uint64
	reads      uint64
	writes     uint64

	// spurious, when non-nil, is the fault-injection hook consulted by a
	// conflict-free RecordWrite: given the word's uncommitted readers ordered
	// after the writer (ascending), it may name one to squash as if an
	// out-of-order RAW had been detected. Injected conflicts are not
	// counted as violations.
	spurious func(readers []ids.TaskID) ids.TaskID
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{}
}

// Reset makes d an empty directory, as NewDirectory returns, that keeps
// the storage its last section used for the next one: the index pages
// (as many as were in use at once), the entry chunks the section filled,
// the slabs it carved from (carving starts again at the first), the
// task-marks ring, and as many marks structs, with their lists and flag
// bitmaps, as were live at once. Lists that outgrew their carve and
// bitmaps longer than the section's entries need are dropped, so no part
// carries an earlier, larger section's size forward. Statistics are zeroed
// and the hooks detached. Reset assumes nothing about what the storage
// holds, so a halted or crashed run's directory resets as well as a
// finished one's.
func (d *Directory) Reset() {
	d.words.Reset()
	used := (int(d.entries) + chunkSize - 1) >> chunkShift
	clear(d.chunks[used:])
	d.chunks = d.chunks[:used]
	for _, c := range d.chunks {
		clear(c[:])
	}
	d.versionSlabs.reset()
	d.readerSlabs.reset()
	d.marksFree = append(d.marksFree, d.live...)
	keep := min(len(d.marksFree), d.livePeak)
	clear(d.marksFree[keep:])
	d.marksFree = d.marksFree[:keep]
	words := int(d.entries>>5) + 1 // a flag bitmap never needs more
	for _, m := range d.marksFree {
		flags := m.flags[:0]
		if cap(flags) > words {
			flags = nil
		}
		*m = taskMarks{writes: m.writes[:0], pruned: m.pruned[:0], reads: m.reads[:0], flags: flags}
	}
	clear(d.live)
	clear(d.slots)
	*d = Directory{
		words: d.words, chunks: d.chunks, freeWords: d.freeWords[:0],
		versionSlabs: d.versionSlabs, readerSlabs: d.readerSlabs,
		slots: d.slots, live: d.live[:0], marksFree: d.marksFree,
		scratch: d.scratch[:0],
	}
}

// lowerBound returns the first index i with !v[i].Before(t) (i.e. v[i] >= t)
// in the ascending version list v.
func lowerBound(v []ids.TaskID, t ids.TaskID) int {
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid].Before(t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index i with v[i].After(t) in the ascending
// version list v.
func upperBound(v []ids.TaskID, t ids.TaskID) int {
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid].After(t) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// state returns entry i.
func (d *Directory) state(i int32) *wordState {
	return &d.chunks[i>>chunkShift][i&(chunkSize-1)]
}

// newEntry hands out the next never-used entry, appending a chunk when the
// last one is full.
func (d *Directory) newEntry() int32 {
	if int(d.entries) == len(d.chunks)*chunkSize {
		d.chunks = append(d.chunks, new([chunkSize]wordState))
	}
	d.entries++
	return d.entries - 1
}

// slabs is the arena first lists are carved from: every slab allocated so
// far, of which all[:next] are in use and rest is the uncarved rest of the
// last one taken.
type slabs[T any] struct {
	all  [][]T
	next int
	rest []T
}

// carve cuts an empty list of capacity n, taking the next slab (allocating
// one of size elements when none is left) when the rest is too short. The
// full slice expression caps the list at n, so an append past it
// reallocates instead of running into the next carve.
func (sl *slabs[T]) carve(n, size int) []T {
	if len(sl.rest) < n {
		if sl.next == len(sl.all) {
			sl.all = append(sl.all, make([]T, max(n, size)))
		}
		sl.rest = sl.all[sl.next]
		sl.next++
	}
	s := sl.rest[0:0:n]
	sl.rest = sl.rest[n:]
	return s
}

// reset keeps the slabs carved from since the last reset and makes them
// available for carving again; the caller drops the lists carved so far.
func (sl *slabs[T]) reset() {
	clear(sl.all[sl.next:])
	sl.all, sl.next, sl.rest = sl.all[:sl.next], 0, nil
}

// addVersionSlot makes room for one more version in w, carving the list's
// first capacity from the version slab.
func (d *Directory) addVersionSlot(w *wordState) {
	if cap(w.versions) == 0 {
		w.versions = d.versionSlabs.carve(carveCap, versionSlabSize)
	}
	w.versions = append(w.versions, ids.None)
}

// addReader lists rm among w's readers, carving the list's first capacity
// from the reader slab.
func (d *Directory) addReader(w *wordState, rm readerMark) {
	if cap(w.readers) == 0 {
		w.readers = d.readerSlabs.carve(carveCap, readerSlabSize)
	}
	w.readers = append(w.readers, rm)
}

// entryFor returns the entry number of word a given its index lookup e
// (entry number plus one, 0 = absent), creating the entry (from the free
// list when possible) on first touch.
func (d *Directory) entryFor(a memsys.Addr, e int32) int32 {
	if e != 0 {
		return e - 1
	}
	var i int32
	if n := len(d.freeWords); n > 0 {
		i = d.freeWords[n-1]
		d.freeWords = d.freeWords[:n-1]
	} else {
		i = d.newEntry()
	}
	d.state(i).addr = a
	d.words.Put(a, i+1)
	return i
}

// releaseIfEmpty recycles entry i once it holds no version and no listed
// reader: squash-storm sections (Euler) would otherwise leak directory
// entries for words that are no longer live.
func (d *Directory) releaseIfEmpty(i int32) {
	w := d.state(i)
	if len(w.versions) != 0 || len(w.readers) != 0 {
		return
	}
	d.words.Put(w.addr, 0)
	d.freeWords = append(d.freeWords, i)
}

// marks returns task t's footprint marks, claiming a ring slot (and a
// pooled marks struct) on first touch.
func (d *Directory) marks(t ids.TaskID) *taskMarks {
	for {
		if len(d.slots) == 0 {
			d.slots = make([]taskSlot, 64)
		}
		s := &d.slots[int(uint64(t)&uint64(len(d.slots)-1))]
		if s.m == nil {
			var m *taskMarks
			if n := len(d.marksFree); n > 0 {
				m = d.marksFree[n-1]
				d.marksFree = d.marksFree[:n-1]
			} else {
				m = &taskMarks{}
			}
			m.id, m.live = t, len(d.live)
			d.live = append(d.live, m)
			d.livePeak = max(d.livePeak, len(d.live))
			*s = taskSlot{id: t, m: m}
			return m
		}
		if s.id == t {
			return s.m
		}
		// Live collision: the uncommitted-task window outgrew the ring.
		d.growSlots()
	}
}

// growSlots doubles the ring until every live task hashes to its own slot.
// Live IDs form a window no wider than the uncommitted-task count, so a
// large enough power-of-two ring always separates them.
func (d *Directory) growSlots() {
	old := d.slots
	for size := 2 * len(old); ; size *= 2 {
		slots := make([]taskSlot, size)
		ok := true
		for _, s := range old {
			if s.m == nil {
				continue
			}
			dst := &slots[int(uint64(s.id)&uint64(size-1))]
			if dst.m != nil {
				ok = false
				break
			}
			*dst = s
		}
		if ok {
			d.slots = slots
			return
		}
	}
}

// lookupMarks returns t's marks or nil without claiming a slot.
func (d *Directory) lookupMarks(t ids.TaskID) *taskMarks {
	if len(d.slots) == 0 {
		return nil
	}
	s := &d.slots[int(uint64(t)&uint64(len(d.slots)-1))]
	if s.m != nil && s.id == t {
		return s.m
	}
	return nil
}

// releaseMarks recycles m, whose flags the caller has already cleared, and
// frees its ring slot.
func (d *Directory) releaseMarks(m *taskMarks) {
	m.writes = m.writes[:0]
	m.pruned = m.pruned[:0]
	m.reads = m.reads[:0]
	last := d.live[len(d.live)-1]
	d.live[m.live], last.live = last, m.live
	d.live = d.live[:len(d.live)-1]
	d.marksFree = append(d.marksFree, m)
	d.slots[int(uint64(m.id)&uint64(len(d.slots)-1))] = taskSlot{}
}

// VersionFor returns the producer whose version a read by reader must
// observe: the highest-ID producer at or before reader. None means the
// architectural (pre-section) value.
func (d *Directory) VersionFor(a memsys.Addr, reader ids.TaskID) ids.TaskID {
	e := d.words.Get(a)
	if e == 0 {
		return ids.None
	}
	return versionFor(d.state(e-1).versions, reader)
}

// versionFor is VersionFor over one word's ascending version list.
func versionFor(v []ids.TaskID, reader ids.TaskID) ids.TaskID {
	// First version strictly after reader; the one before it is the answer.
	j := upperBound(v, reader)
	if j == 0 {
		return ids.None
	}
	return v[j-1]
}

// RecordRead registers that reader consumed the current correct version of
// word a and returns that version's producer. The read mark stays until the
// reader commits or is squashed.
func (d *Directory) RecordRead(a memsys.Addr, reader ids.TaskID) ids.TaskID {
	d.reads++
	e := d.words.Get(a)
	if e != 0 {
		// Own-version read: the reader's live version is the latest at or
		// before it, and nothing can violate the read.
		if m := d.lookupMarks(reader); m != nil && m.flags.get(e-1)&flagWrote != 0 {
			m.flags.set(e-1, flagOwnRead)
			return reader
		}
	}
	i := d.entryFor(a, e)
	w := d.state(i)
	producer := versionFor(w.versions, reader)
	if j := findReader(w, reader); j >= 0 {
		if producer.Before(w.readers[j].consumed) {
			w.readers[j].consumed = producer
		}
		return producer
	}
	d.addReader(w, readerMark{reader: reader, consumed: producer})
	m := d.marks(reader)
	m.reads = append(m.reads, i)
	return producer
}

// RecordWrite registers a new version of word a produced by writer and
// checks for an out-of-order RAW: any uncommitted reader ordered after
// writer that consumed a version ordered before writer should have read
// this value. It returns the earliest such reader (the task to squash,
// together with its successors), or None when the write is safe.
//
// A task has at most a single version of any given variable, so a repeated
// write by the same task is idempotent here.
func (d *Directory) RecordWrite(a memsys.Addr, writer ids.TaskID) ids.TaskID {
	d.writes++
	e := d.words.Get(a)
	var i int32
	if m := d.lookupMarks(writer); e != 0 && m != nil && m.flags.get(e-1)&flagWrote != 0 {
		i = e - 1 // repeat write: the version is already in place
	} else {
		i = d.entryFor(a, e)
		w := d.state(i)
		j := lowerBound(w.versions, writer)
		if j == len(w.versions) || w.versions[j] != writer {
			d.addVersionSlot(w)
			copy(w.versions[j+1:], w.versions[j:])
			w.versions[j] = writer
			m := d.marks(writer)
			m.writes = append(m.writes, i)
			m.flags.set(i, flagWrote)
		}
	}
	w := d.state(i)
	victim := ids.None
	for _, rm := range w.readers {
		if rm.reader.After(writer) && rm.consumed.Before(writer) {
			if victim == ids.None || rm.reader.Before(victim) {
				victim = rm.reader
			}
		}
	}
	if victim != ids.None {
		d.violations++
	} else if d.spurious != nil {
		if v := d.spurious(d.laterReaders(i, writer)); v != ids.None {
			victim = v
		}
	}
	return victim
}

// laterReaders returns the readers of entry i ordered after writer,
// ascending and without repeats, in a scratch buffer reused across calls
// (valid until the next RecordWrite): the listed marks plus every live
// task whose ownRead flag is set for i. The sort keeps fault injection
// deterministic.
func (d *Directory) laterReaders(i int32, writer ids.TaskID) []ids.TaskID {
	out := d.scratch[:0]
	for _, rm := range d.state(i).readers {
		if rm.reader.After(writer) {
			out = insertSorted(out, rm.reader)
		}
	}
	for _, m := range d.live {
		if m.id.After(writer) && m.flags.get(i)&flagOwnRead != 0 {
			out = insertSorted(out, m.id)
		}
	}
	d.scratch = out
	return out
}

// insertSorted adds t to the ascending list out unless it is already there.
func insertSorted(out []ids.TaskID, t ids.TaskID) []ids.TaskID {
	i := len(out)
	for i > 0 && t.Before(out[i-1]) {
		i--
	}
	if i > 0 && out[i-1] == t {
		return out
	}
	out = append(out, ids.None)
	copy(out[i+1:], out[i:])
	out[i] = t
	return out
}

// SetSpuriousConflict installs the fault-injection hook consulted on every
// conflict-free write; nil (the default) disables injection.
func (d *Directory) SetSpuriousConflict(h func(readers []ids.TaskID) ids.TaskID) {
	d.spurious = h
}

// findReader returns the index of t's listed mark in w, or -1.
func findReader(w *wordState, t ids.TaskID) int {
	for i := range w.readers {
		if w.readers[i].reader == t {
			return i
		}
	}
	return -1
}

// removeReader deletes t's listed mark from w (order among remaining marks
// is irrelevant: the violation scan takes a minimum and laterReaders sorts).
func removeReader(w *wordState, t ids.TaskID) {
	if i := findReader(w, t); i >= 0 {
		last := len(w.readers) - 1
		w.readers[i] = w.readers[last]
		w.readers = w.readers[:last]
	}
}

// Squash removes every version produced and every read mark left by task t,
// deleting word entries the removal empties. The simulator calls it for
// each squashed task before re-execution.
func (d *Directory) Squash(t ids.TaskID) {
	m := d.lookupMarks(t)
	if m == nil {
		return
	}
	for _, i := range m.writes {
		// A clear flag is a version a commit already pruned, or an entry
		// listed twice and handled earlier in this walk.
		if m.flags.clear(i)&flagWrote == 0 {
			continue
		}
		w := d.state(i)
		j := lowerBound(w.versions, t)
		w.versions = append(w.versions[:j], w.versions[j+1:]...)
		d.releaseIfEmpty(i)
	}
	for _, i := range m.reads {
		removeReader(d.state(i), t)
		d.releaseIfEmpty(i)
	}
	d.releaseMarks(m)
}

// Commit finalizes task t: its read marks are dropped (no uncommitted
// predecessor writer can exist any more) and versions it superseded are
// pruned (no live reader can ever need a version older than a committed
// one).
func (d *Directory) Commit(t ids.TaskID) {
	m := d.lookupMarks(t)
	if m == nil {
		return
	}
	for _, i := range m.reads {
		removeReader(d.state(i), t)
		d.releaseIfEmpty(i)
	}
	for _, i := range m.writes {
		if m.flags.clear(i)&flagWrote != 0 {
			d.pruneBefore(i, t)
		}
	}
	// Where an out-of-order commit pruned t's version, the versions before
	// t written since still go.
	for _, a := range m.pruned {
		if e := d.words.Get(a); e != 0 {
			d.pruneBefore(e-1, t)
		}
	}
	d.releaseMarks(m)
}

// pruneBefore drops entry i's versions ordered before t.
func (d *Directory) pruneBefore(i int32, t ids.TaskID) {
	w := d.state(i)
	j := lowerBound(w.versions, t)
	for _, old := range w.versions[:j] {
		d.unflagPruned(i, old)
	}
	if j > 0 {
		w.versions = append(w.versions[:0], w.versions[j:]...)
	}
	d.releaseIfEmpty(i)
}

// unflagPruned handles the pruning of producer's version of entry i.
// Under in-order commits the producer has committed already; otherwise its
// live incarnation loses its flags for i and records the address as
// pruned, and an own-version read it made becomes the listed mark
// {producer, producer} the read stands for.
func (d *Directory) unflagPruned(i int32, producer ids.TaskID) {
	m := d.lookupMarks(producer)
	if m == nil {
		return
	}
	f := m.flags.clear(i)
	if f == 0 {
		return
	}
	w := d.state(i)
	m.pruned = append(m.pruned, w.addr)
	if f&flagOwnRead == 0 || findReader(w, producer) >= 0 {
		return // no own read, or an earlier listed mark already covers it
	}
	d.addReader(w, readerMark{reader: producer, consumed: producer})
	m.reads = append(m.reads, i)
}

// LiveWords returns the number of directory entries (for memory-bound
// tests). Entries emptied by squash or commit cleanup are deleted, so this
// shrinks when words stop being live.
func (d *Directory) LiveWords() int { return d.words.Len() }

// LiveTasks returns the number of tasks with live footprint marks.
func (d *Directory) LiveTasks() int { return len(d.live) }

// VersionCount returns the number of live versions of word a.
func (d *Directory) VersionCount(a memsys.Addr) int {
	if e := d.words.Get(a); e != 0 {
		return len(d.state(e - 1).versions)
	}
	return 0
}

// Stats returns cumulative (reads, writes, violations detected).
func (d *Directory) Stats() (reads, writes, violations uint64) {
	return d.reads, d.writes, d.violations
}
