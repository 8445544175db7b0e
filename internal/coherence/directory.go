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
// The bookkeeping is arena-backed and allocation-free in steady state: word
// entries live in one slice, are found through a paged address index
// (index.go), and are recycled through a free list (their version and
// reader slices keep their capacity), per-task footprint marks
// are recycled through a ring keyed by task ID, and the hot paths
// (RecordRead, RecordWrite, VersionFor, Squash, Commit) use manual binary
// searches and insertion sorts instead of the closure-allocating sort
// package helpers.
package coherence

import (
	"repro/internal/ids"
	"repro/internal/memsys"
	"repro/internal/obs"
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
	// versions holds the producers of live versions, ascending by task ID.
	versions []ids.TaskID
	// readers holds the uncommitted readers' marks, in first-read order
	// (small-N: scanned linearly).
	readers []readerMark
}

// taskMarks remembers which words a task touched so that squash and commit
// can clean up in time proportional to the task's footprint.
type taskMarks struct {
	writes []memsys.Addr
	reads  []memsys.Addr
}

// taskSlot is one entry of the task-marks ring: live task IDs occupy the
// slot at index id mod ring-size. Uncommitted tasks form a dense ID window,
// so the ring only grows when the window outgrows it, and committed or
// squashed tasks return their marks to the free pool.
type taskSlot struct {
	id ids.TaskID
	m  *taskMarks
}

// Directory is the global version directory of one speculative section.
type Directory struct {
	// words maps a word address to its entry's index in states, plus one.
	words  wordIndex
	states []wordState
	// freeWords indexes recycled (emptied) entries of states.
	freeWords []int32

	// slots is the task-marks ring (power-of-two length); marksFree pools
	// released marks.
	slots     []taskSlot
	marksFree []*taskMarks

	// scratch backs laterReaders; prunedBuf backs Commit's return value.
	scratch   []ids.TaskID
	prunedBuf []PrunedVersion

	// Statistics.
	violations uint64
	reads      uint64
	writes     uint64

	// Observability mirrors of the statistics (nil = disabled, free).
	obsReads      *obs.Counter
	obsWrites     *obs.Counter
	obsViolations *obs.Counter

	// spurious, when non-nil, is the fault-injection hook consulted by a
	// conflict-free RecordWrite: given the word's uncommitted readers ordered
	// after the writer (ascending), it may name one to squash as if an
	// out-of-order RAW had been detected. Injected conflicts are counted
	// apart from genuine violations.
	spurious func(readers []ids.TaskID) ids.TaskID
	injected uint64
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{}
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

// wordFor returns the entry for word a, creating it (from the free list
// when possible) on first touch.
func (d *Directory) wordFor(a memsys.Addr) *wordState {
	if e := d.words.get(a); e != 0 {
		return &d.states[e-1]
	}
	var i int32
	if n := len(d.freeWords); n > 0 {
		i = d.freeWords[n-1]
		d.freeWords = d.freeWords[:n-1]
	} else {
		d.states = append(d.states, wordState{})
		i = int32(len(d.states) - 1)
	}
	d.words.set(a, i+1)
	return &d.states[i]
}

// releaseWord recycles an emptied entry: squash-storm sections (Euler)
// would otherwise leak directory entries for words that are no longer live.
func (d *Directory) releaseWord(a memsys.Addr, i int32) {
	w := &d.states[i]
	w.versions = w.versions[:0]
	w.readers = w.readers[:0]
	d.words.del(a)
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

// releaseMarks recycles t's marks struct and frees its ring slot.
func (d *Directory) releaseMarks(t ids.TaskID) {
	s := &d.slots[int(uint64(t)&uint64(len(d.slots)-1))]
	m := s.m
	m.writes = m.writes[:0]
	m.reads = m.reads[:0]
	d.marksFree = append(d.marksFree, m)
	*s = taskSlot{}
}

// VersionFor returns the producer whose version a read by reader must
// observe: the highest-ID producer at or before reader. None means the
// architectural (pre-section) value.
func (d *Directory) VersionFor(a memsys.Addr, reader ids.TaskID) ids.TaskID {
	e := d.words.get(a)
	if e == 0 {
		return ids.None
	}
	return versionFor(d.states[e-1].versions, reader)
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
	d.obsReads.Inc()
	w := d.wordFor(a)
	producer := versionFor(w.versions, reader)
	for i := range w.readers {
		if w.readers[i].reader == reader {
			if producer.Before(w.readers[i].consumed) {
				w.readers[i].consumed = producer
			}
			return producer
		}
	}
	w.readers = append(w.readers, readerMark{reader: reader, consumed: producer})
	m := d.marks(reader)
	m.reads = append(m.reads, a)
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
	d.obsWrites.Inc()
	w := d.wordFor(a)
	i := lowerBound(w.versions, writer)
	if i == len(w.versions) || w.versions[i] != writer {
		w.versions = append(w.versions, ids.None)
		copy(w.versions[i+1:], w.versions[i:])
		w.versions[i] = writer
		m := d.marks(writer)
		m.writes = append(m.writes, a)
	}
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
		d.obsViolations.Inc()
	} else if d.spurious != nil {
		if v := d.spurious(d.laterReaders(w, writer)); v != ids.None {
			victim = v
			d.injected++
		}
	}
	return victim
}

// laterReaders returns the readers of w ordered after writer, ascending,
// in a scratch buffer reused across calls (valid until the next
// RecordWrite). The sort keeps fault injection deterministic.
func (d *Directory) laterReaders(w *wordState, writer ids.TaskID) []ids.TaskID {
	out := d.scratch[:0]
	for _, rm := range w.readers {
		if !rm.reader.After(writer) {
			continue
		}
		i := len(out)
		out = append(out, rm.reader)
		for i > 0 && out[i].Before(out[i-1]) {
			out[i], out[i-1] = out[i-1], out[i]
			i--
		}
	}
	d.scratch = out
	return out
}

// SetObs installs observability counters mirroring the directory's
// statistics. Nil counters (the default) are free no-ops.
func (d *Directory) SetObs(reads, writes, violations *obs.Counter) {
	d.obsReads = reads
	d.obsWrites = writes
	d.obsViolations = violations
}

// SetSpuriousConflict installs the fault-injection hook consulted on every
// conflict-free write; nil (the default) disables injection.
func (d *Directory) SetSpuriousConflict(h func(readers []ids.TaskID) ids.TaskID) {
	d.spurious = h
}

// InjectedConflicts returns how many squashes were injected rather than
// detected; they are excluded from the violations statistic.
func (d *Directory) InjectedConflicts() uint64 { return d.injected }

// removeReader deletes t's mark from w (order among remaining marks is
// irrelevant: the violation scan takes a minimum and laterReaders sorts).
func removeReader(w *wordState, t ids.TaskID) {
	for i := range w.readers {
		if w.readers[i].reader == t {
			last := len(w.readers) - 1
			w.readers[i] = w.readers[last]
			w.readers = w.readers[:last]
			return
		}
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
	for _, a := range m.writes {
		e := d.words.get(a)
		if e == 0 {
			continue
		}
		i := e - 1
		w := &d.states[i]
		j := lowerBound(w.versions, t)
		if j < len(w.versions) && w.versions[j] == t {
			w.versions = append(w.versions[:j], w.versions[j+1:]...)
		}
		if len(w.versions) == 0 && len(w.readers) == 0 {
			d.releaseWord(a, i)
		}
	}
	for _, a := range m.reads {
		e := d.words.get(a)
		if e == 0 {
			continue
		}
		i := e - 1
		w := &d.states[i]
		removeReader(w, t)
		if len(w.versions) == 0 && len(w.readers) == 0 {
			d.releaseWord(a, i)
		}
	}
	d.releaseMarks(t)
}

// Commit finalizes task t: its read marks are dropped (no uncommitted
// predecessor writer can exist any more) and versions it superseded are
// pruned (no live reader can ever need a version older than a committed
// one). Pruned producers are reported so the simulator can drop any
// lingering storage for them; the returned slice is reused by the next
// Commit call and must not be retained.
func (d *Directory) Commit(t ids.TaskID) []PrunedVersion {
	m := d.lookupMarks(t)
	if m == nil {
		return nil
	}
	pruned := d.prunedBuf[:0]
	for _, a := range m.reads {
		e := d.words.get(a)
		if e == 0 {
			continue
		}
		i := e - 1
		w := &d.states[i]
		removeReader(w, t)
		if len(w.versions) == 0 && len(w.readers) == 0 {
			d.releaseWord(a, i)
		}
	}
	for _, a := range m.writes {
		e := d.words.get(a)
		if e == 0 {
			continue
		}
		i := e - 1
		w := &d.states[i]
		j := lowerBound(w.versions, t)
		for _, old := range w.versions[:j] {
			pruned = append(pruned, PrunedVersion{Addr: a, Producer: old})
		}
		if j > 0 {
			w.versions = append(w.versions[:0], w.versions[j:]...)
		}
		if len(w.versions) == 0 && len(w.readers) == 0 {
			d.releaseWord(a, i)
		}
	}
	d.releaseMarks(t)
	d.prunedBuf = pruned
	if len(pruned) == 0 {
		return nil
	}
	return pruned
}

// PrunedVersion names a superseded version removed at commit time.
type PrunedVersion struct {
	Addr     memsys.Addr
	Producer ids.TaskID
}

// WordsWritten returns the number of distinct words task t has live writes
// for (its written footprint, in words).
func (d *Directory) WordsWritten(t ids.TaskID) int {
	if m := d.lookupMarks(t); m != nil {
		return len(m.writes)
	}
	return 0
}

// WrittenAddrs returns the distinct words task t has live writes for.
func (d *Directory) WrittenAddrs(t ids.TaskID) []memsys.Addr {
	if m := d.lookupMarks(t); m != nil {
		return m.writes
	}
	return nil
}

// LiveWords returns the number of directory entries (for memory-bound
// tests). Entries emptied by squash or commit cleanup are deleted, so this
// shrinks when words stop being live.
func (d *Directory) LiveWords() int { return d.words.live }

// LiveTasks returns the number of tasks with live footprint marks.
func (d *Directory) LiveTasks() int {
	n := 0
	for _, s := range d.slots {
		if s.m != nil {
			n++
		}
	}
	return n
}

// VersionCount returns the number of live versions of word a.
func (d *Directory) VersionCount(a memsys.Addr) int {
	if e := d.words.get(a); e != 0 {
		return len(d.states[e-1].versions)
	}
	return 0
}

// Stats returns cumulative (reads, writes, violations detected).
func (d *Directory) Stats() (reads, writes, violations uint64) {
	return d.reads, d.writes, d.violations
}
