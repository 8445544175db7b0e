package coherence

import (
	"cmp"
	"slices"

	"repro/internal/ids"
	"repro/internal/memsys"
)

// This file is the checkpoint surface of the directory. The arena indices,
// free lists and the task-marks ring are physical layout, invisible to the
// protocol, so a checkpoint records only logical state (per-word version and
// reader lists, per-task footprint marks, counters) in a canonical order and
// a restore rebuilds a fresh layout. No protocol answer depends on the order
// inside a list (the violation scan takes a minimum, the spurious-conflict
// hook gets a sorted list, and cleanup order only moves entries between
// arena slots), so State emits one canonical order: words ascending by
// address, each word's versions and readers ascending by task ID, tasks
// ascending by ID, each task's writes and reads ascending by address. A
// task's writes are every word this incarnation inserted a version of,
// including versions a commit has pruned since. Own-version reads, which the live directory keeps
// as per-task flags, appear as ordinary marks.

// ReaderMarkState is one uncommitted reader's mark in a checkpoint.
type ReaderMarkState struct {
	Reader   ids.TaskID
	Consumed ids.TaskID
}

// WordStateState is one word's directory entry in a checkpoint.
type WordStateState struct {
	Addr     memsys.Addr
	Versions []ids.TaskID      // ascending
	Readers  []ReaderMarkState // ascending by reader
}

// TaskMarksState is one live task's footprint marks in a checkpoint.
type TaskMarksState struct {
	Task   ids.TaskID
	Writes []memsys.Addr // ascending
	Reads  []memsys.Addr // ascending
}

// DirectoryState is the serializable state of a Directory.
type DirectoryState struct {
	Words []WordStateState // sorted by address
	Tasks []TaskMarksState // sorted by task ID

	Reads      uint64
	Writes     uint64
	Violations uint64
	Injected   uint64
}

// State captures the directory for a checkpoint. Own-version reads are
// listed like any other read: as the mark {r, r} among the word's Readers
// and as the word's address in task r's Reads.
func (d *Directory) State() DirectoryState {
	s := DirectoryState{
		Reads: d.reads, Writes: d.writes,
		Violations: d.violations, Injected: d.injected,
	}
	tasks := slices.Clone(d.live)
	slices.SortFunc(tasks, func(a, b *taskMarks) int { return cmp.Compare(a.id, b.id) })
	d.words.Ascend(func(a memsys.Addr, e int32) {
		i := e - 1
		w := d.state(i)
		ws := WordStateState{Addr: a, Versions: append([]ids.TaskID(nil), w.versions...)}
		for _, rm := range w.readers {
			ws.Readers = append(ws.Readers, ReaderMarkState{Reader: rm.reader, Consumed: rm.consumed})
		}
		for _, m := range tasks {
			if m.flags.get(i)&flagOwnRead != 0 && findReader(w, m.id) < 0 {
				ws.Readers = append(ws.Readers, ReaderMarkState{Reader: m.id, Consumed: m.id})
			}
		}
		slices.SortFunc(ws.Readers, func(a, b ReaderMarkState) int { return cmp.Compare(a.Reader, b.Reader) })
		s.Words = append(s.Words, ws)
	})
	for _, m := range tasks {
		ts := TaskMarksState{Task: m.id, Writes: append([]memsys.Addr(nil), m.pruned...)}
		for _, i := range m.reads {
			ts.Reads = append(ts.Reads, d.state(i).addr)
		}
		for i := range int32(len(m.flags) * 32) {
			f := m.flags.get(i)
			if f&flagWrote != 0 {
				ts.Writes = append(ts.Writes, d.state(i).addr)
			}
			if f&flagOwnRead != 0 && findReader(d.state(i), m.id) < 0 {
				ts.Reads = append(ts.Reads, d.state(i).addr)
			}
		}
		slices.Sort(ts.Writes)
		ts.Writes = slices.Compact(ts.Writes)
		slices.Sort(ts.Reads)
		s.Tasks = append(s.Tasks, ts)
	}
	return s
}

// RestoreState reinstates a checkpointed directory into d, replacing any
// existing contents with freshly built chunks and slabs. The injection hook
// is left as installed on d (the caller re-installs fault plumbing
// separately).
func (d *Directory) RestoreState(s DirectoryState) {
	d.words = memsys.PageTable[memsys.Addr, int32]{}
	d.chunks, d.entries = nil, 0
	d.freeWords = nil
	d.versionSlab, d.readerSlab = nil, nil
	d.slots = nil
	d.live = nil
	d.marksFree = nil
	d.scratch = nil
	// Word k of the checkpoint becomes entry k.
	for _, ws := range s.Words {
		i := d.newEntry()
		w := d.state(i)
		w.addr = ws.Addr
		w.versions = append(carve(&d.versionSlab, len(ws.Versions), versionSlabSize), ws.Versions...)
		d.words.Put(ws.Addr, i+1)
	}
	// A listed write whose version is still present was inserted by this
	// incarnation (only the live task with that ID can have re-inserted it
	// after a prune); the others were pruned.
	for _, ts := range s.Tasks {
		m := d.marks(ts.Task)
		for _, a := range ts.Writes {
			if i := d.words.Get(a) - 1; i >= 0 && slices.Contains(d.state(i).versions, ts.Task) {
				m.writes = append(m.writes, i)
				m.flags.set(i, flagWrote)
			} else {
				m.pruned = append(m.pruned, a)
			}
		}
	}
	// A read of the reader's own flagged version goes back to its flags.
	for k, ws := range s.Words {
		i := int32(k)
		w := d.state(i)
		for _, rm := range ws.Readers {
			if rm.Consumed == rm.Reader {
				if m := d.lookupMarks(rm.Reader); m != nil && m.flags.get(i)&flagWrote != 0 {
					m.flags.set(i, flagOwnRead)
					continue
				}
			}
			d.addReader(w, readerMark{reader: rm.Reader, consumed: rm.Consumed})
		}
	}
	for _, ts := range s.Tasks {
		m := d.lookupMarks(ts.Task)
		for _, a := range ts.Reads {
			i := d.words.Get(a) - 1
			if i >= 0 && m.flags.get(i)&flagOwnRead == 0 {
				m.reads = append(m.reads, i)
			}
		}
	}
	d.reads, d.writes = s.Reads, s.Writes
	d.violations, d.injected = s.Violations, s.Injected
}
