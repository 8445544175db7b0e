package coherence

import (
	"sort"

	"repro/internal/ids"
	"repro/internal/memsys"
)

// This file is the checkpoint surface of the directory. The arena indices,
// free lists and the task-marks ring are physical layout, invisible to the
// protocol, so a checkpoint records only logical state (per-word version and
// reader lists, per-task footprint marks, counters) in a canonical order and
// a restore rebuilds a fresh layout. Order inside each list is preserved
// verbatim: the reader-mark scan and the mark-driven cleanup walks visit
// entries in list order, so reordering them would change downstream timing.

// ReaderMarkState is one uncommitted reader's mark in a checkpoint.
type ReaderMarkState struct {
	Reader   ids.TaskID
	Consumed ids.TaskID
}

// WordStateState is one word's directory entry in a checkpoint.
type WordStateState struct {
	Addr     memsys.Addr
	Versions []ids.TaskID      // ascending, verbatim
	Readers  []ReaderMarkState // first-read order, verbatim
}

// TaskMarksState is one live task's footprint marks in a checkpoint.
type TaskMarksState struct {
	Task   ids.TaskID
	Writes []memsys.Addr // first-write order, verbatim
	Reads  []memsys.Addr // first-read order, verbatim
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

// State captures the directory for a checkpoint.
func (d *Directory) State() DirectoryState {
	s := DirectoryState{
		Reads: d.reads, Writes: d.writes,
		Violations: d.violations, Injected: d.injected,
	}
	for _, p := range d.words.pages() {
		for off, e := range p.slots {
			if e == 0 {
				continue
			}
			w := &d.states[e-1]
			ws := WordStateState{
				Addr:     memsys.Addr(p.num<<pageShift | uint64(off)),
				Versions: append([]ids.TaskID(nil), w.versions...),
			}
			for _, rm := range w.readers {
				ws.Readers = append(ws.Readers, ReaderMarkState{Reader: rm.reader, Consumed: rm.consumed})
			}
			s.Words = append(s.Words, ws)
		}
	}
	for _, slot := range d.slots {
		if slot.m == nil {
			continue
		}
		s.Tasks = append(s.Tasks, TaskMarksState{
			Task:   slot.id,
			Writes: append([]memsys.Addr(nil), slot.m.writes...),
			Reads:  append([]memsys.Addr(nil), slot.m.reads...),
		})
	}
	sort.Slice(s.Tasks, func(i, j int) bool { return s.Tasks[i].Task < s.Tasks[j].Task })
	return s
}

// RestoreState reinstates a checkpointed directory into d, replacing any
// existing contents with a freshly built arena. The injection hook is left
// as installed on d (the caller re-installs fault plumbing separately).
func (d *Directory) RestoreState(s DirectoryState) {
	d.words = wordIndex{}
	d.states = make([]wordState, 0, len(s.Words))
	d.freeWords = nil
	d.slots = nil
	d.marksFree = nil
	d.scratch = nil
	d.prunedBuf = nil
	for _, ws := range s.Words {
		d.states = append(d.states, wordStateFrom(ws))
		d.words.set(ws.Addr, int32(len(d.states)))
	}
	for _, ts := range s.Tasks {
		m := d.marks(ts.Task)
		m.writes = append(m.writes[:0], ts.Writes...)
		m.reads = append(m.reads[:0], ts.Reads...)
	}
	d.reads, d.writes = s.Reads, s.Writes
	d.violations, d.injected = s.Violations, s.Injected
}

// wordStateFrom builds a wordState from its checkpoint form.
func wordStateFrom(ws WordStateState) wordState {
	w := wordState{versions: append([]ids.TaskID(nil), ws.Versions...)}
	for _, rm := range ws.Readers {
		w.readers = append(w.readers, readerMark{reader: rm.Reader, consumed: rm.Consumed})
	}
	return w
}
