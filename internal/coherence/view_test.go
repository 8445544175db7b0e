package coherence

import (
	"cmp"
	"slices"

	"repro/internal/ids"
	"repro/internal/memsys"
)

// The tests compare directories through one canonical view of their logical
// state. Arena indices, free lists and the task-marks ring are physical
// layout, invisible to the protocol, so the view lists words ascending by
// address, each word's versions and readers ascending by task ID, tasks
// ascending by ID, and each task's writes and reads ascending by address. A
// task's writes are every word this incarnation inserted a version of,
// including versions a commit has pruned since. Own-version reads, which
// the directory keeps as per-task flags, appear as ordinary marks: {r, r}
// among the word's readers and the word's address in task r's reads.

// readerView is one uncommitted reader's mark.
type readerView struct {
	Reader   ids.TaskID
	Consumed ids.TaskID
}

// wordView is one word's directory entry.
type wordView struct {
	Addr     memsys.Addr
	Versions []ids.TaskID // ascending
	Readers  []readerView // ascending by reader
}

// taskView is one live task's footprint marks.
type taskView struct {
	Task   ids.TaskID
	Writes []memsys.Addr // ascending
	Reads  []memsys.Addr // ascending
}

// dirView is the canonical view of a Directory.
type dirView struct {
	Words []wordView // sorted by address
	Tasks []taskView // sorted by task ID
}

// view captures d's logical state.
func view(d *Directory) dirView {
	var v dirView
	tasks := slices.Clone(d.live)
	slices.SortFunc(tasks, func(a, b *taskMarks) int { return cmp.Compare(a.id, b.id) })
	// The live entries are the ones the word index points at; a released
	// entry keeps its stale address.
	for i := range d.entries {
		w := d.state(i)
		if d.words.Get(w.addr) != i+1 {
			continue
		}
		wv := wordView{Addr: w.addr, Versions: append([]ids.TaskID(nil), w.versions...)}
		for _, rm := range w.readers {
			wv.Readers = append(wv.Readers, readerView{Reader: rm.reader, Consumed: rm.consumed})
		}
		for _, m := range tasks {
			if m.flags.get(i)&flagOwnRead != 0 && findReader(w, m.id) < 0 {
				wv.Readers = append(wv.Readers, readerView{Reader: m.id, Consumed: m.id})
			}
		}
		slices.SortFunc(wv.Readers, func(a, b readerView) int { return cmp.Compare(a.Reader, b.Reader) })
		v.Words = append(v.Words, wv)
	}
	slices.SortFunc(v.Words, func(a, b wordView) int { return cmp.Compare(a.Addr, b.Addr) })
	for _, m := range tasks {
		tv := taskView{Task: m.id, Writes: append([]memsys.Addr(nil), m.pruned...)}
		for _, i := range m.reads {
			tv.Reads = append(tv.Reads, d.state(i).addr)
		}
		for i := range int32(len(m.flags) * 32) {
			f := m.flags.get(i)
			if f&flagWrote != 0 {
				tv.Writes = append(tv.Writes, d.state(i).addr)
			}
			if f&flagOwnRead != 0 && findReader(d.state(i), m.id) < 0 {
				tv.Reads = append(tv.Reads, d.state(i).addr)
			}
		}
		slices.Sort(tv.Writes)
		tv.Writes = slices.Compact(tv.Writes)
		slices.Sort(tv.Reads)
		v.Tasks = append(v.Tasks, tv)
	}
	return v
}
