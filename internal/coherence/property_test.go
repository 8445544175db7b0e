package coherence

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/memsys"
	"repro/internal/rng"
	"repro/internal/workload"
)

// addrPool draws n distinct word addresses spread over the generator's four
// regions (shared reads, privatized words, the pooled task-private regions,
// communication words), plus far addresses beyond 2^40 and next to
// math.MaxUint64, so the index sees dense pages, sparse pages and page
// numbers that no flat table could span.
func addrPool(r *rng.Source, n int) []memsys.Addr {
	const regionStride = 1<<16 + 528 // the generator's task-private region size
	seen := map[memsys.Addr]bool{}
	var out []memsys.Addr
	for len(out) < n {
		var a memsys.Addr
		switch r.Intn(7) {
		case 0:
			a = workload.SharedBase + memsys.Addr(r.Intn(1<<14))
		case 1:
			a = workload.PrivBase + memsys.Addr(r.Intn(4096))
		case 2, 3:
			a = workload.UniqueBase + memsys.Addr(r.Intn(96))*regionStride + memsys.Addr(r.Intn(2048))
		case 4:
			a = workload.CommBase + memsys.Addr(r.Intn(64))*memsys.WordsPerLine
		case 5:
			a = memsys.Addr(1)<<40 + memsys.Addr(r.Uint64()>>20)
		default:
			a = memsys.Addr(math.MaxUint64) - memsys.Addr(r.Intn(5000))
		}
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// refDirectory is the map-based reference model of the directory's logical
// state: live versions and reader marks per word, and each live task's
// written and read words. A reader mark keeps the oldest producer the
// reader consumed, which is what violation detection needs.
type refDirectory struct {
	versions map[memsys.Addr]map[ids.TaskID]bool
	readers  map[memsys.Addr]map[ids.TaskID]ids.TaskID // reader → min consumed
	writes   map[ids.TaskID]map[memsys.Addr]bool
	reads    map[ids.TaskID]map[memsys.Addr]bool
}

func newRefDirectory() *refDirectory {
	return &refDirectory{
		versions: map[memsys.Addr]map[ids.TaskID]bool{},
		readers:  map[memsys.Addr]map[ids.TaskID]ids.TaskID{},
		writes:   map[ids.TaskID]map[memsys.Addr]bool{},
		reads:    map[ids.TaskID]map[memsys.Addr]bool{},
	}
}

func addTo[K, V comparable](m map[K]map[V]bool, k K, v V) {
	if m[k] == nil {
		m[k] = map[V]bool{}
	}
	m[k][v] = true
}

func dropFrom[K, V comparable, X any](m map[K]map[V]X, k K, v V) {
	delete(m[k], v)
	if len(m[k]) == 0 {
		delete(m, k)
	}
}

func (r *refDirectory) versionFor(a memsys.Addr, reader ids.TaskID) ids.TaskID {
	best := ids.None
	for v := range r.versions[a] {
		if !v.After(reader) && v.After(best) {
			best = v
		}
	}
	return best
}

// read records t's read of a and returns the producer it consumed.
func (r *refDirectory) read(a memsys.Addr, t ids.TaskID) ids.TaskID {
	p := r.versionFor(a, t)
	if r.readers[a] == nil {
		r.readers[a] = map[ids.TaskID]ids.TaskID{}
	}
	if c, ok := r.readers[a][t]; !ok || p.Before(c) {
		r.readers[a][t] = p
	}
	addTo(r.reads, t, a)
	return p
}

// victim returns the earliest reader a write of a by t violates, or None.
func (r *refDirectory) victim(a memsys.Addr, t ids.TaskID) ids.TaskID {
	v := ids.None
	for reader, consumed := range r.readers[a] {
		if reader.After(t) && consumed.Before(t) && (v == ids.None || reader.Before(v)) {
			v = reader
		}
	}
	return v
}

// laterReaders returns a's readers ordered after t, ascending.
func (r *refDirectory) laterReaders(a memsys.Addr, t ids.TaskID) []ids.TaskID {
	var out []ids.TaskID
	for reader := range r.readers[a] {
		if reader.After(t) {
			out = append(out, reader)
		}
	}
	slices.Sort(out)
	return out
}

func (r *refDirectory) write(a memsys.Addr, t ids.TaskID) {
	if !r.versions[a][t] {
		addTo(r.writes, t, a)
	}
	addTo(r.versions, a, t)
}

func (r *refDirectory) squash(t ids.TaskID) {
	for a := range r.writes[t] {
		dropFrom(r.versions, a, t)
	}
	for a := range r.reads[t] {
		dropFrom(r.readers, a, t)
	}
	delete(r.writes, t)
	delete(r.reads, t)
}

func (r *refDirectory) commit(t ids.TaskID) {
	for a := range r.reads[t] {
		dropFrom(r.readers, a, t)
	}
	for a := range r.writes[t] {
		for v := range r.versions[a] {
			if v.Before(t) {
				dropFrom(r.versions, a, v)
			}
		}
	}
	delete(r.writes, t)
	delete(r.reads, t)
}

func (r *refDirectory) liveWords() int {
	n := len(r.versions)
	for a := range r.readers {
		if r.versions[a] == nil {
			n++
		}
	}
	return n
}

// checkDirectory compares d's answers on every pooled word, and its
// canonical view, against ref.
func checkDirectory(t *testing.T, where string, d *Directory, ref *refDirectory, pool []memsys.Addr, r *rng.Source) {
	t.Helper()
	for _, a := range pool {
		if got, want := d.VersionCount(a), len(ref.versions[a]); got != want {
			t.Fatalf("%s: VersionCount(%v) = %d, reference %d", where, a, got, want)
		}
		reader := ids.TaskID(1 + r.Intn(24))
		if got, want := d.VersionFor(a, reader), ref.versionFor(a, reader); got != want {
			t.Fatalf("%s: VersionFor(%v, %v) = %v, reference %v", where, a, reader, got, want)
		}
	}
	if got, want := d.LiveWords(), ref.liveWords(); got != want {
		t.Fatalf("%s: LiveWords = %d, reference %d", where, got, want)
	}
	s := view(d)
	for i := 1; i < len(s.Words); i++ {
		if s.Words[i-1].Addr >= s.Words[i].Addr {
			t.Fatalf("%s: view words not sorted by address at %d", where, i)
		}
	}
	// The view's reader marks and task reads are the reference's.
	marks := map[memsys.Addr]map[ids.TaskID]ids.TaskID{}
	for _, ws := range s.Words {
		for _, rm := range ws.Readers {
			if marks[ws.Addr] == nil {
				marks[ws.Addr] = map[ids.TaskID]ids.TaskID{}
			}
			marks[ws.Addr][rm.Reader] = rm.Consumed
		}
	}
	if !reflect.DeepEqual(marks, ref.readers) {
		t.Fatalf("%s: view reader marks differ from the reference", where)
	}
	// So are each task's written and read words.
	writes := map[ids.TaskID]map[memsys.Addr]bool{}
	reads := map[ids.TaskID]map[memsys.Addr]bool{}
	for _, ts := range s.Tasks {
		for _, a := range ts.Writes {
			addTo(writes, ts.Task, a)
		}
		for _, a := range ts.Reads {
			addTo(reads, ts.Task, a)
		}
	}
	if !reflect.DeepEqual(writes, ref.writes) || !reflect.DeepEqual(reads, ref.reads) {
		t.Fatalf("%s: view task footprints differ from the reference", where)
	}
}

// writeChecker wraps RecordWrite: it installs a spurious-conflict hook on
// d that captures the readers list it is handed, and checks both the
// returned victim and (for a conflict-free write) the hook's list against
// the reference.
type writeChecker struct {
	d      *Directory
	ref    *refDirectory
	called bool
	got    []ids.TaskID
}

func newWriteChecker(d *Directory, ref *refDirectory) *writeChecker {
	c := &writeChecker{d: d, ref: ref}
	d.SetSpuriousConflict(func(readers []ids.TaskID) ids.TaskID {
		c.called = true
		c.got = append(c.got[:0], readers...)
		return ids.None
	})
	return c
}

// write performs the checked write and returns the victim.
func (c *writeChecker) write(t *testing.T, where string, a memsys.Addr, task ids.TaskID) ids.TaskID {
	t.Helper()
	want := c.ref.victim(a, task)
	wantReaders := c.ref.laterReaders(a, task)
	c.called = false
	got := c.d.RecordWrite(a, task)
	c.ref.write(a, task)
	if got != want {
		t.Fatalf("%s: RecordWrite(%v, %v) victim %v, reference %v", where, a, task, got, want)
	}
	if c.called != (want == ids.None) {
		t.Fatalf("%s: RecordWrite(%v, %v) consulted the spurious hook: %v, victim %v", where, a, task, c.called, want)
	}
	if c.called && !slices.Equal(c.got, wantReaders) {
		t.Fatalf("%s: spurious hook for RecordWrite(%v, %v) got readers %v, reference %v", where, a, task, c.got, wantReaders)
	}
	return got
}

// TestPagedIndexDirectoryProperty drives random RecordRead / RecordWrite /
// Squash / Commit sequences over every address region, including
// out-of-order commits and task IDs reused after commit, and checks the
// directory's answers (versions, violation victims, the spurious-conflict
// hook's readers) and checkpoint round trip against the reference.
func TestPagedIndexDirectoryProperty(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		pool := addrPool(r, 400)
		d := NewDirectory()
		ref := newRefDirectory()
		w := newWriteChecker(d, ref)
		for step := 1; step <= 6000; step++ {
			a := pool[r.Intn(len(pool))]
			task := ids.TaskID(1 + r.Intn(24))
			switch k := r.Intn(20); {
			case k < 9:
				if got, want := d.RecordRead(a, task), ref.read(a, task); got != want {
					t.Fatalf("seed %d step %d: RecordRead(%v, %v) = %v, reference %v", seed, step, a, task, got, want)
				}
			case k < 17:
				w.write(t, fmt.Sprintf("seed %d step %d", seed, step), a, task)
			case k < 19:
				d.Squash(task)
				ref.squash(task)
			default:
				d.Commit(task)
				ref.commit(task)
			}
			if step%500 == 0 {
				checkDirectory(t, fmt.Sprintf("seed %d step %d", seed, step), d, ref, pool, r)
			}
		}
		for task := ids.TaskID(1); task <= 24; task++ {
			d.Squash(task)
			ref.squash(task)
		}
		checkDirectory(t, fmt.Sprintf("seed %d after squashing every task", seed), d, ref, pool, r)
	}
}

// TestProtocolDirectoryProperty drives the directory the way the simulator
// does and checks every answer against the reference: live tasks form a
// window of unique, increasing IDs; the oldest commits, in order; a
// violation squashes the victim and every later live task, which then
// re-execute under the same IDs; and most traffic is privatization, a task
// writing its own version of a word and reading it back.
func TestProtocolDirectoryProperty(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(100 + seed)
		pool := addrPool(r, 300)
		priv, shared := pool[:64], pool[64:]
		d := NewDirectory()
		ref := newRefDirectory()
		w := newWriteChecker(d, ref)
		const window = 12
		head, next := ids.First, ids.First // live tasks are [head, next)
		squashFrom := func(victim ids.TaskID) {
			for task := victim; task < next; task++ {
				d.Squash(task)
				ref.squash(task)
			}
		}
		read := func(where string, a memsys.Addr, task ids.TaskID) {
			if got, want := d.RecordRead(a, task), ref.read(a, task); got != want {
				t.Fatalf("%s: RecordRead(%v, %v) = %v, reference %v", where, a, task, got, want)
			}
		}
		for step := 1; step <= 8000; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			for next-head < window {
				next++
			}
			task := head + ids.TaskID(r.Intn(int(next-head)))
			switch k := r.Intn(20); {
			case k < 8: // privatized: write, then read the version back
				a := priv[r.Intn(len(priv))]
				if v := w.write(t, where, a, task); v != ids.None {
					squashFrom(v)
					break
				}
				for n := r.Intn(3); n >= 0; n-- {
					read(where, a, task)
				}
			case k < 10: // a privatized word read before (or without) writing it
				read(where, priv[r.Intn(len(priv))], task)
			case k < 15:
				read(where, shared[r.Intn(len(shared))], task)
			case k < 18:
				if v := w.write(t, where, shared[r.Intn(len(shared))], task); v != ids.None {
					squashFrom(v)
				}
			default:
				d.Commit(head)
				ref.commit(head)
				head++
			}
			if step%500 == 0 {
				checkDirectory(t, where, d, ref, pool, r)
			}
		}
		for ; head < next; head++ {
			d.Commit(head)
			ref.commit(head)
		}
		checkDirectory(t, fmt.Sprintf("seed %d after committing every task", seed), d, ref, pool, r)
		if d.LiveTasks() != 0 {
			t.Fatalf("seed %d: %d tasks live after committing every task", seed, d.LiveTasks())
		}
	}
}

// TestDirectoryRecyclesPages: squashing every task releases every word, and
// the next section fills the directory again from the recycled entries.
// (Page recycling itself is the page table's own test.)
func TestDirectoryRecyclesPages(t *testing.T) {
	pool := addrPool(rng.New(9), 2000)
	d := NewDirectory()
	for round := 0; round < 3; round++ {
		for i, a := range pool {
			task := ids.TaskID(1 + i%16)
			if i%3 == 0 {
				d.RecordRead(a, task)
			} else {
				d.RecordWrite(a, task)
			}
		}
		if d.LiveWords() != len(pool) {
			t.Fatalf("round %d: %d words live, %d recorded", round, d.LiveWords(), len(pool))
		}
		for task := ids.TaskID(1); task <= 16; task++ {
			d.Squash(task)
		}
		if d.LiveWords() != 0 {
			t.Fatalf("round %d: %d words live after squashing every task", round, d.LiveWords())
		}
	}
}
