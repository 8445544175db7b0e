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

// checkIndex compares x against the reference map in full.
func checkIndex(t *testing.T, x *wordIndex, ref map[memsys.Addr]int32, pool []memsys.Addr) {
	t.Helper()
	for _, a := range pool {
		if got, want := x.get(a), ref[a]; got != want {
			t.Fatalf("get(%v) = %d, reference %d", a, got, want)
		}
	}
	if x.live != len(ref) {
		t.Fatalf("live = %d, reference holds %d", x.live, len(ref))
	}
	pageSet := map[uint64]bool{}
	for a := range ref {
		pageSet[uint64(a)>>pageShift] = true
	}
	ps := x.pages()
	if len(ps) != len(pageSet) || x.used != len(pageSet) {
		t.Fatalf("%d pages listed, %d in use, reference spans %d", len(ps), x.used, len(pageSet))
	}
	for i, p := range ps {
		if !pageSet[p.num] || (i > 0 && ps[i-1].num >= p.num) {
			t.Fatalf("pages() not the ascending set of live pages at %d (page %#x)", i, p.num)
		}
	}
}

func TestWordIndexMatchesMap(t *testing.T) {
	r := rng.New(3)
	pool := addrPool(r, 3000)
	var x wordIndex
	ref := map[memsys.Addr]int32{}
	for step := 0; step < 60000; step++ {
		a := pool[r.Intn(len(pool))]
		if _, ok := ref[a]; ok {
			x.del(a)
			delete(ref, a)
		} else {
			e := int32(1 + r.Intn(1<<30))
			x.set(a, e)
			ref[a] = e
		}
		if step%5000 == 0 {
			checkIndex(t, &x, ref, pool)
		}
	}
	checkIndex(t, &x, ref, pool)
	// Releasing every word must return every page to the free list.
	for a := range ref {
		x.del(a)
		delete(ref, a)
	}
	checkIndex(t, &x, ref, pool)
	if x.used != 0 {
		t.Fatalf("%d pages still in use after every word was released", x.used)
	}
	peak := len(x.free)
	for _, p := range x.free {
		if p.live != 0 || slices.ContainsFunc(p.slots[:], func(e int32) bool { return e != 0 }) {
			t.Fatalf("recycled page %#x is not empty", p.num)
		}
	}
	// Refilling reuses the recycled pages instead of allocating new ones.
	for i, a := range pool[:len(pool)/2] {
		x.set(a, int32(i+1))
		ref[a] = int32(i + 1)
	}
	checkIndex(t, &x, ref, pool)
	if x.used+len(x.free) != peak {
		t.Fatalf("refill allocated pages: %d in use + %d free, %d pages existed", x.used, len(x.free), peak)
	}
}

// refDirectory is the map-based reference model of the directory's logical
// state: live versions and reader marks per word, and each live task's
// written and read words.
type refDirectory struct {
	versions map[memsys.Addr]map[ids.TaskID]bool
	readers  map[memsys.Addr]map[ids.TaskID]bool
	writes   map[ids.TaskID]map[memsys.Addr]bool
	reads    map[ids.TaskID]map[memsys.Addr]bool
}

func newRefDirectory() *refDirectory {
	return &refDirectory{
		versions: map[memsys.Addr]map[ids.TaskID]bool{},
		readers:  map[memsys.Addr]map[ids.TaskID]bool{},
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

func dropFrom[K, V comparable](m map[K]map[V]bool, k K, v V) {
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

func (r *refDirectory) read(a memsys.Addr, t ids.TaskID) {
	addTo(r.readers, a, t)
	addTo(r.reads, t, a)
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

// livePages returns the number of distinct pages holding live words.
func (r *refDirectory) livePages() int {
	pages := map[uint64]bool{}
	for a := range r.versions {
		pages[uint64(a)>>pageShift] = true
	}
	for a := range r.readers {
		pages[uint64(a)>>pageShift] = true
	}
	return len(pages)
}

// checkDirectory compares d's answers on every pooled word against ref and
// returns d's State after checking that it survives a restore unchanged.
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
	// A page stays in use exactly as long as one of its words is live.
	if got, want := d.words.used, ref.livePages(); got != want {
		t.Fatalf("%s: %d pages in use, live words span %d", where, got, want)
	}
	s := d.State()
	for i := 1; i < len(s.Words); i++ {
		if s.Words[i-1].Addr >= s.Words[i].Addr {
			t.Fatalf("%s: snapshot words not sorted by address at %d", where, i)
		}
	}
	restored := NewDirectory()
	restored.RestoreState(s)
	if s2 := restored.State(); !reflect.DeepEqual(s, s2) {
		t.Fatalf("%s: State → RestoreState → State changed the snapshot", where)
	}
}

// TestPagedIndexDirectoryProperty drives random RecordRead / RecordWrite /
// Squash / Commit sequences over every address region and checks the
// directory's answers and checkpoint round trip against the reference.
func TestPagedIndexDirectoryProperty(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		pool := addrPool(r, 400)
		d := NewDirectory()
		ref := newRefDirectory()
		for step := 1; step <= 6000; step++ {
			a := pool[r.Intn(len(pool))]
			task := ids.TaskID(1 + r.Intn(24))
			switch k := r.Intn(20); {
			case k < 9:
				if got, want := d.RecordRead(a, task), ref.versionFor(a, task); got != want {
					t.Fatalf("seed %d step %d: RecordRead(%v, %v) = %v, reference %v", seed, step, a, task, got, want)
				}
				ref.read(a, task)
			case k < 17:
				d.RecordWrite(a, task)
				ref.write(a, task)
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

// TestDirectoryRecyclesPages: once squashes release every word, every page
// is back on the free list, and the next section reuses them.
func TestDirectoryRecyclesPages(t *testing.T) {
	pool := addrPool(rng.New(9), 2000)
	d := NewDirectory()
	pages := 0
	for round := 0; round < 3; round++ {
		for i, a := range pool {
			task := ids.TaskID(1 + i%16)
			if i%3 == 0 {
				d.RecordRead(a, task)
			} else {
				d.RecordWrite(a, task)
			}
		}
		if round == 0 {
			pages = d.words.used
		}
		for task := ids.TaskID(1); task <= 16; task++ {
			d.Squash(task)
		}
		if d.LiveWords() != 0 || d.words.used != 0 {
			t.Fatalf("round %d: %d words in %d pages live after squashing every task", round, d.LiveWords(), d.words.used)
		}
		if len(d.words.free) != pages {
			t.Fatalf("round %d: %d pages on the free list, %d were in use", round, len(d.words.free), pages)
		}
	}
}
