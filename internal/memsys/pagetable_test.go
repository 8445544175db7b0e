package memsys

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/rng"
)

// keyPool draws n distinct keys laid out like the workload generator's
// address space (a 16K-word shared region at 0, privatized words at 1<<24,
// 96 pooled task-private regions from 1<<26, communication lines at 1<<28),
// plus far keys beyond 2^40 and next to math.MaxUint64, so the table sees
// dense pages, sparse pages and page numbers that no flat table could span.
func keyPool(r *rng.Source, n int) []Addr {
	const regionStride = 1<<16 + 528 // the generator's task-private region size
	seen := map[Addr]bool{}
	var out []Addr
	for len(out) < n {
		var a Addr
		switch r.Intn(7) {
		case 0:
			a = Addr(r.Intn(1 << 14))
		case 1:
			a = 1<<24 + Addr(r.Intn(4096))
		case 2, 3:
			a = 1<<26 + Addr(r.Intn(96))*regionStride + Addr(r.Intn(2048))
		case 4:
			a = 1<<28 + Addr(r.Intn(64))*WordsPerLine
		case 5:
			a = Addr(1)<<40 + Addr(r.Uint64()>>20)
		default:
			a = Addr(math.MaxUint64) - Addr(r.Intn(5000))
		}
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// checkTable compares x against the reference map in full: every pooled
// key, the live count, the pages in use, and the ascending visit.
func checkTable(t *testing.T, x *PageTable[Addr, int32], ref map[Addr]int32, pool []Addr) {
	t.Helper()
	for _, a := range pool {
		if got, want := x.Get(a), ref[a]; got != want {
			t.Fatalf("Get(%v) = %d, reference %d", a, got, want)
		}
	}
	if x.Len() != len(ref) {
		t.Fatalf("Len = %d, reference holds %d", x.Len(), len(ref))
	}
	// A page stays in use exactly as long as one of its keys is present.
	pageSet := map[uint64]bool{}
	for a := range ref {
		pageSet[uint64(a)>>pageShift] = true
	}
	if x.used != len(pageSet) {
		t.Fatalf("%d pages in use, reference spans %d", x.used, len(pageSet))
	}
	var keys []Addr
	ascend(x, func(a Addr, v int32) {
		if v == 0 || ref[a] != v {
			t.Fatalf("ascend visited (%v, %d), reference %d", a, v, ref[a])
		}
		keys = append(keys, a)
	})
	if len(keys) != len(ref) {
		t.Fatalf("ascend visited %d keys, reference holds %d", len(keys), len(ref))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("ascend not ascending at %d: %v then %v", i, keys[i-1], keys[i])
		}
	}
}

func TestPageTableMatchesMap(t *testing.T) {
	r := rng.New(3)
	pool := keyPool(r, 3000)
	var x PageTable[Addr, int32]
	ref := map[Addr]int32{}
	for step := 0; step < 60000; step++ {
		a := pool[r.Intn(len(pool))]
		switch _, ok := ref[a]; {
		case ok && r.Intn(3) == 0:
			// Overwrite a present key.
			e := int32(1 + r.Intn(1<<30))
			x.Put(a, e)
			ref[a] = e
		case ok:
			x.Put(a, 0)
			delete(ref, a)
		case r.Intn(8) == 0:
			// Deleting an absent key is a no-op.
			x.Put(a, 0)
		default:
			e := int32(1 + r.Intn(1<<30))
			x.Put(a, e)
			ref[a] = e
		}
		if step%5000 == 0 {
			checkTable(t, &x, ref, pool)
		}
	}
	checkTable(t, &x, ref, pool)
}

// TestPageTableRecyclesPages: once every key is deleted, every page is back
// on the free list, emptied, and refilling reuses those pages rather than
// allocating new ones.
func TestPageTableRecyclesPages(t *testing.T) {
	pool := keyPool(rng.New(9), 2000)
	var x PageTable[Addr, int32]
	ref := map[Addr]int32{}
	pages := 0
	for round := 0; round < 3; round++ {
		for i, a := range pool[:len(pool)-round*500] {
			x.Put(a, int32(i+1))
			ref[a] = int32(i + 1)
		}
		checkTable(t, &x, ref, pool)
		if round == 0 {
			pages = x.used
		}
		if x.used+len(x.free) != pages {
			t.Fatalf("round %d: refill allocated pages: %d in use + %d free, %d pages existed", round, x.used, len(x.free), pages)
		}
		for a := range ref {
			x.Put(a, 0)
			delete(ref, a)
		}
		checkTable(t, &x, ref, pool)
		if x.used != 0 || len(x.free) != pages {
			t.Fatalf("round %d: %d pages in use and %d on the free list after deleting every key, %d existed", round, x.used, len(x.free), pages)
		}
		for _, p := range x.free {
			if p.live != 0 || slices.ContainsFunc(p.slots[:], func(e int32) bool { return e != 0 }) {
				t.Fatalf("round %d: recycled page %#x is not empty", round, p.num)
			}
		}
	}
}

// TestPageTableTaskIDValues: main memory's instance (line keys, task-ID
// values) keeps the same contract, with None as the absent value.
func TestPageTableTaskIDValues(t *testing.T) {
	var x PageTable[LineAddr, ids.TaskID]
	x.Put(5, 7)
	x.Put(5<<pageShift, 9)
	x.Put(5, 8)
	if x.Get(5) != 8 || x.Get(5<<pageShift) != 9 || x.Len() != 2 || x.used != 2 {
		t.Fatalf("Get = %d, %d; Len %d; pages %d", x.Get(5), x.Get(5<<pageShift), x.Len(), x.used)
	}
	var got []LineAddr
	ascend(&x, func(k LineAddr, _ ids.TaskID) { got = append(got, k) })
	if !slices.Equal(got, []LineAddr{5, 5 << pageShift}) {
		t.Fatalf("ascend keys = %v", got)
	}
	x.Put(5, ids.None)
	if x.Get(5) != ids.None || x.Len() != 1 || x.used != 1 || len(x.free) != 1 {
		t.Fatalf("after delete: Get %d, Len %d, pages %d, free %d", x.Get(5), x.Len(), x.used, len(x.free))
	}
}

// TestPageTableResetKeepsZeroedPages: a reset table keeps as many pages as
// it had in use at once and hands them out again zeroed, whatever they
// held, so a recycled page never leaks an old simulation's values, and the
// next round allocates only the pages it needs beyond those.
func TestPageTableResetKeepsZeroedPages(t *testing.T) {
	r := rng.New(3)
	keys := keyPool(r, 3000)
	var x PageTable[Addr, ids.TaskID]
	for i, k := range keys {
		x.Put(k, ids.TaskID(i+1))
	}
	for _, k := range keys[:500] {
		x.Put(k, ids.None) // some pages empty into the free list
	}
	for round := 0; round < 3; round++ {
		// Scribble over every page, as a halted run could leave it.
		for _, e := range x.table {
			if e.p != nil {
				x.free = append(x.free, e.p)
			}
		}
		for _, p := range x.free {
			for i := range p.slots {
				p.slots[i] = ids.TaskID(i + 7)
			}
			p.live = -1
		}
		peak := x.peak
		x.Reset()
		if x.Len() != 0 || x.used != 0 || len(x.free) != peak || x.Get(keys[600]) != ids.None {
			t.Fatalf("round %d: reset table holds %d keys in %d pages, keeps %d pages, want %d", round, x.Len(), x.used, len(x.free), peak)
		}
		fresh := keyPool(rng.New(uint64(10+round)), 2000+500*round)
		for i, k := range fresh {
			if got := x.Get(k); got != ids.None {
				t.Fatalf("round %d: key %#x reads %v before any Put", round, uint64(k), got)
			}
			x.Put(k, ids.TaskID(i+1))
		}
		n := 0
		ascend(&x, func(k Addr, v ids.TaskID) {
			if v != ids.TaskID(slices.Index(fresh, k)+1) {
				t.Fatalf("round %d: key %#x holds %v, a recycled page kept an old value", round, uint64(k), v)
			}
			n++
		})
		if n != len(fresh) {
			t.Fatalf("round %d: %d keys present, want %d", round, n, len(fresh))
		}
		if got, want := x.used+len(x.free), max(peak, x.peak); got != want {
			t.Fatalf("round %d: table holds %d pages, want %d (%d kept, %d in use at most)", round, got, want, peak, x.peak)
		}
	}
}

// ascend visits every present key of x in ascending order.
func ascend[K ~uint64, V comparable](x *PageTable[K, V], visit func(K, V)) {
	var zero V
	var ps []*page[V]
	for _, e := range x.table {
		if e.p != nil {
			ps = append(ps, e.p)
		}
	}
	slices.SortFunc(ps, func(a, b *page[V]) int { return cmp.Compare(a.num, b.num) })
	for _, p := range ps {
		for off, v := range p.slots {
			if v != zero {
				visit(K(p.num<<pageShift|uint64(off)), v)
			}
		}
	}
}
