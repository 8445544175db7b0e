package memsys

import "math/bits"

// PageTable is a paged map from 64-bit keys to values; the zero value of V
// means "absent". Keys are split into a page number (key >> pageShift) and a
// slot within the page, and a page is a dense array of values. The
// simulator's keys cluster (the workload layout keeps its regions compact:
// the shared read set, the privatized words, the pooled task-private
// regions, the communication words), so the live keys fill few pages
// densely and one array load answers a lookup once the page is found. The
// page table is a small open-addressed hash from page number to page, sized
// by the pages in use rather than by the highest key, so every 64-bit key
// takes the same path. Pages that empty are recycled.
//
// The version directory maps word addresses to its entry numbers with one,
// and main memory keeps its per-line MTID tags in another. The zero
// PageTable is empty and ready to use.
type PageTable[K ~uint64, V comparable] struct {
	table []pageRef[V] // open-addressed, linear probing; power-of-two length
	shift uint         // 64 - log2(len(table)), for Fibonacci hashing
	used  int          // occupied buckets
	free  []*page[V]   // emptied pages (all slots zero)
	live  int          // non-zero slots
	peak  int          // most pages in use at once since the last Reset
}

// Reset empties the table but keeps, zeroed on the free list, as many of
// its pages as it had in use at once since the last Reset, and its bucket
// array: a table reused by the next simulation (see sim's Release) fills
// from the pages the last one needed instead of allocating, and never
// keeps more than that. It assumes nothing about what the pages hold.
func (x *PageTable[K, V]) Reset() {
	for _, e := range x.table {
		if e.p != nil {
			x.free = append(x.free, e.p)
		}
	}
	if len(x.free) > x.peak {
		clear(x.free[x.peak:])
		x.free = x.free[:x.peak]
	}
	for _, p := range x.free {
		clear(p.slots[:])
		p.live = 0
	}
	clear(x.table)
	x.used, x.live, x.peak = 0, 0, 0
}

const (
	pageShift = 10
	pageSlots = 1 << pageShift
	pageMask  = pageSlots - 1
)

// page holds the values of pageSlots consecutive keys.
type page[V comparable] struct {
	num   uint64 // page number: the keys >> pageShift
	live  int    // non-zero slots
	slots [pageSlots]V
}

// pageRef is one page-table bucket; p == nil marks an empty bucket.
type pageRef[V comparable] struct {
	num uint64
	p   *page[V]
}

// Get returns the value of key k, or the zero value when k is absent.
func (x *PageTable[K, V]) Get(k K) V {
	if p := x.find(uint64(k) >> pageShift); p != nil {
		return p.slots[k&pageMask]
	}
	var zero V
	return zero
}

// Put sets the value of key k. Putting the zero value deletes k, and a page
// whose last key is deleted is recycled.
func (x *PageTable[K, V]) Put(k K, v V) {
	var zero V
	num := uint64(k) >> pageShift
	p := x.find(num)
	if p == nil {
		if v == zero {
			return
		}
		p = x.addPage(num)
	}
	slot := &p.slots[k&pageMask]
	switch was := *slot; {
	case was == zero && v != zero:
		p.live++
		x.live++
	case was != zero && v == zero:
		p.live--
		x.live--
	}
	*slot = v
	if p.live == 0 {
		x.removePage(num)
		x.free = append(x.free, p)
	}
}

// Len returns the number of present keys.
func (x *PageTable[K, V]) Len() int { return x.live }

// home returns the preferred bucket of page number num.
func (x *PageTable[K, V]) home(num uint64) int {
	return int((num * 0x9e3779b97f4a7c15) >> x.shift)
}

// find returns the page holding page number num, or nil.
func (x *PageTable[K, V]) find(num uint64) *page[V] {
	if x.used == 0 {
		return nil
	}
	mask := len(x.table) - 1
	for i := x.home(num); ; i = (i + 1) & mask {
		e := &x.table[i]
		if e.p == nil {
			return nil
		}
		if e.num == num {
			return e.p
		}
	}
}

// addPage installs an empty page for page number num.
func (x *PageTable[K, V]) addPage(num uint64) *page[V] {
	if 2*(x.used+1) > len(x.table) {
		x.grow()
	}
	var p *page[V]
	if n := len(x.free); n > 0 {
		p = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		p = new(page[V])
	}
	p.num = num
	x.insert(pageRef[V]{num: num, p: p})
	x.used++
	x.peak = max(x.peak, x.used)
	return p
}

// insert places e in the first empty bucket of its probe sequence.
func (x *PageTable[K, V]) insert(e pageRef[V]) {
	mask := len(x.table) - 1
	i := x.home(e.num)
	for x.table[i].p != nil {
		i = (i + 1) & mask
	}
	x.table[i] = e
}

// grow doubles the table (load factor stays at most one half).
func (x *PageTable[K, V]) grow() {
	old := x.table
	size := 2 * len(old)
	if size == 0 {
		size = 16
	}
	x.table = make([]pageRef[V], size)
	x.shift = uint(64 - bits.Len(uint(size-1)))
	for _, e := range old {
		if e.p != nil {
			x.insert(e)
		}
	}
}

// removePage deletes page number num from the table with backward-shift
// deletion, which keeps every probe sequence gap-free without tombstones.
func (x *PageTable[K, V]) removePage(num uint64) {
	mask := len(x.table) - 1
	i := x.home(num)
	for x.table[i].num != num || x.table[i].p == nil {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.table[j].p != nil; j = (j + 1) & mask {
		// The entry at j may move into the hole at i only if its home
		// bucket does not lie cyclically in (i, j].
		if h := x.home(x.table[j].num); (j-h)&mask >= (j-i)&mask {
			x.table[i] = x.table[j]
			i = j
		}
	}
	x.table[i] = pageRef[V]{}
	x.used--
}
