package coherence

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/memsys"
)

// The word index maps a word address to its entry in the directory's
// states arena. Addresses are split into a page number (addr >> pageShift)
// and a slot within the page; a page is a dense array of entry numbers
// (index into states plus one, 0 = absent). The workload layout keeps its
// regions compact (the shared read set, the privatized words, the pooled
// task-private regions, the communication words), so the live words fill
// few pages densely and one array load answers a lookup once the page is
// found. The page table is a small open-addressed hash from page number to
// page, sized by the pages in use rather than by the highest address, so
// every 64-bit address takes the same path. Pages that empty are recycled.

const (
	pageShift = 10
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// page holds the entry numbers of pageWords consecutive words.
type page struct {
	num   uint64 // page number: the words' address >> pageShift
	live  int    // non-zero slots
	slots [pageWords]int32
}

// pageRef is one page-table bucket; p == nil marks an empty bucket.
type pageRef struct {
	num uint64
	p   *page
}

// wordIndex is the directory's address → entry map.
type wordIndex struct {
	table []pageRef // open-addressed, linear probing; power-of-two length
	shift uint      // 64 - log2(len(table)), for Fibonacci hashing
	used  int       // occupied buckets
	free  []*page   // emptied pages (all slots zero)
	live  int       // live words
}

// home returns the preferred bucket of page number num.
func (x *wordIndex) home(num uint64) int {
	return int((num * 0x9e3779b97f4a7c15) >> x.shift)
}

// find returns the page holding page number num, or nil.
func (x *wordIndex) find(num uint64) *page {
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

// get returns the entry number of word a (0 = absent).
func (x *wordIndex) get(a memsys.Addr) int32 {
	if p := x.find(uint64(a) >> pageShift); p != nil {
		return p.slots[a&pageMask]
	}
	return 0
}

// set records entry number e (non-zero) for the absent word a.
func (x *wordIndex) set(a memsys.Addr, e int32) {
	num := uint64(a) >> pageShift
	p := x.find(num)
	if p == nil {
		p = x.addPage(num)
	}
	p.slots[a&pageMask] = e
	p.live++
	x.live++
}

// del removes the present word a, recycling its page once it empties.
func (x *wordIndex) del(a memsys.Addr) {
	num := uint64(a) >> pageShift
	p := x.find(num)
	p.slots[a&pageMask] = 0
	p.live--
	x.live--
	if p.live == 0 {
		x.removePage(num)
		x.free = append(x.free, p)
	}
}

// addPage installs an empty page for page number num.
func (x *wordIndex) addPage(num uint64) *page {
	if 2*(x.used+1) > len(x.table) {
		x.grow()
	}
	var p *page
	if n := len(x.free); n > 0 {
		p = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		p = new(page)
	}
	p.num = num
	x.insert(pageRef{num: num, p: p})
	x.used++
	return p
}

// insert places e in the first empty bucket of its probe sequence.
func (x *wordIndex) insert(e pageRef) {
	mask := len(x.table) - 1
	i := x.home(e.num)
	for x.table[i].p != nil {
		i = (i + 1) & mask
	}
	x.table[i] = e
}

// grow doubles the table (load factor stays at most one half).
func (x *wordIndex) grow() {
	old := x.table
	size := 2 * len(old)
	if size == 0 {
		size = 16
	}
	x.table = make([]pageRef, size)
	x.shift = uint(64 - bits.Len(uint(size-1)))
	for _, e := range old {
		if e.p != nil {
			x.insert(e)
		}
	}
}

// removePage deletes page number num from the table with backward-shift
// deletion, which keeps every probe sequence gap-free without tombstones.
func (x *wordIndex) removePage(num uint64) {
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
	x.table[i] = pageRef{}
	x.used--
}

// pages returns the live pages in ascending page-number order, so walking
// their slots visits words in ascending address order.
func (x *wordIndex) pages() []*page {
	ps := make([]*page, 0, x.used)
	for _, e := range x.table {
		if e.p != nil {
			ps = append(ps, e.p)
		}
	}
	slices.SortFunc(ps, func(a, b *page) int { return cmp.Compare(a.num, b.num) })
	return ps
}
