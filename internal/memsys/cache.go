package memsys

import (
	"fmt"
	"slices"

	"repro/internal/ids"
)

// LineKind classifies what a cached line holds with respect to the
// buffering taxonomy.
type LineKind uint8

const (
	// KindInvalid marks an empty way.
	KindInvalid LineKind = iota
	// KindCopy is a read-only copy of some version (architectural data when
	// Producer is None, another task's speculative version otherwise). Copies
	// are never dirty and are silently discarded on displacement —
	// "overflowing read-only, non-speculative data is silently discarded".
	KindCopy
	// KindOwnVersion is a dirty version produced by a local task. Under AMM
	// it is part of the distributed MROB while the task is speculative; under
	// FMM it is (part of) the future state.
	KindOwnVersion
	// KindCommitted is a committed version that has not yet merged with main
	// memory — the lingering state of Lazy AMM schemes.
	KindCommitted
)

func (k LineKind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindCopy:
		return "copy"
	case KindOwnVersion:
		return "own"
	case KindCommitted:
		return "committed"
	default:
		return fmt.Sprintf("LineKind(%d)", uint8(k))
	}
}

// Line is one cache way. Every line carries its producer task ID: this is
// the CTID support of Table 1, required by all MultiT schemes, by Lazy AMM
// version combining, and by all FMM schemes.
type Line struct {
	Tag      LineAddr
	Producer ids.TaskID // task that produced this version; None = architectural
	Kind     LineKind
	listed   bool     // on the cache's producer index (see Cache)
	Written  WordMask // words written by Producer (own versions only)
	prev     int32    // previous slot+1 on the index list (0 = head); fills padding
	lastUse  uint64
}

// Valid reports whether the way holds a line.
func (l *Line) Valid() bool { return l.Kind != KindInvalid }

// Dirty reports whether displacing the line loses data unless it is saved.
func (l *Line) Dirty() bool { return l.Kind == KindOwnVersion || l.Kind == KindCommitted }

// Config describes a cache's geometry.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	sets := c.SizeBytes / (LineBytes * c.Ways)
	if sets < 1 {
		sets = 1
	}
	return sets
}

// Cache is a set-associative, write-back cache whose tag match includes the
// producer task ID (CTID + the cache retrieval logic, CRL). A MultiT&MV
// cache may hold several lines with the same address tag and different task
// IDs in the same set; that is exactly what creates same-set version
// pressure for mostly-privatization applications (P3m in Figure 10).
type Cache struct {
	cfg     Config
	sets    int
	setMask uint64 // sets - 1; the set count is a power of two
	ways    int
	lines   []Line
	useTick uint64

	// Statistics.
	hits      uint64
	misses    uint64
	evictions uint64

	// pressure, when non-nil, is the fault-injection capacity thief: an
	// Insert that found a free way consults it and, if it fires, victimizes
	// a resident line of the set anyway. Nil (the default) costs nothing.
	pressure func() bool

	// The producer index, so a commit finds a task's versions without
	// walking the whole cache: every own version of a task enters through
	// Insert, which puts its slot (Line.listed) on the doubly linked list of
	// the producer's bucket, producer mod the set count. A slot stays listed
	// until it is cleared or reused, even after a commit changes the line's
	// kind through a pointer; walks filter on producer and kind. The back
	// links live in the lines' padding (Line.prev), the forward links and
	// the heads here; all hold slot+1 (0 = none). next and heads are
	// allocated once, by the first list: an L1, which only ever holds
	// copies, never needs them, and building a simulator stays as cheap as
	// before. The index is derived state: Insert, Invalidate,
	// InvalidateWhere, InvalidateOwnVersions, SetProducer and Reset keep it,
	// and nothing else changes a line's producer or validity or makes it an
	// own version.
	next  []int32 // per slot
	heads []int32 // per bucket
	own   []int32 // ForEachOwnVersion's slot scratch
}

// NewCache returns an empty cache with the given geometry. The set count
// must be a power of two (it is in every modelled machine), so a line's set
// is its low tag bits.
func NewCache(cfg Config) *Cache {
	if cfg.Ways <= 0 {
		panic("memsys: cache with no ways")
	}
	sets := cfg.Sets()
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("memsys: cache %q has %d sets, not a power of two", cfg.Name, sets))
	}
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(sets - 1),
		ways:    cfg.Ways,
		lines:   make([]Line, sets*cfg.Ways),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// set returns the ways of tag's set.
func (c *Cache) set(tag LineAddr) []Line {
	s := int(uint64(tag) & c.setMask)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// find returns the slot holding version (tag, producer), or -1.
func (c *Cache) find(tag LineAddr, producer ids.TaskID) int {
	base := int(uint64(tag)&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for i := range set {
		// The tag rules most ways out; validity is checked last.
		if l := &set[i]; l.Tag == tag && l.Producer == producer && l.Valid() {
			return base + i
		}
	}
	return -1
}

// bucket returns the index bucket of producer.
func (c *Cache) bucket(producer ids.TaskID) int { return int(uint64(producer) & c.setMask) }

// list puts slot i, which holds an own version, on its producer's bucket
// list unless it is there already. None's lines are not listed.
func (c *Cache) list(i int) {
	l := &c.lines[i]
	if l.listed || l.Producer == ids.None {
		return
	}
	if c.next == nil {
		c.next = make([]int32, len(c.lines))
		c.heads = make([]int32, c.sets)
	}
	b := c.bucket(l.Producer)
	h := c.heads[b]
	c.next[i], l.prev = h, 0
	if h != 0 {
		c.lines[h-1].prev = int32(i + 1)
	}
	c.heads[b] = int32(i + 1)
	l.listed = true
}

// unlist takes slot i off its producer's bucket list, if it is listed; call
// it before the slot's producer changes or the slot is cleared or reused.
func (c *Cache) unlist(i int) {
	l := &c.lines[i]
	if !l.listed {
		return
	}
	prev, next := l.prev, c.next[i]
	if prev != 0 {
		c.next[prev-1] = next
	} else {
		c.heads[c.bucket(l.Producer)] = next
	}
	if next != 0 {
		c.lines[next-1].prev = prev
	}
	c.next[i], l.prev, l.listed = 0, 0, false
}

func (c *Cache) touch(l *Line) {
	c.useTick++
	l.lastUse = c.useTick
}

// Probe looks up the exact version (tag, producer). It returns the line and
// whether it was found, updating LRU state and hit/miss counters.
func (c *Cache) Probe(tag LineAddr, producer ids.TaskID) (*Line, bool) {
	if i := c.find(tag, producer); i >= 0 {
		l := &c.lines[i]
		c.touch(l)
		c.hits++
		return l, true
	}
	c.misses++
	return nil, false
}

// Peek is Probe without statistics or LRU side effects.
func (c *Cache) Peek(tag LineAddr, producer ids.TaskID) (*Line, bool) {
	if i := c.find(tag, producer); i >= 0 {
		return &c.lines[i], true
	}
	return nil, false
}

// VersionsOf returns all valid lines with the given tag, in no particular
// order. This is the multi-match case the cache retrieval logic (CRL) must
// resolve on external requests under MultiT&MV.
func (c *Cache) VersionsOf(tag LineAddr) []*Line {
	var out []*Line
	set := c.set(tag)
	for i := range set {
		l := &set[i]
		if l.Valid() && l.Tag == tag {
			out = append(out, l)
		}
	}
	return out
}

// ForVersionsOf visits every valid line with the given tag in way order —
// the allocation-free form of VersionsOf for hot paths (VCL merging). The
// visitor may mutate the line but must not insert or invalidate.
func (c *Cache) ForVersionsOf(tag LineAddr, visit func(*Line)) {
	set := c.set(tag)
	for i := range set {
		l := &set[i]
		if l.Valid() && l.Tag == tag {
			visit(l)
		}
	}
}

// BestVersionFor performs the CRL selection: among cached versions of tag,
// it returns the one with the highest producer ID that is still at or below
// reader, preferring later versions. Copies and versions alike qualify —
// the reader needs data, not ownership. It returns nil when no qualifying
// version is cached.
func (c *Cache) BestVersionFor(tag LineAddr, reader ids.TaskID) *Line {
	var best *Line
	set := c.set(tag)
	for i := range set {
		l := &set[i]
		if !l.Valid() || l.Tag != tag {
			continue
		}
		if l.Producer.After(reader) {
			continue
		}
		if best == nil || l.Producer.After(best.Producer) {
			best = l
		}
	}
	return best
}

// victimAmong applies the replacement policy to the valid lines of a set,
// ignoring free ways: LRU among replaceable lines first, LRU speculative
// version as a last resort. It returns the victim's way, or -1 for an
// all-invalid set.
func victimAmong(set []Line) int {
	bestReplaceable, bestOwn := -1, -1
	for i := range set {
		l := &set[i]
		if !l.Valid() {
			continue
		}
		if l.Kind == KindOwnVersion {
			if bestOwn < 0 || l.lastUse < set[bestOwn].lastUse {
				bestOwn = i
			}
		} else if bestReplaceable < 0 || l.lastUse < set[bestReplaceable].lastUse {
			bestReplaceable = i
		}
	}
	if bestReplaceable >= 0 {
		return bestReplaceable
	}
	return bestOwn
}

// Insert places a new line, returning the displaced line (by value) and
// whether a displacement of a dirty line occurred. The caller decides what
// to do with the victim (drop, overflow area, VCL merge, memory write-back)
// according to the scheme in force. Inserting a (tag, producer) pair that is
// already present updates it in place with no eviction.
func (c *Cache) Insert(tag LineAddr, producer ids.TaskID, kind LineKind) (victim Line, displacedDirty bool) {
	if kind == KindInvalid {
		panic("memsys: inserting an invalid line")
	}
	// One pass finds the version itself (updated in place) or, failing
	// that, the first free way.
	base := int(uint64(tag)&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	way := -1
	for i := range set {
		l := &set[i]
		if !l.Valid() {
			if way < 0 {
				way = i
			}
		} else if l.Tag == tag && l.Producer == producer {
			l.Kind = kind
			if kind == KindOwnVersion {
				c.list(base + i)
			}
			c.touch(l)
			return Line{}, false
		}
	}
	if way >= 0 && c.pressure != nil && c.pressure() {
		// Capacity theft: displace a resident line despite the free way.
		if v := victimAmong(set); v >= 0 {
			way = v
		}
	}
	if way < 0 {
		way = victimAmong(set)
	}
	slot := base + way
	l := &c.lines[slot]
	if l.Valid() {
		c.unlist(slot)
		victim = *l
		displacedDirty = victim.Dirty()
		c.evictions++
	}
	*l = Line{Tag: tag, Producer: producer, Kind: kind}
	if kind == KindOwnVersion {
		c.list(slot)
	}
	c.touch(l)
	return victim, displacedDirty
}

// Invalidate removes the exact version (tag, producer) if present and
// returns it.
func (c *Cache) Invalidate(tag LineAddr, producer ids.TaskID) (Line, bool) {
	if i := c.find(tag, producer); i >= 0 {
		c.unlist(i)
		old := c.lines[i]
		c.lines[i] = Line{}
		return old, true
	}
	return Line{}, false
}

// InvalidateWhere removes every valid line for which match returns true and
// returns how many were removed. Squash recovery under AMM is exactly this:
// gang-invalidating the speculative lines of the offending tasks.
func (c *Cache) InvalidateWhere(match func(*Line) bool) int {
	n := 0
	for i := range c.lines {
		if l := &c.lines[i]; l.Valid() && match(l) {
			c.unlist(i)
			*l = Line{}
			n++
		}
	}
	return n
}

// InvalidateOwnVersions removes every own version of the given producers,
// found through the producer index instead of a walk over the whole cache,
// and returns how many were removed: squash recovery's gang-invalidation of
// the squashed tasks' versions. The slots are collected first and cleared
// after, so no list is unlinked while it is walked.
func (c *Cache) InvalidateOwnVersions(producers []ids.TaskID) int {
	own := c.own[:0]
	for _, p := range producers {
		own = c.appendOwnSlots(own, p)
	}
	for _, i := range own {
		c.unlist(int(i))
		c.lines[i] = Line{}
	}
	c.own = own
	return len(own)
}

// SetProducer re-tags the valid line l, which must be one of this cache's
// lines, as produced by producer: the fault injector's tag corruption.
func (c *Cache) SetProducer(l *Line, producer ids.TaskID) {
	base := int(uint64(l.Tag)&c.setMask) * c.ways
	for i := base; i < base+c.ways; i++ {
		if &c.lines[i] == l {
			c.unlist(i)
			l.Producer = producer
			if l.Kind == KindOwnVersion {
				c.list(i)
			}
			return
		}
	}
	panic("memsys: SetProducer on a line of another cache")
}

// ForEachOwnVersion visits, in slot order (ForEach's order), every line
// holding an own version of task producer, found through the producer index
// instead of a walk over the whole cache (None's lines are not indexed).
// The visitor may change the line's kind but must not insert, invalidate,
// or call ForEachOwnVersion.
func (c *Cache) ForEachOwnVersion(producer ids.TaskID, visit func(*Line)) {
	for _, i := range c.ownSlots(producer) {
		// Re-checked: an earlier visit may have changed this line.
		if l := &c.lines[i]; l.Producer == producer && l.Kind == KindOwnVersion {
			visit(l)
		}
	}
}

// OwnVersions returns how many lines hold an own version of producer.
func (c *Cache) OwnVersions(producer ids.TaskID) int { return len(c.ownSlots(producer)) }

// ownSlots returns the slots of producer's own versions in ascending
// order, in the cache's scratch.
func (c *Cache) ownSlots(producer ids.TaskID) []int32 {
	own := c.appendOwnSlots(c.own[:0], producer)
	slices.Sort(own)
	c.own = own
	return own
}

// appendOwnSlots appends the slots of producer's own versions to own, in
// list order.
func (c *Cache) appendOwnSlots(own []int32, producer ids.TaskID) []int32 {
	if producer != ids.None && c.heads != nil {
		for i := c.heads[c.bucket(producer)]; i != 0; i = c.next[i-1] {
			if l := &c.lines[i-1]; l.Producer == producer && l.Kind == KindOwnVersion {
				own = append(own, i-1)
			}
		}
	}
	return own
}

// CheckIndex verifies the producer index against a full scan of the cache:
// every listed slot is valid, task-produced, in its producer's bucket and
// consistently linked; the lists hold exactly the slots marked listed; and
// every own version of a task is listed.
func (c *Cache) CheckIndex() error {
	onLists := 0
	for b, h := range c.heads {
		prev := int32(0)
		for i := h; i != 0; i = c.next[i-1] {
			if onLists++; onLists > len(c.lines) {
				return fmt.Errorf("memsys: cache %s: bucket %d list does not end", c.cfg.Name, b)
			}
			l := &c.lines[i-1]
			switch {
			case !l.listed || !l.Valid() || l.Producer == ids.None:
				return fmt.Errorf("memsys: cache %s: slot %d is on a list but holds no listed task line", c.cfg.Name, i-1)
			case c.bucket(l.Producer) != b:
				return fmt.Errorf("memsys: cache %s: slot %d (%v) listed in bucket %d", c.cfg.Name, i-1, l.Producer, b)
			case l.prev != prev:
				return fmt.Errorf("memsys: cache %s: slot %d has a broken back link", c.cfg.Name, i-1)
			}
			prev = i
		}
	}
	marked := 0
	for i := range c.lines {
		l := &c.lines[i]
		if l.listed {
			marked++
		} else if l.Kind == KindOwnVersion && l.Producer != ids.None {
			return fmt.Errorf("memsys: cache %s: own version %#x of %v in slot %d is not listed", c.cfg.Name, uint64(l.Tag), l.Producer, i)
		}
	}
	if onLists != marked {
		return fmt.Errorf("memsys: cache %s: %d slots on lists, %d marked listed", c.cfg.Name, onLists, marked)
	}
	return nil
}

// ForEach visits every valid line. The visitor must not insert or
// invalidate.
func (c *Cache) ForEach(visit func(*Line)) {
	for i := range c.lines {
		if c.lines[i].Valid() {
			visit(&c.lines[i])
		}
	}
}

// LiveLines returns the number of valid lines — the occupancy gauge sampled
// by the observability layer.
func (c *Cache) LiveLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid() {
			n++
		}
	}
	return n
}

// LocalSpecVersionOwner returns the producer of a dirty speculative version
// of tag held locally that belongs to a task other than writer, or None.
// This is the check that makes MultiT&SV stall: "the processor stalls when
// a local speculative task is about to create its own version of a variable
// that already has a speculative version in the local buffer".
func (c *Cache) LocalSpecVersionOwner(tag LineAddr, writer ids.TaskID) ids.TaskID {
	owner := ids.None
	set := c.set(tag)
	for i := range set {
		l := &set[i]
		if l.Valid() && l.Tag == tag && l.Kind == KindOwnVersion && l.Producer != writer {
			if owner == ids.None || l.Producer.Before(owner) {
				owner = l.Producer
			}
		}
	}
	return owner
}

// SetPressure installs the fault-injection capacity thief consulted by
// Insert whenever a free way is found; when it fires, the insert victimizes
// a resident line of the set anyway, forcing speculative versions out to the
// overflow area or to memory. A nil hook (the default) restores normal
// behavior.
func (c *Cache) SetPressure(h func() bool) { c.pressure = h }

// Stats returns cumulative (hits, misses, evictions).
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// Reset empties the cache and zeroes its statistics and LRU clock, keeping
// its line and index arrays, and detaches the pressure hook: the cache is
// then as NewCache returned it, whatever its lines held. A finished
// simulation's caches are reset for the next one (see sim's Release).
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.next)
	clear(c.heads)
	c.own = c.own[:0]
	c.useTick, c.hits, c.misses, c.evictions = 0, 0, 0, 0
	c.pressure = nil
}
