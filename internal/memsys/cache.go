package memsys

import (
	"fmt"

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
	Written  WordMask // words written by Producer (own versions only)
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

func (c *Cache) touch(l *Line) {
	c.useTick++
	l.lastUse = c.useTick
}

// Probe looks up the exact version (tag, producer). It returns the line and
// whether it was found, updating LRU state and hit/miss counters.
func (c *Cache) Probe(tag LineAddr, producer ids.TaskID) (*Line, bool) {
	set := c.set(tag)
	for i := range set {
		l := &set[i]
		if l.Valid() && l.Tag == tag && l.Producer == producer {
			c.touch(l)
			c.hits++
			return l, true
		}
	}
	c.misses++
	return nil, false
}

// Peek is Probe without statistics or LRU side effects.
func (c *Cache) Peek(tag LineAddr, producer ids.TaskID) (*Line, bool) {
	set := c.set(tag)
	for i := range set {
		l := &set[i]
		if l.Valid() && l.Tag == tag && l.Producer == producer {
			return l, true
		}
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
// version as a last resort. It returns nil for an all-invalid set.
func victimAmong(set []Line) *Line {
	var bestReplaceable, bestOwn *Line
	for i := range set {
		l := &set[i]
		if !l.Valid() {
			continue
		}
		if l.Kind == KindOwnVersion {
			if bestOwn == nil || l.lastUse < bestOwn.lastUse {
				bestOwn = l
			}
		} else if bestReplaceable == nil || l.lastUse < bestReplaceable.lastUse {
			bestReplaceable = l
		}
	}
	if bestReplaceable != nil {
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
	if l, ok := c.Peek(tag, producer); ok {
		l.Kind = kind
		c.touch(l)
		return Line{}, false
	}
	set := c.set(tag)
	var slot *Line
	for i := range set {
		if !set[i].Valid() {
			slot = &set[i]
			break
		}
	}
	if slot != nil && c.pressure != nil && c.pressure() {
		// Capacity theft: displace a resident line despite the free way.
		if v := victimAmong(set); v != nil {
			slot = v
		}
	}
	if slot == nil {
		slot = victimAmong(set)
	}
	if slot.Valid() {
		victim = *slot
		displacedDirty = victim.Dirty()
		c.evictions++
	}
	*slot = Line{Tag: tag, Producer: producer, Kind: kind}
	c.touch(slot)
	return victim, displacedDirty
}

// Invalidate removes the exact version (tag, producer) if present and
// returns it.
func (c *Cache) Invalidate(tag LineAddr, producer ids.TaskID) (Line, bool) {
	if l, ok := c.Peek(tag, producer); ok {
		old := *l
		*l = Line{}
		return old, true
	}
	return Line{}, false
}

// InvalidateWhere removes every line for which keep returns true and
// returns how many were removed. Squash recovery under AMM is exactly this:
// gang-invalidating the speculative lines of the offending tasks.
func (c *Cache) InvalidateWhere(match func(*Line) bool) int {
	n := 0
	for i := range c.lines {
		l := &c.lines[i]
		if l.Valid() && match(l) {
			*l = Line{}
			n++
		}
	}
	return n
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

// CountWhere returns the number of valid lines matching the predicate.
func (c *Cache) CountWhere(match func(*Line) bool) int {
	n := 0
	c.ForEach(func(l *Line) {
		if match(l) {
			n++
		}
	})
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

// Flush invalidates the entire cache without writing anything back; tests
// and section boundaries use it.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = Line{}
	}
}
