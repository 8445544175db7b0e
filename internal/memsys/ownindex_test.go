package memsys

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/rng"
)

// ownByScan is the reference for ForEachOwnVersion: a ForEach filter, which
// visits in slot order.
func ownByScan(c *Cache, producer ids.TaskID) []*Line {
	var out []*Line
	c.ForEach(func(l *Line) {
		if l.Producer == producer && l.Kind == KindOwnVersion {
			out = append(out, l)
		}
	})
	return out
}

// checkOwnIndex fails t unless the producer index agrees with a full scan
// for every task, order included. None's lines (architectural data) are not
// indexed.
func checkOwnIndex(t *testing.T, step int, c *Cache, producers int) {
	t.Helper()
	if err := c.CheckIndex(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	for p := ids.First; p <= ids.TaskID(producers); p++ {
		want := ownByScan(c, p)
		var got []*Line
		c.ForEachOwnVersion(p, func(l *Line) { got = append(got, l) })
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: ForEachOwnVersion(%v) visits %d lines, a full scan finds %d (or the order differs)",
				step, p, len(got), len(want))
		}
		if n := c.OwnVersions(p); n != len(want) {
			t.Fatalf("step %d: OwnVersions(%v) = %d, want %d", step, p, n, len(want))
		}
	}
}

// TestOwnIndexMatchesScan drives random inserts (with evictions and
// capacity theft), invalidations, gang invalidations (by scan and through
// the index), kind changes through line pointers, re-tags and resets, and
// compares the producer index with a ForEach filter after every step. Producer counts
// above the set count make producers share buckets.
func TestOwnIndexMatchesScan(t *testing.T) {
	kinds := []LineKind{KindCopy, KindOwnVersion, KindCommitted}
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		c := tinyCache(1 + r.Intn(4))
		producers := 3 + r.Intn(12)
		pressure := func() {
			if seed%2 == 0 {
				c.SetPressure(func() bool { return r.Bool(0.1) })
			}
		}
		pressure()
		pick := func() (LineAddr, ids.TaskID) {
			return LineAddr(r.Intn(24)), ids.TaskID(r.Intn(producers + 1))
		}
		for step := 0; step < 3000; step++ {
			switch op := r.Intn(100); {
			case op < 55:
				tag, p := pick()
				c.Insert(tag, p, kinds[r.Intn(len(kinds))])
			case op < 70:
				tag, p := pick()
				c.Invalidate(tag, p)
			case op < 85:
				// Kind change through a line pointer, as commits do: an
				// own version only ever enters through Insert.
				tag, p := pick()
				if l, ok := c.Peek(tag, p); ok {
					l.Kind = []LineKind{KindCopy, KindCommitted}[r.Intn(2)]
				}
			case op < 90:
				first := ids.TaskID(1 + r.Intn(producers))
				c.InvalidateWhere(func(l *Line) bool {
					return l.Kind == KindOwnVersion && !l.Producer.Before(first)
				})
			case op < 93:
				// Squash recovery's gang invalidation through the index.
				victims := []ids.TaskID{ids.TaskID(1 + r.Intn(producers)), ids.TaskID(1 + r.Intn(producers))}
				if victims[0] == victims[1] {
					victims = victims[:1]
				}
				want := 0
				for _, p := range victims {
					want += len(ownByScan(c, p))
				}
				if n := c.InvalidateOwnVersions(victims); n != want || len(ownByScan(c, victims[0])) != 0 {
					t.Fatalf("step %d: InvalidateOwnVersions(%v) removed %d lines, want %d", step, victims, n, want)
				}
			case op < 97:
				tag, p := pick()
				if l, ok := c.Peek(tag, p); ok {
					c.SetProducer(l, ids.TaskID(r.Intn(producers+1)))
				}
			default:
				c.Reset()
				pressure()
			}
			checkOwnIndex(t, step, c, producers)
		}
	}
}

// TestForEachOwnVersionRechecks: a visit that changes a later line of the
// same producer (commits turn versions into copies) is seen by the walk.
func TestForEachOwnVersionRechecks(t *testing.T) {
	c := tinyCache(4)
	for tag := LineAddr(0); tag < 8; tag++ {
		c.Insert(tag, 3, KindOwnVersion)
	}
	visited := 0
	c.ForEachOwnVersion(3, func(l *Line) {
		visited++
		if other, ok := c.Peek(l.Tag+1, 3); ok {
			other.Kind = KindCopy
		}
	})
	if visited != 4 {
		t.Fatalf("visited %d lines, want every other of 8", visited)
	}
}

// TestLineKeepsItsSize: the index's back link and listed bit live in Line's
// padding, so indexing costs the cache no bytes per way there.
func TestLineKeepsItsSize(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 32 {
		t.Fatalf("Line is %d bytes, want 32", n)
	}
}
