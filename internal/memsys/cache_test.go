package memsys

import (
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func tinyCache(ways int) *Cache {
	// 4 sets of `ways` lines.
	return NewCache(Config{Name: "t", SizeBytes: 4 * ways * LineBytes, Ways: ways})
}

func TestConfigSets(t *testing.T) {
	c := Config{SizeBytes: 32 * 1024, Ways: 2}
	if got := c.Sets(); got != 256 {
		t.Fatalf("32KB 2-way: Sets = %d, want 256", got)
	}
	small := Config{SizeBytes: 64, Ways: 4}
	if got := small.Sets(); got != 1 {
		t.Fatalf("degenerate config: Sets = %d, want 1", got)
	}
}

func TestNewCachePanicsWithoutWays(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "no ways", SizeBytes: 1024},
		{Name: "3 sets", SizeBytes: 3 * 2 * LineBytes, Ways: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCache(%+v) must panic", cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func TestProbeMissThenHit(t *testing.T) {
	c := tinyCache(2)
	if _, ok := c.Probe(5, ids.TaskID(1)); ok {
		t.Fatal("probe of empty cache hit")
	}
	c.Insert(5, ids.TaskID(1), KindOwnVersion)
	l, ok := c.Probe(5, ids.TaskID(1))
	if !ok || l.Tag != 5 || l.Producer != ids.TaskID(1) {
		t.Fatal("probe after insert missed")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d, %d), want (1, 1)", hits, misses)
	}
}

func TestProbeDistinguishesProducers(t *testing.T) {
	c := tinyCache(4)
	c.Insert(5, ids.TaskID(1), KindOwnVersion)
	c.Insert(5, ids.TaskID(2), KindOwnVersion)
	if _, ok := c.Probe(5, ids.TaskID(3)); ok {
		t.Fatal("probe hit a version that was never inserted")
	}
	l, ok := c.Probe(5, ids.TaskID(2))
	if !ok || l.Producer != ids.TaskID(2) {
		t.Fatal("exact version probe failed")
	}
}

func TestInsertSameVersionUpdatesInPlace(t *testing.T) {
	c := tinyCache(2)
	c.Insert(5, ids.TaskID(1), KindOwnVersion)
	victim, dirty := c.Insert(5, ids.TaskID(1), KindCommitted)
	if dirty || victim.Valid() {
		t.Fatal("reinsert displaced a line")
	}
	l, _ := c.Peek(5, ids.TaskID(1))
	if l.Kind != KindCommitted {
		t.Fatal("reinsert did not update kind")
	}
	if n := len(c.VersionsOf(5)); n != 1 {
		t.Fatalf("duplicate lines after reinsert: %d", n)
	}
}

func TestMultipleVersionsSameSet(t *testing.T) {
	// The defining MultiT&MV property: same tag, different task IDs coexist.
	c := tinyCache(4)
	for task := ids.TaskID(1); task <= 4; task++ {
		c.Insert(8, task, KindOwnVersion)
	}
	if got := len(c.VersionsOf(8)); got != 4 {
		t.Fatalf("VersionsOf = %d lines, want 4", got)
	}
}

func TestBestVersionFor(t *testing.T) {
	c := tinyCache(8)
	c.Insert(8, ids.TaskID(2), KindOwnVersion)
	c.Insert(8, ids.TaskID(5), KindOwnVersion)
	c.Insert(8, ids.None, KindCopy) // architectural copy
	tests := []struct {
		reader ids.TaskID
		want   ids.TaskID
	}{
		{ids.TaskID(1), ids.None},      // before all versions: architectural
		{ids.TaskID(2), ids.TaskID(2)}, // own version
		{ids.TaskID(4), ids.TaskID(2)}, // latest predecessor
		{ids.TaskID(9), ids.TaskID(5)},
	}
	for _, tt := range tests {
		got := c.BestVersionFor(8, tt.reader)
		if got == nil {
			t.Fatalf("reader %v: no version found", tt.reader)
		}
		if got.Producer != tt.want {
			t.Errorf("reader %v: producer %v, want %v", tt.reader, got.Producer, tt.want)
		}
	}
}

func TestBestVersionForNone(t *testing.T) {
	c := tinyCache(2)
	c.Insert(8, ids.TaskID(5), KindOwnVersion)
	if got := c.BestVersionFor(8, ids.TaskID(3)); got != nil {
		t.Fatalf("reader T2 got successor's version from %v", got.Producer)
	}
	if got := c.BestVersionFor(9, ids.TaskID(9)); got != nil {
		t.Fatal("version for absent tag")
	}
}

// Property: BestVersionFor returns the maximum producer <= reader among the
// inserted versions, matching a brute-force oracle.
func TestBestVersionForProperty(t *testing.T) {
	f := func(producers []uint8, reader uint8) bool {
		c := tinyCache(16)
		want := ids.TaskID(0)
		found := false
		for _, p := range producers {
			task := ids.TaskID(p%16) + 1
			c.Insert(4, task, KindOwnVersion)
			r := ids.TaskID(reader%16) + 1
			_ = r
		}
		r := ids.TaskID(reader%16) + 1
		for _, p := range producers {
			task := ids.TaskID(p%16) + 1
			if !task.After(r) && (!found || task.After(want)) {
				want, found = task, true
			}
		}
		got := c.BestVersionFor(4, r)
		if !found {
			return got == nil
		}
		return got != nil && got.Producer == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvictionPrefersCopies(t *testing.T) {
	c := tinyCache(2)
	c.Insert(4, ids.TaskID(1), KindOwnVersion)
	c.Insert(8, ids.None, KindCopy) // same set (4 sets: tags 4 and 8 both map to set 0)
	victim, dirty := c.Insert(12, ids.TaskID(2), KindOwnVersion)
	if dirty {
		t.Fatal("displaced a dirty line while a clean copy was present")
	}
	if victim.Kind != KindCopy || victim.Tag != 8 {
		t.Fatalf("victim = %+v, want the clean copy of tag 8", victim)
	}
}

func TestEvictionPrefersCommittedOverSpec(t *testing.T) {
	c := tinyCache(2)
	c.Insert(4, ids.TaskID(1), KindCommitted)
	c.Insert(8, ids.TaskID(2), KindOwnVersion)
	victim, dirty := c.Insert(12, ids.TaskID(3), KindOwnVersion)
	if !dirty || victim.Kind != KindCommitted {
		t.Fatalf("victim = %+v, want the committed-unmerged line", victim)
	}
}

func TestEvictionLRUAmongReplaceable(t *testing.T) {
	// Copies and committed-unmerged lines compete by plain LRU: a hot copy
	// survives a cold committed line.
	c := tinyCache(2)
	c.Insert(4, ids.TaskID(1), KindCommitted)
	c.Insert(8, ids.None, KindCopy)
	c.Probe(8, ids.None) // copy is hotter
	victim, _ := c.Insert(12, ids.TaskID(3), KindOwnVersion)
	if victim.Kind != KindCommitted {
		t.Fatalf("victim = %+v, want the cold committed line", victim)
	}
}

func TestEvictionLRUWithinClass(t *testing.T) {
	c := tinyCache(2)
	c.Insert(4, ids.TaskID(1), KindOwnVersion)
	c.Insert(8, ids.TaskID(2), KindOwnVersion)
	c.Probe(4, ids.TaskID(1)) // touch tag 4; tag 8 becomes LRU
	victim, _ := c.Insert(12, ids.TaskID(3), KindOwnVersion)
	if victim.Tag != 8 {
		t.Fatalf("victim tag = %v, want the LRU line 8", victim.Tag)
	}
}

func TestInvalidate(t *testing.T) {
	c := tinyCache(2)
	c.Insert(4, ids.TaskID(1), KindOwnVersion)
	old, ok := c.Invalidate(4, ids.TaskID(1))
	if !ok || old.Tag != 4 {
		t.Fatal("invalidate missed")
	}
	if _, ok := c.Peek(4, ids.TaskID(1)); ok {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := c.Invalidate(4, ids.TaskID(1)); ok {
		t.Fatal("second invalidate claimed success")
	}
}

func TestInvalidateWhere(t *testing.T) {
	c := tinyCache(4)
	c.Insert(4, ids.TaskID(1), KindOwnVersion)
	c.Insert(8, ids.TaskID(2), KindOwnVersion)
	c.Insert(12, ids.TaskID(3), KindOwnVersion)
	// Squash tasks >= 2.
	n := c.InvalidateWhere(func(l *Line) bool { return !l.Producer.Before(ids.TaskID(2)) })
	if n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if _, ok := c.Peek(4, ids.TaskID(1)); !ok {
		t.Fatal("survivor was invalidated")
	}
}

func TestLocalSpecVersionOwner(t *testing.T) {
	c := tinyCache(4)
	if got := c.LocalSpecVersionOwner(4, ids.TaskID(3)); got != ids.None {
		t.Fatalf("empty cache reported owner %v", got)
	}
	c.Insert(4, ids.TaskID(2), KindOwnVersion)
	if got := c.LocalSpecVersionOwner(4, ids.TaskID(2)); got != ids.None {
		t.Fatal("a task's own version must not block it")
	}
	if got := c.LocalSpecVersionOwner(4, ids.TaskID(3)); got != ids.TaskID(2) {
		t.Fatalf("owner = %v, want T1", got)
	}
	// Copies and committed lines do not trigger the MultiT&SV stall.
	c2 := tinyCache(4)
	c2.Insert(4, ids.TaskID(2), KindCopy)
	c2.Insert(4, ids.TaskID(1), KindCommitted)
	if got := c2.LocalSpecVersionOwner(4, ids.TaskID(3)); got != ids.None {
		t.Fatalf("non-spec lines blocked the write (owner %v)", got)
	}
}

func TestForEach(t *testing.T) {
	c := tinyCache(4)
	c.Insert(4, ids.TaskID(1), KindOwnVersion)
	c.Insert(8, ids.TaskID(1), KindOwnVersion)
	c.Insert(12, ids.TaskID(2), KindOwnVersion)
	total, task1 := 0, 0
	c.ForEach(func(l *Line) {
		total++
		if l.Producer == ids.TaskID(1) {
			task1++
		}
	})
	if total != 3 || task1 != 2 {
		t.Fatalf("ForEach visited %d lines (%d of task 1), want 3 (2)", total, task1)
	}
}

// TestReset: a reset cache is empty, indexed consistently and has zeroed
// statistics, and it works like a new one afterwards.
func TestReset(t *testing.T) {
	c := tinyCache(2)
	c.Insert(4, ids.TaskID(1), KindOwnVersion)
	c.Probe(4, ids.TaskID(1))
	c.SetPressure(func() bool { return true })
	c.Reset()
	if h, m, e := c.Stats(); c.LiveLines() != 0 || c.CheckIndex() != nil || h+m+e != 0 {
		t.Fatal("reset left lines or statistics behind")
	}
	c.Insert(4, ids.TaskID(2), KindOwnVersion)
	if _, dirty := c.Insert(5, ids.TaskID(2), KindOwnVersion); dirty || c.OwnVersions(2) != 2 {
		t.Fatal("a reset cache kept its pressure hook or lost an insert")
	}
}

func TestDirtyClassification(t *testing.T) {
	cases := []struct {
		kind  LineKind
		dirty bool
	}{
		{KindCopy, false},
		{KindOwnVersion, true},
		{KindCommitted, true},
		{KindInvalid, false},
	}
	for _, tt := range cases {
		l := Line{Kind: tt.kind}
		if l.Dirty() != tt.dirty {
			t.Errorf("kind %v: Dirty = %v", tt.kind, l.Dirty())
		}
	}
}

func TestLineKindString(t *testing.T) {
	for k, want := range map[LineKind]string{
		KindInvalid: "invalid", KindCopy: "copy", KindOwnVersion: "own",
		KindCommitted: "committed", LineKind(99): "LineKind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", uint8(k), got, want)
		}
	}
}

// Property: the cache never holds more lines than its capacity and never
// two lines with identical (tag, producer).
func TestCapacityProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := tinyCache(2) // 8 lines total
		for _, op := range ops {
			tag := LineAddr(op % 32)
			task := ids.TaskID(op%5) + 1
			c.Insert(tag, task, KindOwnVersion)
		}
		seen := map[versionKey]bool{}
		count := 0
		dup := false
		c.ForEach(func(l *Line) {
			count++
			k := versionKey{l.Tag, l.Producer}
			if seen[k] {
				dup = true
			}
			seen[k] = true
		})
		return count <= 8 && !dup
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
