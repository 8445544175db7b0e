package workload

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/rng"
)

// stored returns a store-backed generator of (p, seed), holding the pair
// often enough for the store to keep its streams.
func stored(store *Store, p Profile, seed uint64) *Generator {
	for i := 0; i < storeMinHolds; i++ {
		store.Hold(p, seed)
	}
	return store.Generator(p, seed)
}

// checkReplay fails t unless every task of a store-backed generator replays
// exactly the stream and instruction count a fresh generator produces.
func checkReplay(t *testing.T, store *Store, p Profile, seed uint64) {
	t.Helper()
	fresh := NewGenerator(p, seed)
	g := stored(store, p, seed)
	if g.set == nil {
		t.Fatalf("%s seed %d: not stored", p.Name, seed)
	}
	var want, got []Op
	for pass := 0; pass < 2; pass++ { // the second pass replays
		for i := 0; i < p.Tasks; i++ {
			var wi, gi int
			want, wi = fresh.Task(i, want)
			got, gi = g.Task(i, got)
			if gi != wi || !slices.Equal(got, want) {
				t.Fatalf("%s seed %d task %d pass %d: stored stream differs from the generated one", p.Name, seed, i, pass)
			}
		}
	}
}

func TestStoreReplaysStandardSuite(t *testing.T) {
	store := NewStore()
	for _, p := range StandardSuite() {
		checkReplay(t, store, p, 1)
		if !store.Resident(p, 1) {
			t.Fatalf("%s: not resident after use", p.Name)
		}
	}
}

func TestStoreReplaysFuzzedProfiles(t *testing.T) {
	store := NewStore()
	r := rng.New(29)
	for i := 0; i < 60; i++ {
		checkReplay(t, store, FuzzProfile(r), uint64(i))
	}
}

// TestStoreStreamsAreTheCallers: a returned stream is the caller's copy, so
// scribbling over it cannot reach the next replay.
func TestStoreStreamsAreTheCallers(t *testing.T) {
	p := StandardScale(Euler())
	g := stored(NewStore(), p, 2)
	want, _ := NewGenerator(p, 2).Task(5, nil)
	ops, _ := g.Task(5, nil)
	for i := range ops {
		ops[i] = makeOp(OpWrite, 0xdead, 777)
	}
	again, _ := g.Task(5, ops[:0])
	if !slices.Equal(again, want) {
		t.Fatal("a scribbled stream leaked into the next replay")
	}
}

// TestStoreGeneratesEachTaskOnce: concurrent first callers of a task share
// one generation.
func TestStoreGeneratesEachTaskOnce(t *testing.T) {
	p := StandardScale(Track())
	store := NewStore()
	stored(store, p, 4)
	want := make([][]Op, p.Tasks)
	fresh := NewGenerator(p, 4)
	for i := range want {
		want[i], _ = fresh.Task(i, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := store.Generator(p, 4)
			var buf []Op
			for k := 0; k < p.Tasks; k++ {
				i := (k + w*7) % p.Tasks
				buf, _ = g.Task(i, buf)
				if !slices.Equal(buf, want[i]) {
					t.Errorf("worker %d task %d: stream differs", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := store.Generator(p, 4).set.fills.Load(); int(n) != p.Tasks {
		t.Fatalf("%d tasks generated %d times", p.Tasks, n)
	}
}

// TestStoreGeneratesTasksOutsideTheSection: indices past the stored
// section are generated, not stored.
func TestStoreGeneratesTasksOutsideTheSection(t *testing.T) {
	p := StandardScale(Bdna())
	p.Tasks = 4
	g := stored(NewStore(), p, 1)
	want, wi := NewGenerator(p, 1).Task(p.Tasks+3, nil)
	got, gi := g.Task(p.Tasks+3, nil)
	if gi != wi || !slices.Equal(got, want) {
		t.Fatal("an out-of-section task differs from the generated one")
	}
	if n := g.set.fills.Load(); n != 0 {
		t.Fatalf("an out-of-section task filled %d stored tasks", n)
	}
}

// TestStoreHoldsAndEviction: a pair is stored only with enough holds, and
// it leaves the store with its last hold.
func TestStoreHoldsAndEviction(t *testing.T) {
	a, b := StandardScale(Apsi()), StandardScale(Tree())
	store := NewStore()
	ga := stored(store, a, 1)
	store.Hold(b, 1)
	if ga.set == nil {
		t.Fatalf("a pair with %d holds is not stored", storeMinHolds)
	}
	if store.Generator(b, 1).set != nil {
		t.Fatal("a pair with one hold is stored")
	}
	if store.Generator(Tree(), 9).set != nil {
		t.Fatal("a pair with no hold is stored")
	}
	ga.Task(0, nil)
	for i := 1; i < storeMinHolds; i++ {
		store.Release(a, 1)
	}
	if !store.Resident(a, 1) {
		t.Fatal("evicted with a hold left")
	}
	if store.Generator(a, 1).set != ga.set {
		t.Fatal("a late user of a stored pair does not replay it")
	}
	store.Release(a, 1)
	store.Release(b, 1)
	if store.Resident(a, 1) || store.Resident(b, 1) {
		t.Fatal("a pair outlived its last hold")
	}
	// A generator handed out before the eviction keeps replaying.
	want, _ := NewGenerator(a, 1).Task(1, nil)
	if got, _ := ga.Task(1, nil); !slices.Equal(got, want) {
		t.Fatal("an evicted pair's generator stopped replaying")
	}
	var nilStore *Store
	if g := nilStore.Generator(a, 1); g.set != nil {
		t.Fatal("a nil store stored streams")
	}
	nilStore.Hold(a, 1)
	nilStore.Release(a, 1)
}
