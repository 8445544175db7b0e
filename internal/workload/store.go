package workload

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Store holds the task streams of the (profile, seed) pairs that a batch of
// simulations shares, so each stream is generated once per batch instead of
// once per simulation. A stream is a pure function of (profile, seed,
// index), which is what makes replaying a stored copy indistinguishable from
// generating it again.
//
// Each stream is kept as generated, 8 bytes per operation (Op), with the
// task's instruction count beside it.
//
// Every user of a pair holds it (Hold) until it is done (Release), and the
// pair's streams leave the store with its last hold. Streams are stored only
// for a pair with at least storeMinHolds holds when its first generator is
// built: a stored pair keeps its whole section in memory until its last
// user is done, which pays back only when several simulations replay it. A
// Store is safe for concurrent use, and a nil *Store stores nothing.
type Store struct {
	mu   sync.Mutex
	sets map[storeKey]*storeEntry
}

// storeKey names one pair. A profile holding a NaN never equals itself, so
// such a key cannot be found again; Generator bypasses the store for it.
type storeKey struct {
	prof Profile
	seed uint64
}

type storeEntry struct {
	holds int
	set   *streamSet
}

// streamSet is the stored streams of one (profile, seed) pair, one slot per
// task index, each filled on first use.
type streamSet struct {
	tasks []storedTask
	fills atomic.Int32 // tasks generated so far
}

// storedTask is one task's stream. once guards the fill, so concurrent
// first callers generate the task once and all read the result.
type storedTask struct {
	once  sync.Once
	ops   []Op
	instr int
}

// storeMinHolds is the fewest users a pair needs to be stored. A figure's
// grid runs each application's baseline and every scheme (8 to 10 users);
// a single cell and its baseline (2 users, as Figure 10's larger-L2 run)
// would hold a whole section in memory to save one generation.
const storeMinHolds = 3

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{sets: make(map[storeKey]*storeEntry)}
}

// Generator returns the generator of (prof, seed). For a stored pair its
// Task replays the store's copy of each stream, generating the copy on
// first use; the returned streams are the caller's own, exactly as
// Generator.Task's. A pair that is not stored (too few holds, or a nil
// store) gets NewGenerator(prof, seed).
func (s *Store) Generator(prof Profile, seed uint64) *Generator {
	g := NewGenerator(prof, seed)
	k := storeKey{prof, seed}
	if s == nil || k != k {
		return g
	}
	s.mu.Lock()
	if e := s.sets[k]; e != nil {
		if e.set == nil && e.holds >= storeMinHolds {
			e.set = &streamSet{tasks: make([]storedTask, prof.Tasks)}
		}
		g.set = e.set
	}
	s.mu.Unlock()
	return g
}

// Hold records one more pending user of (prof, seed).
func (s *Store) Hold(prof Profile, seed uint64) {
	k := storeKey{prof, seed}
	if s == nil || k != k {
		return
	}
	s.mu.Lock()
	e := s.sets[k]
	if e == nil {
		e = new(storeEntry)
		s.sets[k] = e
	}
	e.holds++
	s.mu.Unlock()
}

// Release drops one hold on (prof, seed); the pair's streams leave the
// store with its last hold. Generators already handed out keep replaying
// the streams they reference.
func (s *Store) Release(prof Profile, seed uint64) {
	k := storeKey{prof, seed}
	if s == nil || k != k {
		return
	}
	s.mu.Lock()
	if e := s.sets[k]; e != nil {
		if e.holds--; e.holds <= 0 {
			delete(s.sets, k)
		}
	}
	s.mu.Unlock()
}

// Resident reports whether the store keeps (prof, seed): the pair has
// holds (and, once a generator was built with enough of them, streams).
func (s *Store) Resident(prof Profile, seed uint64) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sets[storeKey{prof, seed}]
	return ok
}

// replay returns the stream of task index of the section, copied from the
// store into buf. The first caller of a task generates it into buf and
// stores a copy; concurrent first callers wait for that and copy it.
func (set *streamSet) replay(g *Generator, index int, buf []Op) (ops []Op, instr int) {
	t := &set.tasks[index]
	generated := false
	t.once.Do(func() {
		set.fills.Add(1)
		ops, instr = g.generate(index, buf)
		t.ops, t.instr = slices.Clone(ops), instr
		generated = true
	})
	if generated {
		return ops, instr
	}
	return append(g.streamBuf(buf), t.ops...), t.instr
}
