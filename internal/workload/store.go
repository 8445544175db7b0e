package workload

import (
	"sync"
	"sync/atomic"

	"repro/internal/memsys"
)

// Store holds the task streams of the (profile, seed) pairs that a batch of
// simulations shares, so each stream is generated once per batch instead of
// once per simulation. A stream is a pure function of (profile, seed,
// index), which is what makes replaying a stored copy indistinguishable from
// generating it again.
//
// Streams are kept packed: each memory operation and the compute chunk
// before it share one uint64 (kind in the top 2 bits, word address in the
// next 30, chunk instructions in the low 32), and each task keeps its
// trailing chunk and total instruction count beside them. A task whose
// stream does not fit that encoding is not stored; its generator produces
// it afresh on every call.
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

// storedTask is one task's packed stream. once guards the fill, so
// concurrent first callers generate the task once and all read the result.
type storedTask struct {
	once   sync.Once
	fits   bool
	packed []uint64 // one word per memory operation
	rest   int      // trailing compute chunk (0 = none)
	instr  int      // the task's instruction count
	n      int      // decoded stream length
}

// Packing layout of one stored word.
const (
	packKindShift = 62
	packAddrShift = 32
	packAddrBits  = packKindShift - packAddrShift
	packAddrMask  = 1<<packAddrBits - 1
	packChunkMask = 1<<packAddrShift - 1
)

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

// replay returns the stream of task index, replayed from the store, and
// ok; ok is false when index lies outside the section or the task does not
// fit the encoding, and the caller generates the stream itself. The first
// caller of a task generates it into buf and packs it; concurrent first
// callers wait for that and replay it.
func (set *streamSet) replay(g *Generator, index int, buf []Op) (ops []Op, instr int, ok bool) {
	if index < 0 || index >= len(set.tasks) {
		return nil, 0, false
	}
	t := &set.tasks[index]
	generated := false
	t.once.Do(func() {
		set.fills.Add(1)
		ops, instr = g.generate(index, buf)
		t.pack(ops, instr)
		generated = true
	})
	switch {
	case generated:
		return ops, instr, true
	case !t.fits:
		return nil, 0, false
	}
	return t.decode(buf), t.instr, true
}

// pack stores a generated stream. It leaves fits false when any operation
// falls outside the encoding.
func (t *storedTask) pack(ops []Op, instr int) {
	n := 0
	for _, op := range ops {
		if op.Kind != OpCompute {
			n++
		}
	}
	packed := make([]uint64, 0, n)
	chunk := 0
	for _, op := range ops {
		switch {
		case op.Kind == OpCompute:
			if chunk != 0 || op.Instr <= 0 || op.Instr > packChunkMask {
				return
			}
			chunk = op.Instr
		case op.Addr > packAddrMask || op.Kind > OpWrite:
			return
		default:
			packed = append(packed, uint64(op.Kind)<<packKindShift|uint64(op.Addr)<<packAddrShift|uint64(chunk))
			chunk = 0
		}
	}
	t.packed, t.rest, t.instr, t.n, t.fits = packed, chunk, instr, len(ops), true
}

// decode writes the stored stream into buf, sizing a short buf exactly as
// emit does.
func (t *storedTask) decode(buf []Op) []Op {
	ops := streamBuf(buf, len(t.packed))[:t.n]
	i := 0
	for _, w := range t.packed {
		if chunk := int(w & packChunkMask); chunk > 0 {
			ops[i] = Op{Kind: OpCompute, Instr: chunk}
			i++
		}
		ops[i] = Op{Kind: OpKind(w >> packKindShift), Addr: memsys.Addr(w >> packAddrShift & packAddrMask)}
		i++
	}
	if t.rest > 0 {
		ops[i] = Op{Kind: OpCompute, Instr: t.rest}
	}
	return ops
}
