package sim

import (
	"sync"

	"repro/internal/workload"
)

// Parallel simulation mode (DESIGN.md §15).
//
// Parallel mode runs the same serial event queue as the default mode: the
// model's zero-lookahead couplings (a squash rolls back every successor
// processor at the same cycle; directory words, bank occupancies and the
// dispatch cursor are shared) make concurrent event-callback execution
// impossible to keep bit-identical, so every callback applies on the
// simulation goroutine in canonical (cycle, seq) order. The parallelism is
// extracted from the run's dominant pure computation instead: workload
// stream generation, which the prefetcher below pipelines onto N worker
// goroutines ahead of the dispatch cursor. Results are
// reflect.DeepEqual-identical to the serial loop for every workload,
// scheme, and fault plan.

// ConcurrentWorkload is implemented by workloads whose Task method is safe
// to call from multiple goroutines at once. Both workload.Generator and
// workload.Trace qualify; the prefetcher stays off for workloads that
// don't, and parallel mode then runs exactly like the serial loop.
type ConcurrentWorkload interface {
	ConcurrentTaskSafe() bool
}

// SetParallel selects the parallel simulation mode with n prefetch
// workers. n <= 1 selects the serial loop (the default). It must be called
// before Run. The workers live only for the duration of Run.
func (s *Simulator) SetParallel(n int) {
	if s.started {
		panic("sim: SetParallel after Run")
	}
	if n <= 1 {
		n = 0
	}
	s.parN = n
}

// Parallel returns the worker count selected by SetParallel (0 = serial).
func (s *Simulator) Parallel() int { return s.parN }

// startPrefetch starts the prefetch workers for one Run when parallel mode
// is on and the workload allows concurrent Task calls, aimed at the
// dispatch cursor. The caller closes s.pf when Run ends.
func (s *Simulator) startPrefetch() bool {
	if s.parN == 0 {
		return false
	}
	if cw, ok := s.gen.(ConcurrentWorkload); !ok || !cw.ConcurrentTaskSafe() {
		return false
	}
	s.pf = newPrefetcher(s.gen, s.parN, s.total)
	s.pf.aim(s.next)
	return true
}

// ParallelStats is the diagnostic counter set of one parallel-mode run:
// how the workload prefetcher kept ahead of the dispatch cursor. It is pure
// observability — none of these counters feed back into the simulation,
// and none are part of Result. Zero-valued for serial runs.
type ParallelStats struct {
	Workers int `json:"workers"`
	// Prefetcher effectiveness: a hit is a dispatch whose stream a worker
	// pregenerated, a miss computed inline on the simulation goroutine.
	// Every dispatch and re-dispatch counts exactly once.
	PrefetchHits           uint64 `json:"prefetch_hits"`
	PrefetchMisses         uint64 `json:"prefetch_misses"`
	PrefetchDepthHighWater int    `json:"prefetch_depth_high_water"`
	// Windows and StallWindows are always zero. They counted the
	// synchronization windows of an event loop that no longer exists and
	// stay only so existing readers of these fields keep compiling.
	Windows      uint64 `json:"windows"`
	StallWindows uint64 `json:"stall_windows"`
}

// ParallelStats snapshots the parallel-mode counters. Call after Run; the
// zero value is returned for serial runs.
func (s *Simulator) ParallelStats() ParallelStats {
	if s.parN == 0 {
		return ParallelStats{}
	}
	st := ParallelStats{Workers: s.parN}
	if s.pf != nil {
		st.PrefetchHits, st.PrefetchMisses, st.PrefetchDepthHighWater = s.pf.stats()
	}
	return st
}

// prefetcher pregenerates workload operation streams on worker goroutines.
// Task streams are pure functions of the task index (ConcurrentWorkload),
// so the workers race with nothing: they compute into entries they own,
// and the simulation goroutine picks a stream up at dispatch — waiting on
// the entry if the worker hasn't finished, or computing inline on a miss.
// The prefetcher can only change WHERE a stream is computed, never what it
// contains, so parallel results stay identical to serial.
//
// Stream buffers are recycled like the serial loop's per-processor buffer:
// take receives the dispatching processor's previous stream, whose task
// no longer runs, and parks it on the free list, from which the next Task
// call — on a worker or inline — draws its buf.
type prefetcher struct {
	gen   Workload
	total int
	depth int

	mu      sync.Mutex
	entries map[int]*pfEntry // in-flight and ready streams, by task index
	free    [][]workload.Op  // recycled stream buffers
	closed  bool

	// Diagnostic counters for ParallelStats: hits/misses tally take()
	// outcomes, depthHiwater the peak in-flight entry count.
	hits         uint64
	misses       uint64
	depthHiwater int

	work chan pfItem
	wg   sync.WaitGroup
}

// pfEntry is one pregenerated stream. done is closed by the worker after
// ops is filled; the happens-before edge of the close publishes ops.
type pfEntry struct {
	done chan struct{}
	ops  []workload.Op
}

// pfItem pairs a task index with the entry the worker must fill. The entry
// travels in the channel (rather than being looked up by the worker) so a
// take that races with the hand-off can never orphan a waiter.
type pfItem struct {
	idx int
	e   *pfEntry
}

func newPrefetcher(gen Workload, workers, total int) *prefetcher {
	depth := 4 * workers
	pf := &prefetcher{
		gen:     gen,
		total:   total,
		depth:   depth,
		entries: make(map[int]*pfEntry, depth),
		work:    make(chan pfItem, depth),
	}
	pf.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go pf.worker()
	}
	return pf
}

func (pf *prefetcher) worker() {
	defer pf.wg.Done()
	for it := range pf.work {
		it.e.ops = pf.generate(it.idx)
		close(it.e.done)
	}
}

// generate computes task idx's stream into a buffer from the free list (a
// fresh allocation when the list is empty).
func (pf *prefetcher) generate(idx int) []workload.Op {
	var buf []workload.Op
	pf.mu.Lock()
	if n := len(pf.free); n > 0 {
		buf = pf.free[n-1]
		pf.free[n-1] = nil
		pf.free = pf.free[:n-1]
	}
	pf.mu.Unlock()
	ops, _ := pf.gen.Task(idx, buf)
	return ops
}

// aim requests the streams of the next tasks the dispatcher will hand out:
// indices [next, next+depth). Everything at or past next is undispatched,
// so an index is either already in flight or needs a fresh request; a full
// work channel just stops the top-up (take computes misses inline).
func (pf *prefetcher) aim(next int) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return
	}
	for idx := next; idx < next+pf.depth && idx < pf.total; idx++ {
		if _, ok := pf.entries[idx]; ok {
			continue
		}
		if !pf.enqueueLocked(idx) {
			break
		}
	}
}

// redo requests a fresh stream for a squashed task, which will re-dispatch
// from the redo queue after recovery — typically at least one squash
// latency away, enough for a worker to have the stream ready. Best effort:
// if the work channel is full the re-dispatch computes inline.
func (pf *prefetcher) redo(idx int) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return
	}
	if _, ok := pf.entries[idx]; ok {
		return
	}
	pf.enqueueLocked(idx)
}

// enqueueLocked hands index idx to a worker, non-blocking. It reports
// whether the hand-off happened; on false nothing was recorded.
func (pf *prefetcher) enqueueLocked(idx int) bool {
	e := &pfEntry{done: make(chan struct{})}
	select {
	case pf.work <- pfItem{idx: idx, e: e}:
		pf.entries[idx] = e
		if len(pf.entries) > pf.depthHiwater {
			pf.depthHiwater = len(pf.entries)
		}
		return true
	default:
		return false
	}
}

// take returns task idx's operation stream, waiting for the worker if the
// pregeneration is still in flight and computing inline when the index was
// never requested. prev is the dispatching processor's previous stream,
// which no running task uses any more; it goes on the free list. Called
// only from the simulation goroutine.
func (pf *prefetcher) take(idx int, prev []workload.Op) []workload.Op {
	pf.mu.Lock()
	if cap(prev) > 0 {
		pf.free = append(pf.free, prev[:0])
	}
	e := pf.entries[idx]
	if e != nil {
		delete(pf.entries, idx)
		pf.hits++
	} else {
		pf.misses++
	}
	pf.mu.Unlock()
	if e == nil {
		return pf.generate(idx)
	}
	<-e.done
	return e.ops
}

// stats snapshots the prefetcher's diagnostic counters.
func (pf *prefetcher) stats() (hits, misses uint64, depthHiwater int) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.hits, pf.misses, pf.depthHiwater
}

// close stops the workers and waits for them. Entries still in the channel
// are drained without effect; nothing waits on them afterwards.
func (pf *prefetcher) close() {
	pf.mu.Lock()
	if pf.closed {
		pf.mu.Unlock()
		return
	}
	pf.closed = true
	pf.mu.Unlock()
	close(pf.work)
	pf.wg.Wait()
}
