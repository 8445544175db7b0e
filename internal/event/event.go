// Package event implements the discrete-event simulation kernel the
// multiprocessor simulator runs on: a virtual clock, a stable priority
// queue of timed events, and busy-until occupancy resources for modelling
// contention.
//
// Determinism is a hard requirement (the reproduction harness and the
// regression tests compare results across runs), so ties in time are broken
// by insertion sequence: two events scheduled for the same cycle fire in
// the order they were scheduled.
//
// The queue is allocation-free in steady state: Event objects are recycled
// through a free list once they fire (or once a canceled entry is swept),
// so a long simulation touches the heap allocator only while the pending
// set is still growing toward its high-water mark.
package event

import (
	"container/heap"
	"fmt"
)

// Time is a point in virtual time, in processor clock cycles.
type Time uint64

// Never is a sentinel far-future time. It is a comparison bound, not a
// schedulable instant: At(Never, ...) panics, because an event at Never
// would silently pin the heap and never fire.
const Never Time = ^Time(0)

// compactMinHeap is the heap size below which canceled entries are left to
// be swept lazily by Step; compacting tiny heaps is not worth the walk.
const compactMinHeap = 64

// Event is a callback scheduled to run at a point in virtual time. Events
// are owned and recycled by their Queue; callers refer to a scheduled
// occurrence through the Handle returned by At/After.
type Event struct {
	when     Time
	seq      uint64
	index    int // heap index; -1 when not queued
	canceled bool
	fn       func(now Time)
	next     *Event // free-list link while recycled
}

// Handle names one scheduled occurrence of an event. It stays valid
// forever: once the occurrence has fired (or been swept after a cancel),
// the underlying Event object may be recycled for a different occurrence,
// and the Handle — which remembers the occurrence's sequence number —
// simply stops matching. Cancel and Pending on a stale Handle are no-ops.
type Handle struct {
	e   *Event
	seq uint64
}

// Pending reports whether the occurrence is still queued to fire: it has
// neither fired nor been canceled.
func (h Handle) Pending() bool {
	return h.e != nil && h.e.index >= 0 && h.e.seq == h.seq && !h.e.canceled
}

// Queue is the event queue and clock of one simulation. The zero value is
// ready to use.
type Queue struct {
	now    Time
	nextSq uint64
	heap   eventHeap
	fired  uint64

	// live counts pending non-canceled events, making Len O(1); the
	// difference len(heap)-live is the dead (canceled, unswept) population.
	live int
	// free is the recycled-Event list.
	free *Event

	compactions uint64
}

// Now returns the current virtual time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending (non-canceled) events in O(1).
func (q *Queue) Len() int { return q.live }

// Fired returns the number of events executed since the queue was created
// (canceled events never count). Together with Run's return value it is the
// progress/runaway accounting used by the simulator and the tests.
func (q *Queue) Fired() uint64 { return q.fired }

// Compactions returns how many times the heap was compacted to sweep
// canceled entries (observability for cancel-heavy workloads).
func (q *Queue) Compactions() uint64 { return q.compactions }

// At schedules fn to run at absolute time when and returns a Handle the
// caller may Cancel. Scheduling in the past is a simulator bug and panics;
// so is scheduling at Never, which would wedge the heap with an event that
// can never fire.
func (q *Queue) At(when Time, fn func(now Time)) Handle {
	if when < q.now {
		panic(fmt.Sprintf("event: scheduling at %d before now %d", when, q.now))
	}
	if when == Never {
		panic("event: scheduling at Never; use Cancel for events that may not happen")
	}
	e := q.free
	if e != nil {
		q.free = e.next
		e.next = nil
	} else {
		e = new(Event)
	}
	e.when, e.seq, e.fn, e.canceled, e.index = when, q.nextSq, fn, false, -1
	q.nextSq++
	heap.Push(&q.heap, e)
	q.live++
	return Handle{e: e, seq: e.seq}
}

// After schedules fn to run delay cycles from now.
func (q *Queue) After(delay Time, fn func(now Time)) Handle {
	return q.At(q.now+delay, fn)
}

// Halt drains the queue without firing anything: every pending occurrence is
// canceled and swept, so the next Step returns false and Run unwinds. The
// simulator calls it when an interrupt stops a run.
func (q *Queue) Halt() {
	for _, e := range q.heap {
		if !e.canceled {
			e.canceled = true
			q.live--
		}
	}
	if len(q.heap) > 0 {
		q.compact()
	}
}

// Cancel marks the occurrence as canceled. A canceled event never fires.
// Canceling a zero, stale (already fired or already canceled) Handle is a
// no-op. When more than half of a non-trivial heap is dead, the heap is
// compacted so cancel-heavy runs (watchdogs, timeouts) stay bounded by the
// live population instead of growing with cancellation churn.
func (q *Queue) Cancel(h Handle) {
	e := h.e
	if e == nil || e.index < 0 || e.seq != h.seq || e.canceled {
		return
	}
	e.canceled = true
	q.live--
	if len(q.heap) >= compactMinHeap && 2*q.live < len(q.heap) {
		q.compact()
	}
}

// compact rebuilds the heap from its live entries, recycling the dead ones.
// Heap order is a total order on (when, seq), so re-initializing preserves
// the exact firing sequence.
func (q *Queue) compact() {
	kept := q.heap[:0]
	for _, e := range q.heap {
		if e.canceled {
			q.release(e)
		} else {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(q.heap); i++ {
		q.heap[i] = nil
	}
	q.heap = kept
	for i, e := range q.heap {
		e.index = i
	}
	heap.Init(&q.heap)
	q.compactions++
}

// release returns a popped or swept Event to the free list. The seq is left
// as is: a stale Handle can only match an Event that is back in the heap
// with a fresh seq, so index<0 plus the seq check make Cancel safe.
func (q *Queue) release(e *Event) {
	e.fn = nil
	e.index = -1
	e.next = q.free
	q.free = e
}

// Step fires the earliest pending event and advances the clock to its time.
// It returns false when no events remain.
func (q *Queue) Step() bool {
	for q.heap.Len() > 0 {
		e := heap.Pop(&q.heap).(*Event)
		if e.canceled {
			q.release(e)
			continue
		}
		q.now = e.when
		q.fired++
		q.live--
		fn := e.fn
		q.release(e)
		fn(q.now)
		return true
	}
	return false
}

// Run fires events until the queue drains or until limit events have fired.
// A limit of 0 means "no limit: run until the queue drains" — it is NOT a
// budget of zero. It returns the number of events fired by this call, so a
// caller using a positive limit as a runaway guard must treat a return
// value equal to the limit as "limit hit", not "drained": the queue may
// still hold events. (Fired() keeps the all-time count across calls.)
func (q *Queue) Run(limit uint64) uint64 {
	var n uint64
	for limit == 0 || n < limit {
		if !q.Step() {
			break
		}
		n++
	}
	return n
}

// heapSize reports the raw heap length including dead entries (tests).
func (q *Queue) heapSize() int { return len(q.heap) }

// eventHeap is a min-heap on (when, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
