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
// The queue is a min-heap of event values. The simulator keeps at most one
// continuation per processor and one commit in flight pending, and never
// cancels an event, so the heap stays small and needs no handles: schedule
// and fire touch the allocator only while the heap's backing array is still
// growing toward its high-water mark.
package event

import "fmt"

// Time is a point in virtual time, in processor clock cycles.
type Time uint64

// Never is a sentinel far-future time. It is a comparison bound, not a
// schedulable instant: At(Never, ...) panics, because an event at Never
// would silently pin the heap and never fire.
const Never Time = ^Time(0)

// entry is one scheduled callback, ordered by (when, seq).
type entry struct {
	when Time
	seq  uint64
	fn   func(now Time)
}

func (a *entry) before(b *entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Queue is the event queue and clock of one simulation. The zero value is
// ready to use.
type Queue struct {
	now    Time
	nextSq uint64
	heap   []entry
	fired  uint64
}

// Now returns the current virtual time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Fired returns the number of events executed since the queue was created.
// Together with Run's return value it is the progress/runaway accounting
// used by the simulator and the tests.
func (q *Queue) Fired() uint64 { return q.fired }

// At schedules fn to run at absolute time when. Scheduling in the past is a
// simulator bug and panics; so is scheduling at Never, which would wedge
// the heap with an event that can never fire.
func (q *Queue) At(when Time, fn func(now Time)) {
	if when < q.now {
		panic(fmt.Sprintf("event: scheduling at %d before now %d", when, q.now))
	}
	if when == Never {
		panic("event: scheduling at Never")
	}
	q.heap = append(q.heap, entry{when: when, seq: q.nextSq, fn: fn})
	q.nextSq++
	// Sift the new entry up to its place.
	h := q.heap
	i := len(h) - 1
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// Halt drains the queue without firing anything, so the next Step returns
// false and Run unwinds. The simulator calls it when an interrupt stops a
// run.
func (q *Queue) Halt() {
	clear(q.heap)
	q.heap = q.heap[:0]
}

// Step fires the earliest pending event and advances the clock to its time.
// It returns false when no events remain.
func (q *Queue) Step() bool {
	h := q.heap
	n := len(h)
	if n == 0 {
		return false
	}
	top := h[0]
	// Move the last entry to the root and sift it down.
	n--
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	q.heap = h
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && h[r].before(&h[child]) {
				child = r
			}
			if !h[child].before(&last) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = last
	}
	q.now = top.when
	q.fired++
	top.fn(q.now)
	return true
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
