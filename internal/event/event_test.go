package event

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestFiresInTimeOrder(t *testing.T) {
	var q Queue
	var got []Time
	for _, when := range []Time{50, 10, 30, 20, 40} {
		w := when
		q.At(w, func(now Time) { got = append(got, now) })
	}
	q.Run(0)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(100, func(Time) { got = append(got, i) })
	}
	q.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	var q Queue
	q.At(7, func(now Time) {
		if now != 7 {
			t.Errorf("callback now = %d, want 7", now)
		}
	})
	q.Step()
	if q.Now() != 7 {
		t.Fatalf("Now() = %d after event at 7", q.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var q Queue
	q.At(10, func(Time) {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) must panic")
		}
	}()
	q.At(5, func(Time) {})
}

func TestAtNeverPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("At(Never) must panic")
		}
	}()
	q.At(Never, func(Time) {})
}

func TestRunLimit(t *testing.T) {
	var q Queue
	count := 0
	for i := Time(1); i <= 10; i++ {
		q.At(i, func(Time) { count++ })
	}
	if n := q.Run(3); n != 3 || count != 3 {
		t.Fatalf("Run(3) fired %d (count %d)", n, count)
	}
	if n := q.Run(0); n != 7 || count != 10 {
		t.Fatalf("Run(0) fired %d (count %d)", n, count)
	}
}

func TestFiredCounter(t *testing.T) {
	var q Queue
	q.At(1, func(Time) {})
	q.At(2, func(Time) {})
	q.Run(1)
	if q.Fired() != 1 {
		t.Fatalf("Fired() = %d after Run(1), want 1", q.Fired())
	}
	q.Run(0)
	if q.Fired() != 2 {
		t.Fatalf("Fired() = %d after draining, want 2", q.Fired())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	var q Queue
	var order []string
	q.At(10, func(Time) {
		order = append(order, "a")
		q.At(10, func(Time) { order = append(order, "c") }) // same cycle, later seq
	})
	q.At(10, func(Time) { order = append(order, "b") })
	q.Run(0)
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Property: any set of scheduled times is fired in non-decreasing order.
func TestOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var q Queue
		var got []Time
		for _, w := range times {
			q.At(Time(w), func(now Time) { got = append(got, now) })
		}
		q.Run(0)
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceUncontended(t *testing.T) {
	var r Resource
	start, done := r.Acquire(100, 10)
	if start != 100 || done != 110 {
		t.Fatalf("Acquire = (%d, %d), want (100, 110)", start, done)
	}
	if r.WaitCycles() != 0 {
		t.Fatal("uncontended request should not wait")
	}
}

func TestResourceQueues(t *testing.T) {
	var r Resource
	r.Acquire(100, 10)
	start, done := r.Acquire(105, 10)
	if start != 110 || done != 120 {
		t.Fatalf("second Acquire = (%d, %d), want (110, 120)", start, done)
	}
	if r.WaitCycles() != 5 {
		t.Fatalf("WaitCycles = %d, want 5", r.WaitCycles())
	}
	if r.Requests() != 2 {
		t.Fatalf("Requests = %d", r.Requests())
	}
}

func TestResourceIdleGap(t *testing.T) {
	var r Resource
	r.Acquire(0, 10)
	start, _ := r.Acquire(50, 5)
	if start != 50 {
		t.Fatalf("request after idle gap starts at %d, want 50", start)
	}
	if r.WaitCycles() != 0 {
		t.Fatalf("WaitCycles = %d after an idle gap, want 0", r.WaitCycles())
	}
}

// Property: service is never preempted — completions are start+service and
// starts never precede arrival or the previous completion.
func TestResourceProperty(t *testing.T) {
	f := func(arrivalDeltas []uint8, services []uint8) bool {
		var r Resource
		now := Time(0)
		prevDone := Time(0)
		n := len(arrivalDeltas)
		if len(services) < n {
			n = len(services)
		}
		for i := 0; i < n; i++ {
			now += Time(arrivalDeltas[i])
			svc := Time(services[i])
			start, done := r.Acquire(now, svc)
			if start < now || start < prevDone || done != start+svc {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBanksInterleave(t *testing.T) {
	b := NewBanks(4)
	if len(b.banks) != 4 {
		t.Fatalf("%d banks, want 4", len(b.banks))
	}
	// Requests to different banks at the same time don't queue on each other.
	_, d0 := b.Acquire(0, 0, 10)
	_, d1 := b.Acquire(1, 0, 10)
	if d0 != 10 || d1 != 10 {
		t.Fatalf("parallel banks queued: %d %d", d0, d1)
	}
	// Same bank (key 4 maps to bank 0) queues.
	start, _ := b.Acquire(4, 0, 10)
	if start != 10 {
		t.Fatalf("same-bank request started at %d, want 10", start)
	}
	if b.TotalWait() != 10 {
		t.Fatalf("TotalWait = %d, want 10", b.TotalWait())
	}
}

func TestBanksPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBanks(0) must panic")
		}
	}()
	NewBanks(0)
}
