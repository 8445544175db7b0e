package event

import "testing"

// scheduleAndFireOp schedules one event up to 255 cycles ahead and fires the
// earliest.
func scheduleAndFireOp() func() {
	var q Queue
	fn := func(Time) {}
	i := 0
	return func() {
		q.At(q.Now()+Time(i%256), fn)
		q.Step()
		i++
	}
}

func BenchmarkScheduleAndFire(b *testing.B) { bench(b, scheduleAndFireOp()) }

func BenchmarkResourceAcquire(b *testing.B) {
	var r Resource
	i := 0
	bench(b, func() {
		r.Acquire(Time(i), 4)
		i++
	})
}

func bench(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer() // op's set-up ran before this call
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestAllocBudgets holds each op above with a budget to its allocations
// per op. A budget changes only with the code it measures, in the same
// change.
func TestAllocBudgets(t *testing.T) {
	for _, c := range []struct {
		name   string
		op     func() func()
		budget float64
	}{
		{"schedule-and-fire", scheduleAndFireOp, 0},
	} {
		// A benchmark's millions of ops amortize its warm-up; run as
		// many ops first as are measured.
		const runs = 1000
		op := c.op()
		for i := 0; i < runs; i++ {
			op()
		}
		if n := testing.AllocsPerRun(runs, op); n > c.budget {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, n, c.budget)
		}
	}
}
