package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// runWithWorkers builds and runs one simulation in parallel mode.
func runWithWorkers(mach *machine.Config, sch core.Scheme, p workload.Profile, seed uint64, n int) Result {
	s := New(mach, sch, workload.NewGenerator(p, seed))
	s.SetParallel(n)
	return s.Run()
}

// The tentpole acceptance test: for every app × scheme, the parallel loop
// at every worker count — including 1, which must select the serial code
// path — produces a Result deeply identical to the serial loop, on both
// machine families.
func TestParallelMatchesSerialGrid(t *testing.T) {
	machines := []*machine.Config{machine.NUMA16(), machine.CMP8()}
	apps := workload.Apps()
	schemes := allSchemes()
	if testing.Short() {
		machines = machines[:1]
		apps = apps[:3]
		schemes = []core.Scheme{core.SingleTEager, core.MultiTMVLazy, core.MultiTMVFMM}
	}
	for _, mach := range machines {
		for _, app := range apps {
			p := app.Scale(0.1, 0.1, 0.25)
			for _, sch := range schemes {
				serial := Run(mach, sch, p, 99)
				for _, n := range []int{1, 2, 8} {
					got := runWithWorkers(mach, sch, p, 99, n)
					if !reflect.DeepEqual(serial, got) {
						t.Errorf("%s/%v/%s parallel=%d: result differs from serial (%d vs %d cycles, %d vs %d events)",
							mach.Name, sch, p.Name, n, got.ExecCycles, serial.ExecCycles, got.Events, serial.Events)
					}
				}
			}
		}
	}
}

// Fault-injected runs must stay identical too: squashes are the events
// most sensitive to ordering (they roll back several processors in one
// same-cycle step) and the injector adds more of them.
func TestParallelMatchesSerialWithFaults(t *testing.T) {
	mach := machine.NUMA16()
	p := tinyProfile()
	fcfg := fault.Config{Seed: 7, SquashProb: 0.2, DelayProb: 0.05, DelayCycles: 40, StallProb: 0.05, StallCycles: 30}
	build := func(n int) *Simulator {
		s := New(mach, core.MultiTMVEager, workload.NewGenerator(p, 99))
		s.InjectFaults(fault.NewPlan(fcfg))
		if n > 1 {
			s.SetParallel(n)
		}
		return s
	}
	serial := build(1).Run()
	if serial.SquashEvents == 0 {
		t.Fatal("fault plan injected no squashes; the test is vacuous")
	}
	for _, n := range []int{2, 8} {
		if got := build(n).Run(); !reflect.DeepEqual(serial, got) {
			t.Errorf("parallel=%d: fault-injected result differs from serial", n)
		}
	}
}

// The sequential baseline (one processor) runs in parallel mode too — the
// degenerate machine must not trip the prefetcher.
func TestParallelSequentialBaseline(t *testing.T) {
	mach := machine.NUMA16()
	p := workload.Tree().Scale(0.1, 0.1, 0.25)
	golden := RunSequential(mach, p, 99)
	s := NewSequential(mach, p, 99)
	s.SetParallel(4)
	if got := s.Run(); !reflect.DeepEqual(golden, got) {
		t.Error("parallel sequential baseline differs from serial")
	}
}

// Interrupting a parallel run halts at a commit boundary exactly like the
// serial loop — at the same cycle, with the same progress report — and the
// job re-run from its start reproduces the uninterrupted serial result.
func TestParallelInterruptResume(t *testing.T) {
	mach := machine.NUMA16()
	p := workload.Euler().Scale(0.1, 0.1, 0.25)
	build := func(n int) *Simulator {
		s := New(mach, core.MultiTMVLazy, workload.NewGenerator(p, 99))
		if n > 1 {
			s.SetParallel(n)
		}
		return s
	}
	golden := build(1).Run()

	var reports []ProgressReport
	for _, n := range []int{1, 8} {
		s := build(n)
		s.Interrupt()
		if res := s.Run(); !s.Halted() || !reflect.DeepEqual(res, Result{}) {
			t.Fatalf("interrupted run (parallel=%d): halted=%v result=%+v", n, s.Halted(), res)
		}
		reports = append(reports, s.ProgressReport())
	}
	if rep := reports[0]; rep.Commits != 1 || rep.Cycle == 0 {
		t.Fatalf("interrupt did not halt at the first commit: %+v", rep)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Errorf("parallel run halted elsewhere than the serial one:\n%+v\n%+v", reports[1], reports[0])
	}
	if got := build(8).Run(); !reflect.DeepEqual(golden, got) {
		t.Errorf("re-run after an interrupt differs from the uninterrupted serial run")
	}
}

// A workload.Trace returns streams it owns, so recycling the processors'
// previous streams through the prefetcher must never write into them: a
// parallel run of a squashing trace matches the serial run and leaves the
// stored streams untouched.
func TestParallelTraceMatchesSerial(t *testing.T) {
	const n = 64
	base := memsys.Addr(1 << 16)
	var streams [][]workload.Op
	for i := 0; i < n; i++ {
		var b workload.TraceBuilder
		if i%4 != 0 {
			// Task i reads task i-1's word early: out-of-order RAWs squash.
			b.Read(base + memsys.Addr(i-1)*memsys.WordsPerLine)
		}
		b.Compute(500 + 37*(i%7))
		for k := 0; k < i%5; k++ {
			b.Read(base + memsys.Addr(n+i*8+k)*memsys.WordsPerLine).Compute(20)
		}
		b.Write(base + memsys.Addr(i)*memsys.WordsPerLine)
		streams = append(streams, b.Ops())
	}
	tr := workload.NewTrace("recycle", streams, 0)
	stored := make([][]workload.Op, n)
	for i := range stored {
		ops, _ := tr.Task(i, nil)
		stored[i] = append([]workload.Op(nil), ops...)
	}
	for _, sch := range []core.Scheme{core.MultiTMVLazy, core.MultiTMVFMM, core.SingleTEager} {
		serial := New(machine.NUMA16(), sch, tr).Run()
		if serial.SquashEvents == 0 {
			t.Fatalf("%v: the trace squashed nothing; the test is vacuous", sch)
		}
		for _, workers := range []int{2, 8} {
			s := New(machine.NUMA16(), sch, tr)
			s.SetParallel(workers)
			if got := s.Run(); !reflect.DeepEqual(serial, got) {
				t.Errorf("%v -parallel %d: trace result differs from serial", sch, workers)
			}
		}
	}
	for i := range stored {
		if ops, _ := tr.Task(i, nil); !reflect.DeepEqual(stored[i], ops) {
			t.Fatalf("task %d: the run wrote into the trace's stored stream", i)
		}
	}
}

// SetParallel is a pre-run knob only.
func TestSetParallelAfterStartPanics(t *testing.T) {
	mach := machine.NUMA16()
	p := workload.Tree().Scale(0.1, 0.1, 0.25)
	s := New(mach, core.MultiTMVLazy, workload.NewGenerator(p, 99))
	if s.Parallel() != 0 {
		t.Fatalf("fresh simulator reports parallel=%d", s.Parallel())
	}
	s.SetParallel(8)
	if s.Parallel() != 8 {
		t.Fatalf("Parallel() = %d after SetParallel(8)", s.Parallel())
	}
	s.SetParallel(1) // back to serial is allowed before Run
	if s.Parallel() != 0 {
		t.Fatalf("Parallel() = %d after SetParallel(1)", s.Parallel())
	}
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("SetParallel after Run did not panic")
		}
	}()
	s.SetParallel(8)
}
