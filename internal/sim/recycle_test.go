package sim_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// recycleProfile is squash-heavy (Euler) and small enough for the race
// detector, yet fills every part of a set: overflow, undo records,
// squashed versions, lingering committed lines.
func recycleProfile() workload.Profile { return workload.Euler().Scale(0.05, 0.05, 0.25) }

// recycleJobs is a mixed sequence that moves a set across machines:
// NUMA16 (sequential baseline and all nine schemes), then the 4-MB-L2
// NUMA16, then CMP8, then NUMA16 again, and one faulted job with the
// invariant checker on. halt is the index of the job that TestRecycling
// interrupts mid-run.
func recycleJobs() (jobs []exp.Job, halt int) {
	prof := recycleProfile()
	job := func(m *machine.Config, s core.Scheme) exp.Job {
		return exp.Job{Machine: m, Scheme: s, Profile: prof, Seed: 7}
	}
	seq := func(m *machine.Config) exp.Job {
		j := job(m, core.SingleTEager)
		j.Sequential = true
		return j
	}
	jobs = append(jobs, seq(machine.NUMA16()))
	for _, s := range core.ExtendedSchemes() {
		jobs = append(jobs, job(machine.NUMA16(), s))
	}
	jobs = append(jobs,
		job(machine.NUMA16BigL2(), core.MultiTMVLazy),
		seq(machine.CMP8()),
		job(machine.CMP8(), core.MultiTMVFMM),
		job(machine.CMP8(), core.SingleTEager),
	)
	halt = len(jobs)
	jobs = append(jobs, job(machine.NUMA16(), core.MultiTMVFMM))
	faulted := job(machine.NUMA16(), core.MultiTMVLazy)
	faulted.Faults = &fault.Config{Seed: 3, SquashProb: 0.05, OverflowProb: 0.05, DelayProb: 0.05, DelayCycles: 40}
	faulted.Invariants = true
	jobs = append(jobs, faulted, job(machine.NUMA16(), core.MultiTMVEager), seq(machine.NUMA16()))
	return jobs, halt
}

// fresh returns every job's result and chaos verdict from simulators that
// reuse nothing: the spare set the previous run released is dropped before
// each one is built.
func fresh(jobs []exp.Job) ([]sim.Result, []*exp.ChaosVerdict) {
	res := make([]sim.Result, len(jobs))
	verdicts := make([]*exp.ChaosVerdict, len(jobs))
	r := &exp.Runner{}
	for i, j := range jobs {
		sim.DropSpare()
		jr := r.Run(context.Background(), j, exp.Attempt{N: 1})
		res[i], verdicts[i] = jr.Result, jr.Chaos
	}
	return res, verdicts
}

// awaitSpare waits for a halted run, which its runner abandons before it
// stops, to park its storage.
func awaitSpare(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !sim.SpareHeld(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the halted run never released its storage")
		}
	}
}

// TestRecycling: recycling is invisible. Runners execute the mixed
// sequence, every job building on the storage the previous one released
// (one worker, then two sharing the spare), one job interrupted mid-run so
// the next builds on a halted run's state; every result and chaos verdict
// must be DeepEqual to a fresh simulator's. With scribble, every array of
// the parked set is filled with garbage before each build: reuse must
// reset, not assume zeroed storage.
func TestRecycling(t *testing.T) {
	jobs, halt := recycleJobs()
	want, wantV := fresh(jobs)
	for _, workers := range []int{1, 2} {
		for _, scribble := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/scribble=%v", workers, scribble), func(t *testing.T) {
				sim.DropSpare()
				r := &exp.Runner{}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						// The second worker walks the sequence backwards, so
						// the two trade sets across machines.
						for n := range jobs {
							i := n
							if w == 1 {
								i = len(jobs) - 1 - n
							}
							if scribble {
								sim.ScribbleSpare()
							}
							if i == halt && workers == 1 {
								ctx, cancel := context.WithCancel(context.Background())
								cancel()
								if jr := r.Run(ctx, jobs[i], exp.Attempt{N: 1}); jr.Err == nil {
									t.Errorf("job %d: a cancelled attempt reported no error", i)
								}
								awaitSpare(t)
								continue
							}
							jr := r.Run(context.Background(), jobs[i], exp.Attempt{N: 1})
							if jr.Err != nil {
								t.Errorf("job %d (%s): %v", i, jobs[i].Label(), jr.Err)
								continue
							}
							if !reflect.DeepEqual(jr.Result, want[i]) || !reflect.DeepEqual(jr.Chaos, wantV[i]) {
								t.Errorf("job %d (%s): a recycled simulation's result differs from a fresh one's", i, jobs[i].Label())
							}
							if workers == 1 && !sim.SpareHeld() {
								t.Errorf("job %d (%s) left no storage for the next", i, jobs[i].Label())
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// TestStoppedJobLeavesItsStorage: a job the runner stops mid-run (a
// cancelled attempt, the watchdog) still hands its storage to the next
// job, and the next job's result is a fresh simulator's.
func TestStoppedJobLeavesItsStorage(t *testing.T) {
	prof := workload.Euler().Scale(0.2, 0.2, 0.5)
	long := exp.Job{Machine: machine.NUMA16(), Scheme: core.MultiTMVFMM, Profile: prof, Seed: 2}
	next := exp.Job{Machine: machine.NUMA16(), Scheme: core.MultiTMVLazy, Profile: recycleProfile(), Seed: 2}
	want, _ := fresh([]exp.Job{next})
	for _, tc := range []struct {
		name string
		r    *exp.Runner
		ctx  func() context.Context
		err  error
	}{
		{"cancelled", &exp.Runner{}, func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx
		}, context.Canceled},
		{"watchdog", &exp.Runner{JobTimeout: time.Microsecond}, context.Background, exp.ErrJobTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim.DropSpare()
			if jr := tc.r.Run(tc.ctx(), long, exp.Attempt{N: 1}); !errors.Is(jr.Err, tc.err) {
				t.Fatalf("stopped attempt: err %v, want %v", jr.Err, tc.err)
			}
			awaitSpare(t)
			jr := (&exp.Runner{}).Run(context.Background(), next, exp.Attempt{N: 1})
			if jr.Err != nil || !reflect.DeepEqual(jr.Result, want[0]) {
				t.Fatalf("the job after a stopped one: err %v, result differs from a fresh simulator's: %v", jr.Err, !reflect.DeepEqual(jr.Result, want[0]))
			}
		})
	}
}
