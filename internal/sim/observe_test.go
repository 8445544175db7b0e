package sim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// obsTestProfile is the squash-heavy golden workload: Euler with a high
// dependence probability exercises every attribution path.
func obsTestProfile() workload.Profile {
	p := workload.Euler().Scale(0.1, 0.1, 0.25)
	p.DepProb = 0.3
	return p
}

// TestObserverEffectFreedom is the observer-effect regression lock: for a
// representative app × scheme grid, a run with the full observability layer
// enabled (registry, component counters, gauge sampler) must produce a
// Result identical to a run with observability disabled. Instrumentation
// must never perturb simulation.
func TestObserverEffectFreedom(t *testing.T) {
	apps := []workload.Profile{obsTestProfile(), workload.StandardScale(workload.P3m()), workload.StandardScale(workload.Tree())}
	schemes := []core.Scheme{core.SingleTEager, core.MultiTMVLazy, core.MultiTMVFMM, core.CoarseRecovery}
	for _, prof := range apps {
		for _, scheme := range schemes {
			baseSim := New(machine.CMP8(), scheme, workload.NewGenerator(prof, 99))
			baseSim.EnableTrace()
			base := baseSim.Run()

			reg := obs.NewRegistry()
			obsSim := New(machine.CMP8(), scheme, workload.NewGenerator(prof, 99))
			obsSim.EnableTrace()
			obsSim.Observe(obs.Config{Registry: reg, SamplePeriod: 500})
			got := obsSim.Run()

			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s/%v: observed run diverged from unobserved run", prof.Name, scheme)
			}
			// Cross-validate the registry against the Result it observed.
			if c := reg.CounterValue("sim_commits"); c != uint64(got.Commits) {
				t.Errorf("%s/%v: obs commits %d, result %d", prof.Name, scheme, c, got.Commits)
			}
			if c := reg.CounterValue("sim_squash_events"); c != uint64(got.SquashEvents) {
				t.Errorf("%s/%v: obs squash events %d, result %d", prof.Name, scheme, c, got.SquashEvents)
			}
			if c := reg.CounterValue("sim_tasks_squashed"); c != uint64(got.TasksSquashed) {
				t.Errorf("%s/%v: obs squashed %d, result %d", prof.Name, scheme, c, got.TasksSquashed)
			}
			if c := reg.CounterValue("dir_violations"); c != got.Violations {
				t.Errorf("%s/%v: obs violations %d, result %d", prof.Name, scheme, c, got.Violations)
			}
			if c := reg.CounterValue("mem_writebacks"); c != got.MemWritebacks {
				t.Errorf("%s/%v: obs writebacks %d, result %d", prof.Name, scheme, c, got.MemWritebacks)
			}
			if c := reg.CounterValue("mem_writebacks_rejected"); c != got.MemRejected {
				t.Errorf("%s/%v: obs rejected write-backs %d, result %d", prof.Name, scheme, c, got.MemRejected)
			}
			if c := reg.CounterValue("dir_reads"); c != got.DirReads {
				t.Errorf("%s/%v: obs directory reads %d, result %d", prof.Name, scheme, c, got.DirReads)
			}
			if c := reg.CounterValue("dir_writes"); c != got.DirWrites {
				t.Errorf("%s/%v: obs directory writes %d, result %d", prof.Name, scheme, c, got.DirWrites)
			}
			series := obsSim.Sampled()
			if len(series.Samples) == 0 {
				t.Fatalf("%s/%v: sampler recorded nothing", prof.Name, scheme)
			}
			last := series.Samples[len(series.Samples)-1]
			if last.Cycle != uint64(got.ExecCycles) {
				t.Errorf("%s/%v: final sample at %d, want end time %d", prof.Name, scheme, last.Cycle, got.ExecCycles)
			}
			for i := 1; i < len(series.Samples); i++ {
				if series.Samples[i].Cycle < series.Samples[i-1].Cycle {
					t.Fatalf("%s/%v: sample cycles not monotone", prof.Name, scheme)
				}
			}
		}
	}
}

// TestObserverEffectFreedomParallel extends the observer-effect lock to the
// parallel simulation core: with obs AND tracing on, a -parallel {2,8} run
// must produce a Result identical to an obs-off serial run. The flight
// recorder is always-on in every one of these runs, so this also locks its
// zero-observer-effect property.
func TestObserverEffectFreedomParallel(t *testing.T) {
	apps := []workload.Profile{obsTestProfile(), workload.StandardScale(workload.Tree())}
	schemes := []core.Scheme{core.MultiTMVLazy, core.MultiTMVFMM}
	for _, prof := range apps {
		for _, scheme := range schemes {
			baseSim := New(machine.CMP8(), scheme, workload.NewGenerator(prof, 99))
			baseSim.EnableTrace()
			base := baseSim.Run()
			if len(baseSim.FlightRecorder()) == 0 {
				t.Fatal("flight recorder recorded nothing")
			}

			for _, workers := range []int{2, 8} {
				parSim := New(machine.CMP8(), scheme, workload.NewGenerator(prof, 99))
				parSim.SetParallel(workers)
				parSim.EnableTrace()
				parSim.Observe(obs.Config{Registry: obs.NewRegistry(), SamplePeriod: 500})
				got := parSim.Run()
				if !reflect.DeepEqual(base, got) {
					t.Errorf("%s/%v -parallel %d: observed+traced parallel run diverged from obs-off serial run",
						prof.Name, scheme, workers)
				}
				// Every dispatch and re-dispatch takes its stream from the
				// prefetcher exactly once, and each one is a TraceStart.
				st := parSim.ParallelStats()
				var starts uint64
				for _, e := range got.Trace {
					if e.Kind == TraceStart {
						starts++
					}
				}
				if taken := st.PrefetchHits + st.PrefetchMisses; taken != starts {
					t.Errorf("%s/%v -parallel %d: prefetcher served %d streams, trace has %d task starts",
						prof.Name, scheme, workers, taken, starts)
				}
				if st.PrefetchHits == 0 {
					t.Errorf("%s/%v -parallel %d: no prefetch hits", prof.Name, scheme, workers)
				}
			}
		}
	}
}

// TestObservedCountersGolden pins every counter of one observed
// squash-heavy run, so moving a statistic between the per-event hooks and
// the end-of-run publish cannot change what the registry reports.
func TestObservedCountersGolden(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(machine.NUMA16(), core.MultiTMVFMM, workload.NewGenerator(obsTestProfile(), 99))
	s.Observe(obs.Config{Registry: reg, SamplePeriod: 500})
	s.Run()
	want := map[string]uint64{
		"dir_reads":               61862,
		"dir_violations":          11,
		"dir_writes":              51747,
		"mem_writebacks":          9420,
		"mem_writebacks_rejected": 0,
		"net_messages":            14140,
		"sim_commits":             60,
		"sim_squash_events":       11,
		"sim_tasks_finished":      70,
		"sim_tasks_squashed":      131,
		"sim_tasks_started":       154,
		"sim_wasted_cycles":       2159503,
	}
	if got := reg.CounterSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counters = %v\nwant %v", got, want)
	}
}

// TestEventQueueBound: the sampled event-queue length never exceeds one
// continuation per processor plus the commit in flight, for every scheme
// on both machines — the bound that lets the queue be a plain heap with no
// cancellation.
func TestEventQueueBound(t *testing.T) {
	prof := workload.Tree().Scale(0.05, 0.1, 0.25)
	for _, m := range []*machine.Config{machine.NUMA16(), machine.CMP8()} {
		for _, scheme := range core.ExtendedSchemes() {
			s := New(m, scheme, workload.NewGenerator(prof, 5))
			s.Observe(obs.Config{Registry: obs.NewRegistry(), SamplePeriod: 50})
			s.Run()
			peak := seriesPeak(t, s.Sampled(), "event_queue_len")
			if peak > int64(m.Procs+1) {
				t.Errorf("%s/%v: event queue held %d events, bound %d", m.Name, scheme, peak, m.Procs+1)
			}
			if peak == 0 {
				t.Errorf("%s/%v: event queue gauge never sampled a pending event", m.Name, scheme)
			}
		}
	}
}

// seriesPeak returns the largest sample of the named gauge track.
func seriesPeak(t *testing.T, series obs.Series, name string) int64 {
	t.Helper()
	col := slices.Index(series.Names, name)
	if col < 0 {
		t.Fatalf("no %s track in %v", name, series.Names)
	}
	var peak int64
	for _, row := range series.Samples {
		peak = max(peak, row.Values[col])
	}
	return peak
}

// TestObserveIsDeterministic locks the registry and series themselves: two
// observed runs of the same inputs must agree metric for metric, row for row.
func TestObserveIsDeterministic(t *testing.T) {
	run := func() (*obs.Registry, obs.Series) {
		reg := obs.NewRegistry()
		s := New(machine.CMP8(), core.MultiTMVLazy, workload.NewGenerator(obsTestProfile(), 99))
		s.Observe(obs.Config{Registry: reg, SamplePeriod: 500})
		s.Run()
		return reg, s.Sampled()
	}
	regA, serA := run()
	regB, serB := run()
	namesA, namesB := regA.CounterNames(), regB.CounterNames()
	if !reflect.DeepEqual(namesA, namesB) {
		t.Fatalf("counter names differ: %v vs %v", namesA, namesB)
	}
	for _, n := range namesA {
		if regA.CounterValue(n) != regB.CounterValue(n) {
			t.Errorf("counter %s: %d vs %d", n, regA.CounterValue(n), regB.CounterValue(n))
		}
	}
	if !reflect.DeepEqual(serA, serB) {
		t.Error("sampled series differ between identical runs")
	}
}

// TestSquashAttribution checks the causal fields on TraceSquash events and
// the hotspot aggregation built from them.
func TestSquashAttribution(t *testing.T) {
	s := New(machine.NUMA16(), core.MultiTMVEager, workload.NewGenerator(obsTestProfile(), 99))
	s.EnableTrace()
	r := s.Run()
	if r.TasksSquashed == 0 {
		t.Fatal("workload produced no squashes; attribution untestable")
	}
	squashes := 0
	attributed := 0
	for _, e := range r.Trace {
		if e.Kind != TraceSquash {
			if e.Word != 0 || e.Writer != 0 || e.Wasted != 0 {
				t.Fatalf("non-squash event %v carries cause fields", e)
			}
			continue
		}
		squashes++
		if e.Writer != 0 {
			attributed++
			// Every victim is at or after the out-of-order RAW's reader,
			// which in turn is after the writer: the writer precedes every
			// victim and the task distance is positive.
			if !e.Writer.Before(e.Task) {
				t.Fatalf("squash of %v attributed to non-preceding writer %v", e.Task, e.Writer)
			}
			if e.Distance() <= 0 {
				t.Fatalf("squash of %v by %v has non-positive distance %d", e.Task, e.Writer, e.Distance())
			}
		}
	}
	if squashes != r.TasksSquashed {
		t.Fatalf("trace has %d squash events, result says %d", squashes, r.TasksSquashed)
	}
	if attributed == 0 {
		t.Fatal("no squash carries a writer attribution")
	}

	hot := SquashHotspots(r.Trace)
	if len(hot) == 0 {
		t.Fatal("no hotspots aggregated")
	}
	total := 0
	for _, h := range hot {
		total += h.Squashes
	}
	if total != squashes {
		t.Fatalf("hotspots cover %d squashes, trace has %d", total, squashes)
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].WastedCycles > hot[i-1].WastedCycles {
			t.Fatal("hotspots not sorted by wasted cycles descending")
		}
	}
	if again := SquashHotspots(r.Trace); !reflect.DeepEqual(hot, again) {
		t.Fatal("hotspot aggregation is not deterministic")
	}
}
