package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// tinyProfile is a fast synthetic profile exercising every mechanism:
// privatization (version stalls, multi-version sets), cross-task
// dependences (squashes), shared reads, and some imbalance.
func tinyProfile() workload.Profile {
	return workload.Profile{
		Name:           "tiny",
		Tasks:          60,
		InstrPerTask:   2000,
		FootprintBytes: 512,
		WriteDensity:   4,
		PrivFrac:       0.5,
		WritePhase:     0.5,
		ImbalanceCV:    0.4,
		ReadsPerWrite:  1.5,
		SharedReadFrac: 0.3,
		HotReadWords:   2048,
		DepProb:        0.2,
		DepReach:       8,
	}
}

func allSchemes() []core.Scheme { return core.AllSchemes() }

func TestAllSchemesComplete(t *testing.T) {
	for _, mach := range []*machine.Config{machine.NUMA16(), machine.CMP8()} {
		for _, sch := range allSchemes() {
			r := Run(mach, sch, tinyProfile(), 7)
			if r.Commits != r.Tasks {
				t.Errorf("%s/%v: committed %d of %d tasks", mach.Name, sch, r.Commits, r.Tasks)
			}
			if r.ExecCycles == 0 {
				t.Errorf("%s/%v: zero execution time", mach.Name, sch)
			}
		}
	}
}

// The central protocol-correctness invariant: every committed cross-task
// read observed exactly the version sequential semantics dictates, under
// every scheme, machine, and seed — squashes, version forwarding, lazy
// merging, overflow, and undo-log recovery all have to cooperate for this
// to hold.
func TestSequentialSemanticsInvariant(t *testing.T) {
	for _, mach := range []*machine.Config{machine.NUMA16(), machine.CMP8()} {
		for _, sch := range allSchemes() {
			for seed := uint64(1); seed <= 5; seed++ {
				r := Run(mach, sch, tinyProfile(), seed)
				if r.OracleChecks == 0 {
					t.Fatalf("%s/%v seed %d: no cross-task reads checked", mach.Name, sch, seed)
				}
				if r.OracleViolations != 0 {
					t.Errorf("%s/%v seed %d: %d/%d committed reads observed the wrong version",
						mach.Name, sch, seed, r.OracleViolations, r.OracleChecks)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, sch := range []core.Scheme{core.SingleTEager, core.MultiTMVLazy, core.MultiTMVFMM} {
		a := Run(machine.NUMA16(), sch, tinyProfile(), 3)
		b := Run(machine.NUMA16(), sch, tinyProfile(), 3)
		if a.ExecCycles != b.ExecCycles || a.SquashEvents != b.SquashEvents ||
			a.Agg != b.Agg {
			t.Errorf("%v: identical runs differ: %d vs %d cycles", sch, a.ExecCycles, b.ExecCycles)
		}
	}
}

func TestBreakdownSumsToWallClock(t *testing.T) {
	for _, sch := range allSchemes() {
		r := Run(machine.CMP8(), sch, tinyProfile(), 11)
		for i, bd := range r.PerProc {
			if bd.Total() != r.ExecCycles {
				t.Errorf("%v proc %d: breakdown %d != wall clock %d", sch, i, bd.Total(), r.ExecCycles)
			}
		}
	}
}

func TestSqushesOnlyWithDependences(t *testing.T) {
	p := tinyProfile()
	p.DepProb = 0
	p.DepReach = 0
	for _, sch := range allSchemes() {
		r := Run(machine.NUMA16(), sch, p, 13)
		if r.SquashEvents != 0 || r.TasksSquashed != 0 {
			t.Errorf("%v: squashes without cross-task dependences (%d events)", sch, r.SquashEvents)
		}
		if r.Violations != 0 {
			t.Errorf("%v: directory flagged %d violations", sch, r.Violations)
		}
	}
}

func TestDependencesCauseSquashes(t *testing.T) {
	p := tinyProfile()
	p.DepProb = 0.5
	r := Run(machine.NUMA16(), core.MultiTMVLazy, p, 17)
	if r.SquashEvents == 0 {
		t.Fatal("heavy cross-task dependences produced no squashes")
	}
	if r.Commits != r.Tasks {
		t.Fatal("squashes lost tasks")
	}
	if r.OracleViolations != 0 {
		t.Fatal("squash recovery broke sequential semantics")
	}
}

func TestSingleTStallsMoreThanMultiT(t *testing.T) {
	// An imbalanced workload: SingleT must lose task-stall time that
	// MultiT&MV does not.
	p := tinyProfile()
	p.ImbalanceCV = 1.0
	p.HeavyTailFrac = 0.05
	p.HeavyTailMax = 60
	p.DepProb = 0
	single := Run(machine.NUMA16(), core.SingleTEager, p, 19)
	multi := Run(machine.NUMA16(), core.MultiTMVEager, p, 19)
	if single.ExecCycles <= multi.ExecCycles {
		t.Errorf("SingleT (%d) should be slower than MultiT&MV (%d) under load imbalance",
			single.ExecCycles, multi.ExecCycles)
	}
	if single.Agg.StallTask == 0 {
		t.Error("SingleT must accumulate task stall (token waits)")
	}
	if multi.Agg.StallTask != 0 {
		t.Error("MultiT&MV must never stall for task/version support")
	}
}

func TestMultiTSVStallsOnPrivatization(t *testing.T) {
	p := tinyProfile()
	p.PrivFrac = 1.0
	p.WritePhase = 0.2
	p.DepProb = 0
	p.ImbalanceCV = 0.8
	sv := Run(machine.NUMA16(), core.MultiTSVEager, p, 23)
	mv := Run(machine.NUMA16(), core.MultiTMVEager, p, 23)
	if sv.Agg.StallTask == 0 {
		t.Error("MultiT&SV with dominant privatization must stall on second versions")
	}
	if mv.ExecCycles >= sv.ExecCycles {
		t.Errorf("MultiT&MV (%d) must beat MultiT&SV (%d) under privatization",
			mv.ExecCycles, sv.ExecCycles)
	}
}

func TestMultiTSVMatchesMVWithoutPrivatization(t *testing.T) {
	p := tinyProfile()
	p.PrivFrac = 0
	sv := Run(machine.NUMA16(), core.MultiTSVEager, p, 29)
	mv := Run(machine.NUMA16(), core.MultiTMVEager, p, 29)
	if sv.ExecCycles != mv.ExecCycles {
		t.Errorf("without privatization MultiT&SV (%d) must match MultiT&MV (%d)",
			sv.ExecCycles, mv.ExecCycles)
	}
}

func TestLazinessRemovesCommitFromCriticalPath(t *testing.T) {
	// A high Commit/Execution-ratio workload: laziness must win and the
	// measured commit duration must collapse.
	p := tinyProfile()
	p.FootprintBytes = 4096
	p.WriteDensity = 1
	p.DepProb = 0
	eager := Run(machine.NUMA16(), core.MultiTMVEager, p, 31)
	lazy := Run(machine.NUMA16(), core.MultiTMVLazy, p, 31)
	if lazy.ExecCycles >= eager.ExecCycles {
		t.Errorf("laziness (%d) must beat eager merging (%d) at high commit ratios",
			lazy.ExecCycles, eager.ExecCycles)
	}
	if lazy.AvgCommitPerTask >= eager.AvgCommitPerTask/4 {
		t.Errorf("lazy commit (%f) must be far below eager commit (%f)",
			lazy.AvgCommitPerTask, eager.AvgCommitPerTask)
	}
	if lazy.VCLMerges == 0 {
		t.Error("lazy AMM must merge committed versions through the VCL")
	}
}

func TestFMMRecoveryCostlierThanAMM(t *testing.T) {
	p := tinyProfile()
	p.DepProb = 0.4
	lazy := Run(machine.NUMA16(), core.MultiTMVLazy, p, 37)
	fmm := Run(machine.NUMA16(), core.MultiTMVFMM, p, 37)
	if lazy.SquashEvents == 0 || fmm.SquashEvents == 0 {
		t.Skip("seed produced no squashes")
	}
	perLazy := float64(lazy.Agg.StallRecovery) / float64(lazy.SquashEvents)
	perFMM := float64(fmm.Agg.StallRecovery) / float64(fmm.SquashEvents)
	if perFMM <= perLazy {
		t.Errorf("FMM recovery per squash (%f) must exceed AMM recovery (%f)", perFMM, perLazy)
	}
	if fmm.MHBRestored == 0 {
		t.Error("FMM recovery must walk the MHB")
	}
}

func TestFMMSwAddsLoggingInstructions(t *testing.T) {
	p := tinyProfile()
	p.DepProb = 0
	hw := Run(machine.NUMA16(), core.MultiTMVFMM, p, 41)
	sw := Run(machine.NUMA16(), core.MultiTMVFMMSw, p, 41)
	if sw.Agg.Busy <= hw.Agg.Busy {
		t.Error("software logging must add busy instructions")
	}
	if hw.MHBAppends == 0 || hw.MHBAppends != sw.MHBAppends {
		t.Errorf("logging volume must match: %d vs %d", hw.MHBAppends, sw.MHBAppends)
	}
}

func TestOverflowOnlyUnderAMM(t *testing.T) {
	// Deep per-processor version stacks: same lines written by every task.
	p := tinyProfile()
	p.PrivFrac = 1.0
	p.ImbalanceCV = 1.2
	p.DepProb = 0
	p.Tasks = 120
	amm := Run(machine.NUMA16(), core.MultiTMVEager, p, 43)
	fmm := Run(machine.NUMA16(), core.MultiTMVFMM, p, 43)
	if amm.OverflowSpills == 0 {
		t.Skip("workload did not pressure the buffers")
	}
	if fmm.OverflowSpills != 0 {
		t.Error("FMM must never use the overflow area")
	}
	if fmm.FMMWritebacks == 0 {
		t.Error("FMM displacements must write back to memory")
	}
	if amm.MemRejected != 0 {
		t.Error("AMM runs memory without MTID; nothing can be rejected")
	}
}

func TestBigL2RemovesOverflow(t *testing.T) {
	p := tinyProfile()
	p.PrivFrac = 1.0
	p.ImbalanceCV = 1.2
	p.DepProb = 0
	p.Tasks = 120
	small := Run(machine.NUMA16(), core.MultiTMVLazy, p, 43)
	big := Run(machine.NUMA16BigL2(), core.MultiTMVLazy, p, 43)
	if small.OverflowSpills == 0 {
		t.Skip("workload did not pressure the buffers")
	}
	if big.OverflowSpills >= small.OverflowSpills {
		t.Errorf("the 16-way 4-MB L2 must reduce spills (%d -> %d)",
			small.OverflowSpills, big.OverflowSpills)
	}
}

func TestSequentialBaseline(t *testing.T) {
	seq := RunSequential(machine.NUMA16(), tinyProfile(), 47)
	if seq.Commits != seq.Tasks {
		t.Fatal("sequential run lost tasks")
	}
	if seq.SquashEvents != 0 {
		t.Fatal("a single-processor run can have no violations")
	}
	par := Run(machine.NUMA16(), core.MultiTMVLazy, tinyProfile(), 47)
	sp := par.Speedup(seq.ExecCycles)
	if sp < 1 || sp > 16 {
		t.Fatalf("speedup %f out of (1, 16)", sp)
	}
}

func TestCommitExecRatioMeasured(t *testing.T) {
	p := tinyProfile()
	p.DepProb = 0
	r := Run(machine.NUMA16(), core.MultiTMVEager, p, 53)
	if r.CommitExecRatio() <= 0 {
		t.Fatal("eager runs must measure a positive Commit/Execution ratio")
	}
	if r.AvgFootprintBytes <= 0 || r.AvgSpecTasksSystem <= 0 {
		t.Fatal("Figure 1 statistics missing")
	}
	if r.AvgPrivFrac <= 0.2 || r.AvgPrivFrac > 1 {
		t.Fatalf("priv fraction %f implausible for a 50%%-priv profile", r.AvgPrivFrac)
	}
}

func TestInvalidSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shaded scheme must panic")
		}
	}()
	gen := workload.NewGenerator(tinyProfile(), 1)
	New(machine.NUMA16(), core.Scheme{Sep: core.SingleT, Merge: core.FMM}, gen)
}

func TestSquashesPerTaskAndSpeedupHelpers(t *testing.T) {
	r := Result{Commits: 100, TasksSquashed: 5, ExecCycles: 200}
	if r.SquashesPerTask() != 0.05 {
		t.Fatal("SquashesPerTask wrong")
	}
	if r.Speedup(400) != 2 {
		t.Fatal("Speedup wrong")
	}
	var zero Result
	if zero.SquashesPerTask() != 0 || zero.Speedup(5) != 0 || zero.CommitExecRatio() != 0 {
		t.Fatal("zero-value helpers must not divide by zero")
	}
}

func TestCMPFasterMemorySmallerDeltas(t *testing.T) {
	// The CMP's lower latencies must raise the busy fraction relative to
	// the NUMA machine (Section 5.3's headline observation).
	p := tinyProfile()
	p.DepProb = 0
	numa := Run(machine.NUMA16(), core.MultiTMVEager, p, 59)
	cmp := Run(machine.CMP8(), core.MultiTMVEager, p, 59)
	if cmp.Agg.BusyFraction() <= numa.Agg.BusyFraction() {
		t.Errorf("CMP busy fraction (%f) must exceed NUMA (%f)",
			cmp.Agg.BusyFraction(), numa.Agg.BusyFraction())
	}
}

func TestORBCommitBetweenEagerAndLazy(t *testing.T) {
	// ORB-style eager merging (ownership requests) must beat write-back
	// eager merging on a high commit-ratio workload, while remaining an
	// eager scheme (token held per line, just more cheaply).
	p := tinyProfile()
	p.FootprintBytes = 4096
	p.WriteDensity = 1
	p.DepProb = 0
	gen := func() *workload.Generator { return workload.NewGenerator(p, 61) }
	eager := New(machine.NUMA16(), core.MultiTMVEager, gen()).Run()
	orb := New(machine.NUMA16(), core.MultiTMVEager, gen())
	orb.SetORBCommit(true)
	or := orb.Run()
	lazy := New(machine.NUMA16(), core.MultiTMVLazy, gen()).Run()
	if !(or.ExecCycles < eager.ExecCycles) {
		t.Errorf("ORB commit (%d) must beat write-back commit (%d)", or.ExecCycles, eager.ExecCycles)
	}
	if !(lazy.ExecCycles <= or.ExecCycles) {
		t.Errorf("laziness (%d) must still be at least as fast as ORB (%d)", lazy.ExecCycles, or.ExecCycles)
	}
	if or.OracleViolations != 0 || or.Commits != or.Tasks {
		t.Error("ORB commit broke the protocol")
	}
}

func TestLineGranularityCausesFalseSharingSquashes(t *testing.T) {
	p := tinyProfile()
	p.DepProb = 0.3
	p.PackedChannels = true
	gen := func() *workload.Generator { return workload.NewGenerator(p, 67) }
	word := New(machine.NUMA16(), core.MultiTMVLazy, gen()).Run()
	line := New(machine.NUMA16(), core.MultiTMVLazy, gen())
	line.SetLineGranularityConflicts(true)
	lr := line.Run()
	if lr.SquashEvents <= word.SquashEvents {
		t.Errorf("line granularity (%d squashes) must add false-sharing squashes over word granularity (%d)",
			lr.SquashEvents, word.SquashEvents)
	}
	if lr.Commits != lr.Tasks {
		t.Error("line-granularity run lost tasks")
	}
}

func TestForceMTIDInterchangeableWithVCL(t *testing.T) {
	p := tinyProfile()
	p.PrivFrac = 1.0
	p.DepProb = 0
	gen := func() *workload.Generator { return workload.NewGenerator(p, 71) }
	vcl := New(machine.NUMA16(), core.MultiTMVLazy, gen()).Run()
	m := New(machine.NUMA16(), core.MultiTMVLazy, gen())
	m.ForceMTID()
	mr := m.Run()
	// The two in-order merging supports are interchangeable: both complete
	// the section with correct semantics and near-identical timing (MTID
	// skips the VCL invalidations, so cache contents differ marginally).
	ratio := float64(mr.ExecCycles) / float64(vcl.ExecCycles)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("VCL (%d) and MTID (%d) lazy merging diverge by more than 5%%",
			vcl.ExecCycles, mr.ExecCycles)
	}
	if vcl.MemRejected != 0 {
		t.Error("VCL memory must not reject write-backs")
	}
	// MTID must earn its keep: stale write-backs of superseded committed
	// versions are rejected instead of combined away.
	if mr.MemRejected == 0 {
		t.Error("MTID rejected nothing; the ablation is vacuous")
	}
	// And the final memory image stays sequential either way.
	m2 := New(machine.NUMA16(), core.MultiTMVLazy, gen())
	m2.ForceMTID()
	m2.Run()
	if _, wrong := m2.VerifyFinalMemory(); wrong != 0 {
		t.Error("MTID merging corrupted the final memory image")
	}
}

func TestInvocationBarrierBoundsSpeculation(t *testing.T) {
	p := tinyProfile()
	p.DepProb = 0
	p.Tasks = 120
	unbounded := Run(machine.NUMA16(), core.MultiTMVEager, p, 73)
	p.TasksPerInvoc = 20
	bounded := Run(machine.NUMA16(), core.MultiTMVEager, p, 73)
	if bounded.Commits != bounded.Tasks {
		t.Fatal("invocation barriers lost tasks")
	}
	if bounded.AvgSpecTasksSystem > 21 {
		t.Errorf("avg speculative tasks %f exceeds the invocation bound",
			bounded.AvgSpecTasksSystem)
	}
	if bounded.AvgSpecTasksSystem >= unbounded.AvgSpecTasksSystem {
		t.Errorf("barriers must reduce co-existing tasks (%f vs %f)",
			bounded.AvgSpecTasksSystem, unbounded.AvgSpecTasksSystem)
	}
	if bounded.OracleViolations != 0 {
		t.Error("barriers broke sequential semantics")
	}
}

func TestTraceWellFormed(t *testing.T) {
	p := tinyProfile()
	p.DepProb = 0.3
	gen := workload.NewGenerator(p, 79)
	s := New(machine.NUMA16(), core.MultiTMVLazy, gen)
	s.EnableTrace()
	r := s.Run()
	starts := map[string]int{}
	type key struct{ k TraceKind }
	counts := map[TraceKind]int{}
	var last event.Time
	for _, ev := range r.Trace {
		if ev.When < last {
			// Events are appended from per-processor local clocks, which may
			// interleave; but each is bounded by the quantum. Only flag
			// egregious disorder.
			if last-ev.When > 10*quantum {
				t.Fatalf("trace time went backwards by %d", last-ev.When)
			}
		} else {
			last = ev.When
		}
		counts[ev.Kind]++
		_ = starts
	}
	if counts[TraceStart] == 0 || counts[TraceFinish] == 0 ||
		counts[TraceCommitStart] != r.Tasks || counts[TraceCommitEnd] != r.Tasks {
		t.Fatalf("trace counts wrong: %v (tasks %d)", counts, r.Tasks)
	}
	// Every committed task started at least once; a squashed task restarts,
	// except when it is squashed again while still queued for re-execution.
	if counts[TraceStart] < r.Tasks || counts[TraceStart] > r.Tasks+r.TasksSquashed {
		t.Errorf("starts = %d, want within [tasks(%d), tasks+squashed(%d)]",
			counts[TraceStart], r.Tasks, r.Tasks+r.TasksSquashed)
	}
	if counts[TraceSquash] != r.TasksSquashed {
		t.Errorf("squash events = %d, want %d", counts[TraceSquash], r.TasksSquashed)
	}
}

func TestTraceKindStrings(t *testing.T) {
	for k, want := range map[TraceKind]string{
		TraceStart: "start", TraceFinish: "finish", TraceCommitStart: "commit-start",
		TraceCommitEnd: "commit-end", TraceSquash: "squash", TraceKind(99): "trace(?)",
	} {
		if got := k.String(); got != want {
			t.Errorf("TraceKind(%d) = %q, want %q", k, got, want)
		}
	}
}

func TestNoTraceWithoutEnable(t *testing.T) {
	r := Run(machine.CMP8(), core.SingleTEager, tinyProfile(), 83)
	if len(r.Trace) != 0 {
		t.Fatal("trace recorded without EnableTrace")
	}
}

// The strongest end-to-end invariant: after the section completes and all
// lingering state merges, main memory's version image must equal the
// sequential execution's final state, under every scheme and machine —
// in-order eager merging, VCL-ordered lazy merging, MTID-filtered FMM
// write-backs, overflow drains, and undo-log recovery all have to conspire
// correctly.
func TestFinalMemoryImage(t *testing.T) {
	for _, mach := range []*machine.Config{machine.NUMA16(), machine.CMP8()} {
		for _, sch := range allSchemes() {
			for seed := uint64(1); seed <= 3; seed++ {
				gen := workload.NewGenerator(tinyProfile(), seed)
				s := New(mach, sch, gen)
				s.Run()
				checked, wrong := s.VerifyFinalMemory()
				if checked == 0 {
					t.Fatalf("%s/%v: nothing checked", mach.Name, sch)
				}
				if wrong != 0 {
					t.Errorf("%s/%v seed %d: %d/%d lines hold the wrong final version",
						mach.Name, sch, seed, wrong, checked)
				}
			}
		}
	}
}

func TestFinalMemoryImageWithORB(t *testing.T) {
	gen := workload.NewGenerator(tinyProfile(), 5)
	s := New(machine.NUMA16(), core.MultiTMVEager, gen)
	s.SetORBCommit(true)
	s.Run()
	if checked, wrong := s.VerifyFinalMemory(); wrong != 0 || checked == 0 {
		t.Fatalf("ORB commit corrupted memory: %d/%d wrong", wrong, checked)
	}
}

func TestVerifyBeforeRunPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VerifyFinalMemory before Run must panic")
		}
	}()
	gen := workload.NewGenerator(tinyProfile(), 1)
	New(machine.NUMA16(), core.SingleTEager, gen).VerifyFinalMemory()
}

func TestCoarseRecoveryWithoutViolations(t *testing.T) {
	// Dependence-free loop: the LRPD-style baseline runs as a doall and
	// should beat SingleT Eager (no token waits, trivial commits), paying
	// only the software marking overhead versus MultiT&MV FMM.
	p := tinyProfile()
	p.DepProb = 0
	coarse := Run(machine.NUMA16(), core.CoarseRecovery, p, 87)
	single := Run(machine.NUMA16(), core.SingleTEager, p, 87)
	if coarse.Commits != coarse.Tasks {
		t.Fatal("coarse recovery lost tasks")
	}
	if coarse.SquashEvents != 0 {
		t.Fatal("no violations, so the end-of-section test must pass")
	}
	if coarse.ExecCycles >= single.ExecCycles {
		t.Errorf("a passing speculative doall (%d) must beat SingleT (%d)",
			coarse.ExecCycles, single.ExecCycles)
	}
	if coarse.MHBAppends != 0 {
		t.Error("coarse recovery keeps no undo log")
	}
	gen := workload.NewGenerator(p, 87)
	s := New(machine.NUMA16(), core.CoarseRecovery, gen)
	s.Run()
	if _, wrong := s.VerifyFinalMemory(); wrong != 0 {
		t.Error("final memory image wrong without violations")
	}
}

func TestCoarseRecoveryWithViolations(t *testing.T) {
	// A loop with cross-task dependences: the end-of-section test fails and
	// the whole section re-executes serially — catastrophic, which is the
	// point of fine-grain recovery.
	p := tinyProfile()
	p.DepProb = 0.3
	gen := workload.NewGenerator(p, 89)
	s := New(machine.NUMA16(), core.CoarseRecovery, gen)
	r := s.Run()
	if r.SquashEvents != 1 || r.TasksSquashed != r.Tasks {
		t.Fatalf("failed test must re-execute the whole section: %d events, %d squashed",
			r.SquashEvents, r.TasksSquashed)
	}
	fine := Run(machine.NUMA16(), core.MultiTMVLazy, p, 89)
	if r.ExecCycles <= fine.ExecCycles {
		t.Errorf("coarse recovery (%d) must lose badly to fine-grain recovery (%d) under violations",
			r.ExecCycles, fine.ExecCycles)
	}
	if _, wrong := s.VerifyFinalMemory(); wrong != 0 {
		t.Error("serial re-execution must restore the sequential memory image")
	}
	for i, bd := range r.PerProc {
		if bd.Total() != r.ExecCycles {
			t.Errorf("proc %d breakdown %d != wall clock %d", i, bd.Total(), r.ExecCycles)
		}
	}
}

func TestCoarseSchemeProperties(t *testing.T) {
	if !core.CoarseRecovery.Valid() || !core.CoarseRecovery.Interesting() {
		t.Fatal("coarse recovery must be a valid, modelled point")
	}
	if len(core.RequiredSupports(core.CoarseRecovery)) != 0 {
		t.Fatal("coarse recovery needs no buffering hardware beyond plain caches")
	}
	if !core.CoarseRecovery.MultipleTasksPerProc() {
		t.Fatal("the speculative doall must not stall on the commit token")
	}
	if got, ok := core.SchemeFromString("Coarse Recovery (LRPD)"); !ok || !got.Coarse {
		t.Fatal("coarse scheme must parse by name")
	}
	if len(core.ExtendedSchemes()) != len(core.AllSchemes())+1 {
		t.Fatal("ExtendedSchemes must add exactly the coarse baseline")
	}
}

func TestExplicitTraceWorkload(t *testing.T) {
	// Producer/consumer chain: task i writes word i, task i+1 reads word i
	// early — guaranteed out-of-order RAWs when run speculatively.
	var streams [][]workload.Op
	const n = 12
	base := memsys.Addr(1 << 16)
	for i := 0; i < n; i++ {
		var b workload.TraceBuilder
		if i > 0 {
			b.Read(base + memsys.Addr(i-1)*memsys.WordsPerLine)
		}
		b.Compute(3000)
		b.Write(base + memsys.Addr(i)*memsys.WordsPerLine)
		streams = append(streams, b.Ops())
	}
	tr := workload.NewTrace("chain", streams, 0)
	s := New(machine.NUMA16(), core.MultiTMVLazy, tr)
	r := s.Run()
	if r.Commits != n {
		t.Fatalf("commits = %d", r.Commits)
	}
	if r.SquashEvents == 0 {
		t.Fatal("a serial dependence chain must squash under speculation")
	}
	// No OrderOracle on traces: the oracle counters stay untouched.
	if r.OracleChecks != 0 {
		t.Fatal("traces without an oracle must not report checks")
	}
	// But the memory image must still be the sequential one.
	if checked, wrong := s.VerifyFinalMemory(); wrong != 0 || checked != n {
		t.Fatalf("final memory %d/%d wrong", wrong, checked)
	}
	if r.App != "chain" {
		t.Fatalf("workload name lost: %q", r.App)
	}
}

// TestChunkBeforeReadIsItsOwnStep: a read's compute chunk that crosses the
// quantum deadline yields before the read, exactly as a separate compute op
// did. Both tasks dispatch at time 0 and cross the 256-cycle deadline in
// their first step. The producer's write steps at cycle 270, before the
// consumer's read at 280 but after the consumer's first step, so a read
// issued in the chunk's step would miss the version and squash.
func TestChunkBeforeReadIsItsOwnStep(t *testing.T) {
	const word = memsys.Addr(1 << 16)
	run := func(consumer []workload.Op) Result {
		var producer workload.TraceBuilder
		producer.Compute(188).Ops() // Ops flushes the chunk into an op of its own
		producer.Write(word).Compute(1000)
		tr := workload.NewTrace("quantum", [][]workload.Op{producer.Ops(), consumer}, 0)
		return New(machine.NUMA16(), core.MultiTMVLazy, tr).Run()
	}
	var fused, split workload.TraceBuilder
	fused.Compute(200).Read(word).Compute(1000)
	split.Compute(200).Ops()
	split.Read(word).Compute(1000)
	if len(fused.Ops()) != 2 || len(split.Ops()) != 3 {
		t.Fatalf("streams of %d and %d ops, want 2 and 3", len(fused.Ops()), len(split.Ops()))
	}
	got, want := run(fused.Ops()), run(split.Ops())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fused chunk result differs from the two-op form:\n got %+v\nwant %+v", got, want)
	}
	if got.SquashEvents != 0 {
		t.Fatal("the read ran before the producer's earlier write")
	}
}

func TestTraceWithInvocations(t *testing.T) {
	var streams [][]workload.Op
	for i := 0; i < 8; i++ {
		var b workload.TraceBuilder
		b.Compute(1000).Write(memsys.Addr(1<<16) + memsys.Addr(i*16))
		streams = append(streams, b.Ops())
	}
	tr := workload.NewTrace("inv", streams, 4)
	s := New(machine.CMP8(), core.MultiTMVEager, tr)
	r := s.Run()
	if r.Commits != 8 {
		t.Fatalf("commits = %d", r.Commits)
	}
	// The barrier holds the second invocation back: with 8 processors and
	// 4-task invocations, at most 4 tasks co-exist.
	if r.AvgSpecTasksSystem > 4.5 {
		t.Fatalf("invocation barrier ignored: %f tasks in flight", r.AvgSpecTasksSystem)
	}
}

// setStride returns a line-address stride that maps consecutive lines onto
// the same L2 set of the NUMA machine, forcing same-set version pressure.
func setStride() memsys.Addr {
	sets := memsys.Addr(machine.NUMA16().L2.Sets())
	return sets * memsys.WordsPerLine
}

func TestOwnOverflowReaccess(t *testing.T) {
	// One task overflows its own speculative lines (same-set writes beyond
	// the associativity), then re-reads and re-writes the first of them:
	// the version must come back from the overflow area.
	stride := setStride()
	base := memsys.Addr(1 << 18)
	var b workload.TraceBuilder
	for i := 0; i < 7; i++ {
		b.Write(base + memsys.Addr(i)*stride)
		b.Compute(50)
	}
	b.Compute(500)
	b.Read(base)  // re-read the (by now displaced) first line
	b.Write(base) // and re-write it
	b.Compute(100)
	// A second task spills and then RE-WRITES a displaced line without
	// reading it first: the write path itself must retrieve from overflow.
	base2 := base + 16
	var b2 workload.TraceBuilder
	for i := 0; i < 7; i++ {
		b2.Write(base2 + memsys.Addr(i)*stride)
		b2.Compute(50)
	}
	b2.Compute(500)
	b2.Write(base2)
	b2.Compute(100)
	tr := workload.NewTrace("ovfself", [][]workload.Op{b.Ops(), b2.Ops()}, 0)
	s := New(machine.NUMA16(), core.MultiTMVEager, tr)
	r := s.Run()
	if r.OverflowSpills == 0 {
		t.Fatal("same-set writes beyond associativity must spill")
	}
	if r.OverflowRetrievals == 0 {
		t.Fatal("re-accessing a displaced version must retrieve from the overflow area")
	}
	if _, wrong := s.VerifyFinalMemory(); wrong != 0 {
		t.Fatal("overflow round trip corrupted memory")
	}
}

func TestRemoteOverflowFetch(t *testing.T) {
	// Task 0 writes a same-set burst (spilling some of its versions) and
	// then computes for a long time; task 1 reads one of task 0's words
	// while task 0 is still speculative, so the version must be served
	// from task 0's node — cache or overflow area.
	stride := setStride()
	base := memsys.Addr(1 << 18)
	var producer workload.TraceBuilder
	for i := 0; i < 8; i++ {
		producer.Write(base + memsys.Addr(i)*stride)
	}
	producer.Compute(60000) // stay speculative for a long time
	var consumer workload.TraceBuilder
	consumer.Compute(2000) // give the producer time to write
	for i := 0; i < 8; i++ {
		consumer.Read(base + memsys.Addr(i)*stride)
	}
	consumer.Compute(1000)
	tr := workload.NewTrace("ovfremote", [][]workload.Op{producer.Ops(), consumer.Ops()}, 0)
	s := New(machine.NUMA16(), core.MultiTMVEager, tr)
	r := s.Run()
	if r.Commits != 2 {
		t.Fatalf("commits = %d", r.Commits)
	}
	if r.OverflowSpills == 0 {
		t.Fatal("producer must spill")
	}
	if _, wrong := s.VerifyFinalMemory(); wrong != 0 {
		t.Fatal("cross-node versions corrupted memory")
	}
}

func TestMultiTSVStallsOnOverflowedVersion(t *testing.T) {
	// Under MultiT&SV the second-version stall must also see versions that
	// were displaced into the overflow area, not just cached ones.
	p := tinyProfile()
	p.PrivFrac = 1.0
	p.FootprintBytes = 2048
	p.WriteDensity = 16
	p.WritePhase = 0.2
	p.DepProb = 0
	p.ImbalanceCV = 1.2
	p.Tasks = 100
	r := Run(machine.NUMA16(), core.MultiTSVEager, p, 91)
	if r.Commits != r.Tasks {
		t.Fatal("lost tasks")
	}
	if r.Agg.StallTask == 0 {
		t.Fatal("privatization under MultiT&SV must stall")
	}
}

func TestContentionObserved(t *testing.T) {
	// A memory-heavy run must exhibit bank queuing.
	p := tinyProfile()
	p.SharedReadFrac = 0.9
	p.ReadsPerWrite = 3
	p.HotReadWords = 1 << 15
	r := Run(machine.NUMA16(), core.MultiTMVEager, p, 93)
	if r.BankQueueCycles == 0 {
		t.Fatal("no bank contention observed on a memory-heavy run")
	}
}

// ProgressReport, taken after an interrupted Run returned, describes where
// the run halted — the watchdog post-mortem payload.
func TestProgressReport(t *testing.T) {
	mach := machine.NUMA16()
	p := workload.Euler().Scale(0.1, 0.1, 0.25)
	s := New(mach, core.MultiTMVLazy, workload.NewGenerator(p, 99))
	s.Interrupt()
	s.Run()
	if !s.Halted() {
		t.Fatal("interrupted run did not halt")
	}
	rep := s.ProgressReport()
	if rep.Machine != mach.Name || rep.App != p.Name {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if rep.Cycle == 0 || rep.Commits == 0 || len(rep.Procs) != mach.Procs {
		t.Errorf("report not mid-run shaped: cycle=%d commits=%d procs=%d",
			rep.Cycle, rep.Commits, len(rep.Procs))
	}
}
