package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// TestFMMRecoveryRestoresGlobalReverseOrder pins the cross-processor undo
// ordering of FMM squash recovery. Two squashed tasks on different
// processors overwrote the same line: task 3 (no prior version) and task 4
// (which first read task 3's version, so its undo record names producer 3).
// Recovery must apply the records globally youngest-overwriter-first —
// restore producer 3 for task 4's overwrite, then erase it for task 3's —
// leaving memory with no squashed version. A per-processor walk in
// processor order finishes by re-instating squashed version 3, which the
// undo-memory invariant flags.
func TestFMMRecoveryRestoresGlobalReverseOrder(t *testing.T) {
	const (
		wordW = memsys.Addr(0x1000) // violation trigger word
		wordL = memsys.Addr(0x2000) // line both task 3 and task 4 overwrite
	)
	mk := func(build func(*workload.TraceBuilder)) []workload.Op {
		var b workload.TraceBuilder
		build(&b)
		return b.Ops()
	}
	// Dispatch at time 0 hands task i to processor i-1.
	gen := workload.NewTrace("undo-order", [][]workload.Op{
		// Task 1: writes W late, squashing task 2 (and successors 3, 4).
		mk(func(b *workload.TraceBuilder) { b.Compute(2000).Write(wordW).Compute(10) }),
		// Task 2: reads W before task 1 wrote it — the out-of-order RAW.
		mk(func(b *workload.TraceBuilder) { b.Read(wordW).Compute(4000) }),
		// Task 3: versions line L early with no prior version anywhere.
		mk(func(b *workload.TraceBuilder) { b.Compute(100).Write(wordL).Compute(4000) }),
		// Task 4: observes task 3's version of L, then overwrites it, so its
		// undo record is (L, producer 3, overwriter 4) on a different
		// processor than task 3's (L, none, 3).
		mk(func(b *workload.TraceBuilder) { b.Compute(300).Read(wordL).Write(wordL).Compute(4000) }),
	}, 0)

	s := New(machine.NUMA16(), core.MultiTMVFMM, gen)
	s.EnableInvariantChecks()
	res := s.Run()

	if res.SquashEvents == 0 || res.TasksSquashed < 3 {
		t.Fatalf("scenario did not squash as designed: %d events, %d tasks",
			res.SquashEvents, res.TasksSquashed)
	}
	if n := s.InvariantViolationCount(); n != 0 {
		t.Fatalf("recovery broke invariants: %s", s.InvariantViolations())
	}
	if v := s.mem.Version(wordL.Line()); v != ids.TaskID(0) && v != ids.TaskID(4) {
		t.Fatalf("memory holds version %v of the contended line", v)
	}
	if _, wrong := s.VerifyFinalMemory(); wrong != 0 {
		t.Fatalf("final memory wrong on %d lines", wrong)
	}
}

// TestInvariantCheckerDetectsTagFlips validates the checker the way the
// fault taxonomy intends: FlipTag corrupts version tags, which no correct
// protocol can absorb, so a campaign of flip-only runs must produce
// invariant violations (or, at minimum, a wrong final memory image).
func TestInvariantCheckerDetectsTagFlips(t *testing.T) {
	detected := 0
	for seed := uint64(0); seed < 5; seed++ {
		p := workload.Profile{
			Name: "flip", Tasks: 24, InstrPerTask: 1500, FootprintBytes: 512,
			WriteDensity: 4, PrivFrac: 0.5, WritePhase: 0.8,
			ReadsPerWrite: 1, SharedReadFrac: 0.5,
		}
		gen := workload.NewGenerator(p, seed)
		s := New(machine.NUMA16(), core.MultiTMVEager, gen)
		s.EnableInvariantChecks()
		s.InjectFaults(fault.NewPlan(fault.Config{Seed: seed, FlipProb: 0.02, MaxFaults: 8}))
		s.Run()
		_, wrong := s.VerifyFinalMemory()
		if s.InvariantViolationCount() > 0 || wrong > 0 {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no flip campaign was detected by the checker or the final-memory verification")
	}
}

// TestRecoverableFaultsKeepInvariants is the in-tree slice of the tlschaos
// campaign: randomized recoverable faults (spurious squashes, delays,
// forced overflows, commit stalls) over representative schemes must never
// break a protocol invariant or corrupt the final memory image.
func TestRecoverableFaultsKeepInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign is slow")
	}
	schemes := []core.Scheme{
		core.SingleTEager, core.MultiTMVEager, core.MultiTMVLazy,
		core.MultiTMVFMM, core.MultiTMVFMMSw,
	}
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := fault.CampaignConfig(seed)
		p := workload.Profile{
			Name: "campaign", Tasks: 40, InstrPerTask: 1200, FootprintBytes: 768,
			WriteDensity: 4, PrivFrac: 0.4, WritePhase: 0.6,
			ReadsPerWrite: 1.5, SharedReadFrac: 0.5, DepProb: 0.1, DepReach: 4,
		}
		for _, sch := range schemes {
			gen := workload.NewGenerator(p, seed)
			s := New(machine.NUMA16(), sch, gen)
			s.EnableInvariantChecks()
			plan := fault.NewPlan(cfg)
			s.InjectFaults(plan)
			res := s.Run()
			if res.Commits != res.Tasks {
				t.Errorf("seed %d %v: %d of %d tasks committed under faults (%s)",
					seed, sch, res.Commits, res.Tasks, plan.Summary())
			}
			if n := s.InvariantViolationCount(); n != 0 {
				t.Errorf("seed %d %v: %d invariant violations under recoverable faults (%s): %s",
					seed, sch, n, plan.Summary(), s.InvariantViolations())
			}
			if _, wrong := s.VerifyFinalMemory(); wrong != 0 {
				t.Errorf("seed %d %v: %d wrong lines after faults (%s)",
					seed, sch, wrong, plan.Summary())
			}
		}
	}
}

// TestVerifyFinalMemoryDetectsWrongVersion covers the detector's failure
// path: corrupt one line of the final image and the check must report it.
func TestVerifyFinalMemoryDetectsWrongVersion(t *testing.T) {
	p := workload.Profile{
		Name: "verify", Tasks: 10, InstrPerTask: 800, FootprintBytes: 256,
		WriteDensity: 4, PrivFrac: 0.5, WritePhase: 0.5,
	}
	gen := workload.NewGenerator(p, 11)
	s := New(machine.NUMA16(), core.MultiTMVEager, gen)
	s.Run()
	checked, wrong := s.VerifyFinalMemory()
	if checked == 0 || wrong != 0 {
		t.Fatalf("clean run: %d/%d lines wrong", wrong, checked)
	}
	// Find a written line by replaying the workload, then corrupt it.
	var buf []workload.Op
	buf, _ = gen.Task(0, buf)
	var line memsys.LineAddr
	found := false
	for _, op := range buf {
		if op.Kind() == workload.OpWrite {
			line, found = op.Addr().Line(), true
			break
		}
	}
	if !found {
		t.Fatal("task 0 wrote nothing")
	}
	s.mem.Restore(line, ids.TaskID(p.Tasks+7))
	if _, wrong := s.VerifyFinalMemory(); wrong == 0 {
		t.Fatal("corrupted line not detected")
	}
}
