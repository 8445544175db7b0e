package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestChaosInvariants runs randomized workloads through every scheme on
// both machines and checks every invariant the simulator promises:
//
//   - every task commits exactly once;
//   - per-processor breakdowns sum to the wall clock;
//   - committed cross-task reads observed the sequential-order version;
//   - the runtime protocol checker saw no violation at any commit, squash,
//     or merge event;
//   - the final memory image equals sequential execution's;
//   - identical inputs give identical outputs.
//
// This is the repository's fuzzing layer: the fixed app profiles exercise
// the paper's corners, the fuzz profiles everything in between.
func TestChaosInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is slow")
	}
	r := rng.New(0xc4a05)
	machines := []*machine.Config{machine.NUMA16(), machine.CMP8()}
	schemes := append(core.AllSchemes(), core.CoarseRecovery)
	const rounds = 12
	for round := 0; round < rounds; round++ {
		p := workload.FuzzProfile(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("round %d: generated invalid profile: %v", round, err)
		}
		seed := r.Uint64()
		mach := machines[round%len(machines)]
		for _, sch := range schemes {
			gen := workload.NewGenerator(p, seed)
			s := New(mach, sch, gen)
			s.EnableInvariantChecks()
			res := s.Run()

			if res.Commits != res.Tasks {
				t.Errorf("round %d %s/%v: %d of %d tasks committed",
					round, mach.Name, sch, res.Commits, res.Tasks)
			}
			for i, bd := range res.PerProc {
				if bd.Total() != res.ExecCycles {
					t.Errorf("round %d %s/%v proc %d: breakdown %d != wall clock %d",
						round, mach.Name, sch, i, bd.Total(), res.ExecCycles)
				}
			}
			if !sch.Coarse && res.OracleViolations != 0 {
				t.Errorf("round %d %s/%v: %d/%d committed reads wrong",
					round, mach.Name, sch, res.OracleViolations, res.OracleChecks)
			}
			if n := s.InvariantViolationCount(); n != 0 {
				t.Errorf("round %d %s/%v: %d invariant violations", round, mach.Name, sch, n)
				for _, v := range s.InvariantViolations()[:min(3, len(s.InvariantViolations()))] {
					t.Logf("  %s", v)
				}
			}
			if checked, wrong := s.VerifyFinalMemory(); wrong != 0 || checked == 0 {
				t.Errorf("round %d %s/%v: final memory %d/%d lines wrong",
					round, mach.Name, sch, wrong, checked)
			}
			// Determinism: a replay must be bit-identical.
			replay := Run(mach, sch, p, seed)
			if replay.ExecCycles != res.ExecCycles || replay.Agg != res.Agg {
				t.Errorf("round %d %s/%v: replay diverged (%d vs %d cycles)",
					round, mach.Name, sch, replay.ExecCycles, res.ExecCycles)
			}
		}
	}
}
