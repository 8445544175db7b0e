package exp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tinyProfile is a fast workload for orchestrator tests.
func tinyProfile() workload.Profile {
	return workload.Tree().Scale(0.05, 0.05, 0.25)
}

func tinyJob() Job {
	return Job{
		Machine: machine.CMP8(),
		Scheme:  core.MultiTMVLazy,
		Profile: tinyProfile(),
		Seed:    1,
	}
}

func TestKeyStable(t *testing.T) {
	a, b := tinyJob(), tinyJob()
	if a.Key() != b.Key() {
		t.Fatalf("equal jobs hash differently: %s vs %s", a.Key(), b.Key())
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key is not a hex sha256: %q", a.Key())
	}
	if a.Key() != a.Key() {
		t.Fatal("key not stable across calls")
	}
}

func TestKeyDistinguishesInputs(t *testing.T) {
	base := tinyJob()
	seen := map[string]string{base.Key(): "base"}
	variants := map[string]Job{}

	j := tinyJob()
	j.Seed = 2
	variants["seed"] = j

	j = tinyJob()
	j.Scheme = core.SingleTEager
	variants["scheme"] = j

	j = tinyJob()
	j.Sequential = true
	variants["sequential"] = j

	j = tinyJob()
	j.Ablation.LineGranularity = true
	variants["ablation"] = j

	j = tinyJob()
	j.Profile.DepProb = 0.5
	j.Profile.DepReach = 4
	variants["profile knob"] = j

	j = tinyJob()
	j.Machine = machine.NUMA16()
	variants["machine"] = j

	// NUMA16BigL2 differs from NUMA16 only in the L2 geometry: the hash
	// must see nested machine fields.
	j = tinyJob()
	j.Machine = machine.NUMA16BigL2()
	variants["machine L2 geometry"] = j

	for what, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collides with %s", what, prev)
		}
		seen[k] = what
	}
}

func TestLabel(t *testing.T) {
	j := tinyJob()
	if got := j.Label(); !strings.Contains(got, "CMP8") || !strings.Contains(got, "Tree") {
		t.Fatalf("label %q missing machine/app", got)
	}
	j.Sequential = true
	if !strings.Contains(j.Label(), "sequential") {
		t.Fatalf("sequential label wrong: %q", j.Label())
	}
	j.Machine = nil
	if !strings.Contains(j.Label(), "<nil>") {
		t.Fatalf("nil-machine label wrong: %q", j.Label())
	}
}

func TestExecuteMatchesDirectRun(t *testing.T) {
	j := tinyJob()
	direct := runJob(j).Result
	again := runJob(j).Result
	if direct.ExecCycles != again.ExecCycles || direct.Commits != again.Commits {
		t.Fatalf("runs not deterministic: %d vs %d cycles", direct.ExecCycles, again.ExecCycles)
	}
	if want := sim.Run(j.Machine, j.Scheme, j.Profile, j.Seed); !reflect.DeepEqual(want, direct) {
		t.Fatal("runner result differs from a direct simulation")
	}
	seq := runJob(Job{Machine: j.Machine, Profile: j.Profile, Seed: j.Seed, Sequential: true}).Result
	if seq.ExecCycles <= direct.ExecCycles {
		t.Fatalf("sequential baseline (%d) should be slower than speculative (%d)",
			seq.ExecCycles, direct.ExecCycles)
	}
}
