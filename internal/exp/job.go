// Package exp is the experiment layer. It turns the repository's
// simulation sweeps — every figure, table and scaling extension of the
// paper's evaluation — into batches of canonical, content-hashable Jobs,
// and provides what executing them needs: the Runner that executes one
// attempt safely, a persistent on-disk result cache, the campaign journal
// and a run-metrics layer. Batches are scheduled by cluster.Coordinator,
// in process (cluster.Local, `-jobs N`) or on a fleet.
//
// The design exploits the property repro.Run documents: every simulation is
// a deterministic, isolated function of (machine, scheme, profile, seed,
// ablation knobs). That makes jobs freely reorderable across workers — the
// assembled outputs are byte-identical to a serial sweep — and makes a
// stable content hash of the inputs a sound memoization key, so a warm
// rerun only re-simulates what changed.
package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Ablation bundles the simulator's ablation knobs so a Job can describe the
// ablation benchmarks as well as the paper's design points. The zero value
// is the baseline protocol.
type Ablation struct {
	// LineGranularity makes violation detection operate at cache-line
	// granularity instead of the baseline word granularity.
	LineGranularity bool
	// ForceMTID replaces VCL version combining with the memory-side
	// task-ID filter (the Zhang99&T alternative for in-order lazy merging).
	ForceMTID bool
	// ORBCommit switches eager merging from write-backs to ORB-style
	// ownership requests.
	ORBCommit bool
}

// Job is the canonical description of one simulation: everything the run is
// a deterministic function of, and nothing else. Two Jobs with equal fields
// produce equal Results, which is what makes Key a sound cache key.
type Job struct {
	// Machine is the simulated architecture. Its unexported topology is
	// derived from Kind, Procs and Banks by the machine constructors, so
	// the exported fields fully determine it (and hence the hash).
	Machine *machine.Config
	// Scheme is the buffering design point. Ignored when Sequential is set.
	Scheme core.Scheme
	// Profile is the application's speculative section.
	Profile workload.Profile
	// Seed drives the deterministic workload generator.
	Seed uint64
	// Sequential selects the sequential-execution baseline run used to
	// normalize speedups instead of a speculative run of Scheme.
	Sequential bool
	// Ablation applies protocol ablation knobs (zero = baseline).
	Ablation Ablation
	// Faults, when non-nil, arms a deterministic fault-injection plan on
	// speculative runs. The plan is a pure function of the config, so it IS
	// part of the job's identity (and hence of Key): a faulted run and a
	// clean run of the same design point are different experiments.
	Faults *fault.Config
	// Invariants arms the runtime invariant checker and the final-memory
	// oracle on speculative runs; the verdict travels on JobResult.Chaos.
	// Like Faults it changes what the job reports, so it is part of Key.
	Invariants bool

	// Obs, when non-nil, installs an observability registry and sampler on
	// the built simulator. It is deliberately NOT part of Key: observability
	// never changes a Result (the observer-effect tests enforce this), so
	// observed and unobserved runs share cache entries — which also means a
	// cache hit skips the simulation and leaves the registry empty.
	Obs *obs.Config
	// Streams, when non-nil, is the batch's shared task-stream store: the
	// job's generator replays the streams stored there instead of generating
	// them again. Like Obs it is NOT part of Key — a stored stream is the
	// generated one.
	Streams *workload.Store
}

// Key returns the job's stable content hash: a hex SHA-256 over the
// canonical JSON encoding of every input field. Equal jobs hash equally
// across processes, which keys the persistent result cache.
func (j Job) Key() string {
	// A canonical struct keeps the encoding independent of any future
	// non-input fields on Job itself.
	canonical := struct {
		Machine    *machine.Config
		Scheme     core.Scheme
		Profile    workload.Profile
		Seed       uint64
		Sequential bool
		Ablation   Ablation
		Faults     *fault.Config `json:",omitempty"`
		Invariants bool          `json:",omitempty"`
	}{j.Machine, j.Scheme, j.Profile, j.Seed, j.Sequential, j.Ablation, j.Faults, j.Invariants}
	data, err := json.Marshal(canonical)
	if err != nil {
		// Only unmarshalable values (NaN floats in a profile) can land
		// here; fold the error into the hash rather than failing a sweep.
		data = []byte("unhashable: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Label returns a short human-readable description for progress and error
// reporting.
func (j Job) Label() string {
	m := "<nil>"
	if j.Machine != nil {
		m = j.Machine.Name
	}
	k := j.Scheme.String()
	if j.Sequential {
		k = "sequential"
	}
	return fmt.Sprintf("%s/%s/%s seed %d", m, j.Profile.Name, k, j.Seed)
}

// build constructs the simulator and, when the job arms fault injection,
// returns the live plan so the caller can derive the chaos verdict after the
// run. Faults and the invariant checker only arm speculative runs: the
// sequential baseline has no speculative protocol to stress or to check.
func (j Job) build() (*sim.Simulator, *fault.Plan) {
	gen := j.Streams.Generator(j.Profile, j.Seed)
	if j.Sequential {
		s := sim.NewSequentialOf(j.Machine, gen)
		if j.Obs != nil {
			s.Observe(*j.Obs)
		}
		return s, nil
	}
	s := sim.New(j.Machine, j.Scheme, gen)
	if j.Ablation.LineGranularity {
		s.SetLineGranularityConflicts(true)
	}
	if j.Ablation.ForceMTID {
		s.ForceMTID()
	}
	if j.Ablation.ORBCommit {
		s.SetORBCommit(true)
	}
	var plan *fault.Plan
	if j.Faults != nil {
		plan = fault.NewPlan(*j.Faults)
		s.InjectFaults(plan)
	}
	if j.Invariants {
		s.EnableInvariantChecks()
	}
	if j.Obs != nil {
		s.Observe(*j.Obs)
	}
	return s, plan
}

// chaotic reports whether the job carries chaos instrumentation. Chaotic
// jobs bypass the persistent result cache: their verdict (invariant report,
// memory-oracle outcome, injection counts) is not part of sim.Result, so a
// cache hit could not reconstruct it.
func (j Job) chaotic() bool {
	return j.Invariants || j.Faults != nil
}

// chaosSampleCap bounds the invariant-violation samples a verdict retains.
const chaosSampleCap = 5

// ChaosVerdict is the chaos-campaign outcome of an executed job: what the
// invariant checker and the final-memory oracle reported, and what the fault
// plan actually injected.
type ChaosVerdict struct {
	// Violations is the invariant checker's violation count; Samples holds
	// up to its retained sample messages.
	Violations int      `json:"violations"`
	Samples    []string `json:"samples,omitempty"`
	// Checked and WrongLines are the final-memory oracle's verdict: lines
	// compared against sequential execution, and mismatches found.
	Checked    int `json:"checked"`
	WrongLines int `json:"wrong_lines"`
	// Faults is how many faults the plan injected; FaultMix is the per-kind
	// breakdown ("none" for a quiet plan).
	Faults   int    `json:"faults"`
	FaultMix string `json:"fault_mix"`
}

// verdict derives the chaos verdict after s has run (nil for non-chaotic
// jobs). VerifyFinalMemory is itself deterministic, so the verdict is as
// replayable as the result.
func (j Job) verdict(s *sim.Simulator, plan *fault.Plan) *ChaosVerdict {
	if !j.chaotic() || j.Sequential {
		return nil
	}
	v := &ChaosVerdict{FaultMix: "none"}
	if plan != nil {
		v.Faults = plan.Total()
		v.FaultMix = plan.Summary()
	}
	if j.Invariants {
		v.Violations = s.InvariantViolationCount()
		for i, viol := range s.InvariantViolations() {
			if i == chaosSampleCap {
				break
			}
			v.Samples = append(v.Samples, viol.String())
		}
		v.Checked, v.WrongLines = s.VerifyFinalMemory()
	}
	return v
}
