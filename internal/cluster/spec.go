// Package cluster is the campaign scheduler: a coordinator that owns a
// campaign's job set, leases, journal and result cache, and workers that
// pull job batches, execute each lease as one attempt of the hardened
// exp.Runner, and stream results and heartbeats back. On a fleet the three
// parts are tlsserve, tlsworker and a -coordinator client talking HTTP;
// locally (`-jobs N`) Local runs the same three in one process through an
// in-memory transport, so every campaign has one lifecycle.
//
// The design leans entirely on the property that makes this sound: a Job is a canonical, content-hashed description of a
// deterministic simulation. That turns distribution into a cache-filling
// problem — any worker may run any job, duplicates are harmless (first valid
// result wins), and a campaign assembled from fleet results is
// reflect.DeepEqual-identical to a serial run of the same grid. Leases bound
// the damage of a dead worker, speculative re-issue bounds the damage of a
// slow one (the scheduling-layer analogue of the paper's squash-and-retry),
// and the PR-4 journal makes the coordinator itself crash-resumable.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/workload"
)

// JobSpec is the wire form of an exp.Job. The machine travels by name, not
// by value: machine.Config carries an unexported topology only its
// constructors can derive, so the receiver rebuilds the config from the name
// and then proves the reconstruction faithful by re-deriving the content
// hash and comparing it to the sender's Key.
type JobSpec struct {
	Machine    string           `json:"machine"`
	Scheme     core.Scheme      `json:"scheme"`
	Profile    workload.Profile `json:"profile"`
	Seed       uint64           `json:"seed"`
	Sequential bool             `json:"sequential,omitempty"`
	Ablation   exp.Ablation     `json:"ablation"`
	Faults     *fault.Config    `json:"faults,omitempty"`
	Invariants bool             `json:"invariants,omitempty"`
	// Key is the sender's Job.Key(): the job identity everything else in
	// the fabric (leases, cache, journal, results) is keyed by.
	Key string `json:"key"`
	// Campaign is the campaign correlation ID stamped by the coordinator at
	// submission. Like Obs it is deliberately NOT part of the job identity —
	// Job() ignores it, so the same job re-submitted under a new campaign
	// still dedupes and cache-hits — but it rides every lease so worker
	// spans, journal records and quarantine manifests name their campaign.
	Campaign string `json:"campaign,omitempty"`
}

// SpecOf converts a job to its wire form. Obs deliberately does not travel:
// observability is a per-worker choice and never part of a job's identity.
func SpecOf(j exp.Job) JobSpec {
	name := ""
	if j.Machine != nil {
		name = j.Machine.Name
	}
	return JobSpec{
		Machine: name, Scheme: j.Scheme, Profile: j.Profile, Seed: j.Seed,
		Sequential: j.Sequential, Ablation: j.Ablation,
		Faults: j.Faults, Invariants: j.Invariants,
		Key: j.Key(),
	}
}

// Job reconstructs the exp.Job a spec describes, verifying that the rebuilt
// job hashes to the sender's Key — a mismatch means the two processes
// disagree about what the job is (a version skew or an unknown machine) and
// running it would poison the cache under the wrong identity.
func (s JobSpec) Job() (exp.Job, error) {
	cfg, err := machine.ByName(s.Machine)
	if err != nil {
		return exp.Job{}, err
	}
	j := exp.Job{
		Machine: cfg, Scheme: s.Scheme, Profile: s.Profile, Seed: s.Seed,
		Sequential: s.Sequential, Ablation: s.Ablation,
		Faults: s.Faults, Invariants: s.Invariants,
	}
	if key := j.Key(); key != s.Key {
		return exp.Job{}, fmt.Errorf("cluster: job %s rebuilt with key %.12s, sender says %.12s (version skew?)",
			j.Label(), key, s.Key)
	}
	return j, nil
}
