package cluster

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestCoordinatorResume kills a coordinator mid-campaign (journal left
// behind, process state gone) and verifies that a new coordinator seeded
// from exp.LoadCampaign answers the finished jobs — including a chaotic one
// whose verdict only exists in the journal — without leasing anything, and
// re-queues the job whose lease died with the old process.
func TestCoordinatorResume(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "campaign.wal")
	cache, err := exp.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs()
	specs := make([]JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = SpecOf(j)
	}
	chaotic := specs[4] // Faults + Invariants

	j1, err := exp.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	co1 := NewCoordinator(Config{Name: "resume", Cache: cache, Journal: j1})
	co1.Preload(specs)
	lr := co1.LeaseJobs(LeaseRequest{Worker: "w1", Max: len(specs)})
	if len(lr.Leases) != len(specs) {
		t.Fatalf("leased %d of %d", len(lr.Leases), len(specs))
	}
	// Finish everything except the job in lr.Leases[0]: its lease dies with
	// the coordinator. Chaotic outcomes carry a verdict.
	for _, l := range lr.Leases[1:] {
		o := Outcome{Key: l.Spec.Key, Worker: "w1"}
		if l.Spec.Chaotic() {
			o.Chaos = &exp.ChaosVerdict{Violations: 3, Faults: 7, FaultMix: "test"}
		}
		resp := co1.Complete(CompleteRequest{Worker: "w1", Lease: l.ID, Key: l.Spec.Key, Env: sealOutcome(t, o)})
		if !resp.Accepted || resp.Duplicate {
			t.Fatalf("complete %.12s: %+v", l.Spec.Key, resp)
		}
	}
	interrupted := lr.Leases[0].Spec.Key
	j1.Close() // SIGKILL: no graceful shutdown beyond the synced WAL

	st, err := exp.LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != len(specs)-1 {
		t.Fatalf("replayed %d done, want %d", len(st.Done), len(specs)-1)
	}
	if st.Leases[interrupted] != "w1" {
		t.Fatalf("dangling lease lost: %+v", st.Leases)
	}
	if _, ok := st.Outcomes[chaotic.Key]; !ok {
		t.Fatal("chaotic outcome not journaled")
	}

	j2, err := exp.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	co2 := NewCoordinator(Config{Name: "resume", Cache: cache, Journal: j2, State: st})
	resp := co2.Preload(specs)
	if resp.Done != len(specs)-1 {
		t.Fatalf("resumed submit settled %d, want %d", resp.Done, len(specs)-1)
	}
	if co2.ctr.resumeHits != uint64(len(specs)-1) {
		t.Fatalf("resume hits: %+v", co2.ctr)
	}
	res := co2.Results(ResultsRequest{Keys: []string{chaotic.Key}})
	var o Outcome
	if err := res.Results[chaotic.Key].Open(&o); err != nil {
		t.Fatal(err)
	}
	if o.Chaos == nil || o.Chaos.Violations != 3 || o.Chaos.FaultMix != "test" {
		t.Fatalf("chaotic verdict lost across resume: %+v", o.Chaos)
	}
	// The one unfinished job is pending again and leasable by a new worker.
	lr2 := co2.LeaseJobs(LeaseRequest{Worker: "w2", Max: len(specs)})
	if len(lr2.Leases) != 1 || lr2.Leases[0].Spec.Key != interrupted {
		t.Fatalf("interrupted job not re-leased: %+v", lr2)
	}
}

// TestWorkerDrainReleasesLease cancels a worker mid-simulation and verifies
// the in-flight job's lease is returned to the coordinator and re-queued
// rather than completed or lost.
func TestWorkerDrainReleasesLease(t *testing.T) {
	co := NewCoordinator(Config{Name: "drain", StealAfter: -1})
	addr, err := co.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()

	// One deliberately slow job (~500ms) so the cancel lands mid-run.
	slow := exp.Job{
		Machine: machine.CMP8(), Scheme: core.MultiTMVLazy,
		Profile: workload.Tree().Scale(1, 4, 1), Seed: 1,
	}
	co.Preload([]JobSpec{SpecOf(slow)})

	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorker(WorkerConfig{Name: "w1", Coordinator: "http://" + addr, Poll: 10 * time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for co.Counts().Leased != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never leased")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond) // let the simulation start
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain")
	}

	n := co.Counts()
	if n.Leased != 0 || n.Pending != 1 || n.Done != 0 {
		t.Fatalf("after drain: %+v", n)
	}
	if co.ctr.leasesReturned == 0 {
		t.Fatalf("lease not returned: %+v", co.ctr)
	}
}
