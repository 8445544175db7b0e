package exp_test

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/sim"
)

// TestSingleflightSharesOneExecution submits four identical jobs to a
// four-slot executor: the coordinator dedupes by key, so exactly one
// execution must happen, and the other three results must be marked Deduped
// while sharing the first one's outcome — with no execution of their own in
// the metrics (Attempts and Wall 0).
func TestSingleflightSharesOneExecution(t *testing.T) {
	job := exp.Job{Machine: machine.CMP8(), Scheme: core.MultiTMVLazy, Profile: exp.TinyProfile(), Seed: 7}
	jobs := []exp.Job{job, job, job, job}

	var execs atomic.Int64
	l := &cluster.Local{Workers: len(jobs)}
	exp.SetExecOverride(&l.Runner, func(j exp.Job) sim.Result {
		execs.Add(1)
		return sim.Result{ExecCycles: 42}
	})
	results, err := l.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("identical jobs executed %d times, want 1", got)
	}
	deduped := 0
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if jr.Result.ExecCycles != 42 {
			t.Fatalf("job %d: cycles %d, want the shared 42", i, jr.Result.ExecCycles)
		}
		if jr.Deduped {
			deduped++
			if jr.Attempts != 0 || jr.Wall != 0 {
				t.Fatalf("deduped job %d accounts for an execution: attempts %d wall %v", i, jr.Attempts, jr.Wall)
			}
		}
	}
	if deduped != 3 || results[0].Deduped {
		t.Fatalf("%d results marked Deduped (first %v), want the 3 followers", deduped, results[0].Deduped)
	}
	s := l.Snapshot()
	if s.Executed != 1 || s.Deduped != 3 {
		t.Fatalf("metrics: executed %d deduped %d, want 1 and 3", s.Executed, s.Deduped)
	}
}

// TestSingleflightDistinctJobsUnaffected makes sure distinct keys are never
// folded together.
func TestSingleflightDistinctJobsUnaffected(t *testing.T) {
	jobs := testBatch()
	results, err := (&cluster.Local{Workers: 4}).RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range results {
		if jr.Err != nil || jr.Deduped {
			t.Fatalf("job %d: err=%v deduped=%v", i, jr.Err, jr.Deduped)
		}
	}
}
