package report

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/machine"
)

// countingBatcher delegates to a local executor while recording the calls —
// the report-layer view of a remote executor.
type countingBatcher struct {
	batches int
	jobs    int
}

func (b *countingBatcher) RunBatch(ctx context.Context, jobs []exp.Job) ([]exp.JobResult, error) {
	b.batches++
	b.jobs += len(jobs)
	return (&cluster.Local{Workers: 2}).RunBatch(ctx, jobs)
}

// TestBatcherGridAgreesWithLocal routes a grid sweep through Options.Batcher
// and requires the assembled grid — cells, baselines, failure manifest — to
// be identical to the default local run, with the JobObserver hook firing
// once per job.
func TestBatcherGridAgreesWithLocal(t *testing.T) {
	apps := fastApps()
	local := RunGrid(machine.CMP8(), Figure9Schemes(), Options{Apps: apps, Seed: 5})

	b := &countingBatcher{}
	progress := 0
	remote := RunGrid(machine.CMP8(), Figure9Schemes(), Options{
		Apps: apps, Seed: 5, Batcher: b,
		JobObserver: func(exp.JobResult) { progress++ },
	})
	if want := len(apps) * (len(Figure9Schemes()) + 1); progress != want {
		t.Fatalf("progress fired %d times, want %d", progress, want)
	}
	if b.batches != 1 {
		t.Fatalf("batcher called %d times, want 1", b.batches)
	}
	if want := len(apps) * (len(Figure9Schemes()) + 1); b.jobs != want {
		t.Fatalf("batcher saw %d jobs, want %d", b.jobs, want)
	}
	if !reflect.DeepEqual(local.Cells, remote.Cells) {
		t.Fatal("batcher grid differs from local grid")
	}
	if !reflect.DeepEqual(local.Apps, remote.Apps) || local.Machine != remote.Machine {
		t.Fatal("grid metadata differs")
	}
}

// TestGridJobsMatchesRunGrid pins the GridJobs ordering contract that
// coordinator-side campaign preloading and the stream store's residency
// depend on: app-major, each app's baseline followed by that app's schemes
// in order.
func TestGridJobsMatchesRunGrid(t *testing.T) {
	opt := Options{Apps: fastApps(), Seed: 5}
	schemes := Figure9Schemes()
	jobs := GridJobs(machine.CMP8(), schemes, opt)
	per := len(schemes) + 1
	if len(jobs) != len(opt.Apps)*per {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for i, j := range jobs {
		app, slot := opt.Apps[i/per].Name, i%per
		if j.Profile.Name != app {
			t.Fatalf("job %d profile %s, want %s", i, j.Profile.Name, app)
		}
		if slot == 0 {
			if !j.Sequential {
				t.Fatalf("job %d is not the %s baseline: %s", i, app, j.Label())
			}
			continue
		}
		if j.Sequential || j.Scheme != schemes[slot-1] {
			t.Fatalf("job %d is %s, want %s/%v", i, j.Label(), app, schemes[slot-1])
		}
	}
}
