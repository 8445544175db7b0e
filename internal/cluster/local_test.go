package cluster

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
)

// TestLocalStoreEvictsSettledPairs: a batch's stream store keeps a
// (profile, seed) pair exactly while the batch has unsettled jobs for it,
// whether its jobs settle by executing, from the result cache, or by
// failing; and no job keeps the store alive after the batch.
func TestLocalStoreEvictsSettledPairs(t *testing.T) {
	cache, err := exp.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prof := tinyProfile()
	cfg := machine.CMP8()
	cached := exp.Job{Machine: cfg, Scheme: core.MultiTMVLazy, Profile: prof, Seed: 2}
	if _, err := (&Local{Workers: 1, Cache: cache}).RunBatch(context.Background(), []exp.Job{cached}); err != nil {
		t.Fatal(err)
	}
	jobs := []exp.Job{
		{Machine: cfg, Profile: prof, Seed: 1, Sequential: true},
		{Machine: cfg, Scheme: core.SingleTEager, Profile: prof, Seed: 1},
		{Machine: cfg, Scheme: core.MultiTMVLazy, Profile: prof, Seed: 1},
		cached,
		{Machine: nil, Scheme: core.MultiTMVLazy, Profile: prof, Seed: 3}, // fails
	}
	unsettled := map[uint64]int{}
	for _, j := range jobs {
		unsettled[j.Seed]++
	}
	l := &Local{Workers: 1, Cache: cache, FailLimit: 1}
	settled := 0
	l.Progress = func(jr exp.JobResult) {
		settled++
		seed := jr.Job.Seed
		unsettled[seed]--
		if resident := l.streams.Resident(prof, seed); resident != (unsettled[seed] > 0) {
			t.Errorf("seed %d with %d unsettled jobs: resident = %v", seed, unsettled[seed], resident)
		}
	}
	results, err := l.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if settled != len(jobs) {
		t.Fatalf("%d of %d jobs settled", settled, len(jobs))
	}
	if !results[3].Cached || results[4].Err == nil {
		t.Fatalf("want a cache hit and a failure: cached=%v err=%v", results[3].Cached, results[4].Err)
	}
	want := serialResults(jobs[:3])
	for i := range want {
		if results[i].Err != nil || results[i].Result.ExecCycles != want[i].Result.ExecCycles {
			t.Fatalf("job %d: %v, %d cycles, want %d", i, results[i].Err, results[i].Result.ExecCycles, want[i].Result.ExecCycles)
		}
	}
	if l.streams != nil {
		t.Fatal("the batch's store outlived the batch")
	}
	for k, j := range l.byKey {
		if j.Streams != nil {
			t.Fatalf("job %.12s still references a finished batch's store", k)
		}
	}
}
