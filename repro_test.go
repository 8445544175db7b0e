package repro_test

import (
	"bytes"
	"context"
	"testing"

	"repro"
)

func TestPublicAPIQuickstart(t *testing.T) {
	prof, ok := repro.AppByName("Tree")
	if !ok {
		t.Fatal("Tree missing")
	}
	prof = prof.Scale(0.1, 0.1, 0.25)
	seq := repro.RunSequential(repro.NUMA16(), prof, 1)
	res := repro.Run(repro.NUMA16(), repro.MultiTMVLazy, prof, 1)
	if res.Speedup(seq.ExecCycles) <= 1 {
		t.Fatalf("speedup = %f", res.Speedup(seq.ExecCycles))
	}
	if res.OracleViolations != 0 {
		t.Fatal("sequential semantics violated")
	}
}

func TestPublicTaxonomy(t *testing.T) {
	if len(repro.AllSchemes()) != 8 {
		t.Fatal("AllSchemes wrong")
	}
	if !repro.RequiredSupports(repro.MultiTMVLazy).Has(repro.Support(0)) { // CTID
		t.Fatal("supports not exposed")
	}
	if len(repro.UpgradePath()) != 4 || len(repro.ExistingSchemes()) < 12 {
		t.Fatal("taxonomy artifacts missing")
	}
	if repro.SingleTEager.Sep != repro.SingleT || repro.MultiTMVFMM.Merge != repro.FMM {
		t.Fatal("axis constants wrong")
	}
}

func TestPublicSuite(t *testing.T) {
	if len(repro.Apps()) != 7 || len(repro.StandardSuite()) != 7 {
		t.Fatal("suite wrong")
	}
	if repro.P3m().Name != "P3m" || repro.Euler().Name != "Euler" {
		t.Fatal("app constructors wrong")
	}
	if _, ok := repro.AppByName("nope"); ok {
		t.Fatal("unknown app found")
	}
}

func TestPublicMachines(t *testing.T) {
	if repro.NUMA16().Procs != 16 || repro.CMP8().Procs != 8 {
		t.Fatal("machine configs wrong")
	}
	if repro.NUMA16BigL2().L2.Ways != 16 {
		t.Fatal("Lazy.L2 variant wrong")
	}
}

func TestPublicTracing(t *testing.T) {
	prof := repro.Tree().Scale(0.05, 0.05, 0.25)
	s := repro.NewSimulator(repro.CMP8(), repro.SingleTEager, prof, 2)
	s.EnableTrace()
	r := s.Run()
	if len(r.Trace) == 0 {
		t.Fatal("no trace")
	}
}

func TestPublicFigures5And6(t *testing.T) {
	var buf bytes.Buffer
	if res := repro.Figure5(&buf, 1); len(res) != 3 {
		t.Fatal("Figure5 wrong")
	}
	if res := repro.Figure6(&buf, 1); len(res) != 4 {
		t.Fatal("Figure6 wrong")
	}
	if buf.Len() == 0 {
		t.Fatal("no rendering")
	}
}

func TestPublicGridAndSummary(t *testing.T) {
	apps := []repro.Profile{repro.Track().Scale(0.1, 0.1, 0.25)}
	g := repro.Figure11(repro.Options{Apps: apps, Seed: 4})
	if len(g.Apps) != 1 {
		t.Fatal("grid wrong")
	}
	s := repro.Summarize(g)
	if s.Machine != "CMP8" {
		t.Fatal("summary wrong")
	}
	chars := repro.Characterize(repro.Options{Apps: apps, Seed: 4})
	if len(chars) != 1 || chars[0].FootprintKB <= 0 {
		t.Fatal("characterization wrong")
	}
}

func TestPublicBatchOrchestration(t *testing.T) {
	prof := repro.Tree().Scale(0.05, 0.05, 0.25)
	cfg := repro.CMP8()
	jobs := []repro.Job{
		{Machine: cfg, Profile: prof, Seed: 1, Sequential: true},
		{Machine: cfg, Scheme: repro.MultiTMVLazy, Profile: prof, Seed: 1},
	}
	results, err := repro.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("batch failed: %+v", results)
	}
	// Batch results must equal the single-run facade exactly.
	direct := repro.Run(cfg, repro.MultiTMVLazy, prof, 1)
	if results[1].Result.ExecCycles != direct.ExecCycles {
		t.Fatalf("batch %d cycles vs direct %d cycles",
			results[1].Result.ExecCycles, direct.ExecCycles)
	}
	seq := repro.RunSequential(cfg, prof, 1)
	if results[0].Result.ExecCycles != seq.ExecCycles {
		t.Fatal("sequential batch job differs from RunSequential")
	}
	if jobs[0].Key() == jobs[1].Key() || len(jobs[0].Key()) != 64 {
		t.Fatal("job keys wrong")
	}
}

func TestPublicCachedRunner(t *testing.T) {
	cache, err := repro.NewResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prof := repro.Tree().Scale(0.05, 0.05, 0.25)
	jobs := []repro.Job{{Machine: repro.CMP8(), Scheme: repro.SingleTEager, Profile: prof, Seed: 3}}
	r := &repro.Runner{Cache: cache}
	if _, err := r.RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	// A repeat on the same runner is answered by its coordinator without
	// executing; a fresh runner over the same cache gets a cache hit.
	if _, err := r.RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	if s.Executed != 1 || s.Deduped != 1 || s.Total != 2 {
		t.Fatalf("repeat on the same runner: %+v", s)
	}
	fresh := &repro.Runner{Cache: cache}
	warm, err := fresh.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !warm[0].Cached {
		t.Fatal("a fresh runner's run must be a cache hit")
	}
	s = fresh.Snapshot()
	if s.Executed != 0 || s.CacheHits != 1 || s.Total != 1 {
		t.Fatalf("metrics: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty metrics line")
	}
}
