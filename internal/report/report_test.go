package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/workload"
)

// fastApps is a reduced suite for tests: small versions of the three apps
// that exercise the major behaviours (privatization, commit ratio,
// squashes).
func fastApps() []workload.Profile {
	tree := workload.Tree().Scale(0.1, 0.1, 0.25)
	track := workload.Track().Scale(0.1, 0.1, 0.25)
	euler := workload.Euler().Scale(0.1, 0.1, 0.25)
	// At this tiny scale Euler's natural dependence rate is too sparse to
	// squash reliably; raise it so tests exercise recovery.
	euler.DepProb = 0.3
	return []workload.Profile{tree, track, euler}
}

func TestRunGridShape(t *testing.T) {
	g := RunGrid(machine.CMP8(), Figure9Schemes(), Options{Apps: fastApps(), Seed: 5})
	if len(g.Apps) != 3 {
		t.Fatalf("apps = %v", g.Apps)
	}
	if len(g.Schemes) != 6 {
		t.Fatalf("schemes = %d", len(g.Schemes))
	}
	for _, app := range g.Apps {
		for _, sch := range g.Schemes {
			c := g.Cell(app, sch)
			if c.Result.Commits != c.Result.Tasks {
				t.Errorf("%s/%v incomplete", app, sch)
			}
			if c.Seq == 0 {
				t.Errorf("%s missing sequential baseline", app)
			}
			if c.Result.OracleViolations != 0 {
				t.Errorf("%s/%v violated sequential semantics", app, sch)
			}
		}
	}
}

func TestGridProgressCallback(t *testing.T) {
	calls := 0
	RunGrid(machine.CMP8(), []core.Scheme{core.SingleTEager}, Options{
		Apps: fastApps()[:1], Seed: 2,
		JobObserver: func(exp.JobResult) { calls++ },
	})
	if calls != 2 {
		t.Fatalf("observer called %d times, want 2 (baseline and scheme)", calls)
	}
}

func TestCellHelpers(t *testing.T) {
	g := RunGrid(machine.CMP8(), []core.Scheme{core.SingleTEager, core.SingleTLazy},
		Options{Apps: fastApps()[:1], Seed: 3})
	app := g.Apps[0]
	c := g.Cell(app, core.SingleTEager)
	if c.Normalized(c.Result.ExecCycles) != 1.0 {
		t.Fatal("self-normalization must be 1")
	}
	if c.Normalized(0) != 0 {
		t.Fatal("zero reference must not divide")
	}
	if c.Speedup() <= 0 {
		t.Fatal("speedup must be positive")
	}
}

func TestSummarize(t *testing.T) {
	g := RunGrid(machine.CMP8(), Figure9Schemes(), Options{Apps: fastApps(), Seed: 7})
	s := Summarize(g)
	if s.Machine != "CMP8" {
		t.Fatal("machine name lost")
	}
	// The reductions must be finite percentages in a plausible band.
	for _, v := range []float64{s.MultiTMVOverSingleTPct, s.LazinessSimplePct, s.LazinessMultiTMVPct} {
		if v < -50 || v > 90 {
			t.Fatalf("implausible summary: %+v", s)
		}
	}
}

func TestCharacterize(t *testing.T) {
	chars := Characterize(Options{Apps: fastApps(), Seed: 9})
	if len(chars) != 3 {
		t.Fatalf("characterized %d apps", len(chars))
	}
	for _, c := range chars {
		if c.FootprintKB <= 0 || c.SpecTasksSystem <= 0 {
			t.Errorf("%s: empty characterization", c.Profile.Name)
		}
		if c.CENuma <= 0 || c.CECmp <= 0 {
			t.Errorf("%s: commit ratios missing (%f, %f)", c.Profile.Name, c.CENuma, c.CECmp)
		}
	}
	// For the dominant-commit app the NUMA ratio must exceed the CMP ratio
	// (Table 3's pattern); squash-heavy Euler at test scale is too noisy.
	if chars[1].CENuma <= chars[1].CECmp {
		t.Errorf("Track: NUMA commit ratio (%f) should exceed CMP (%f)", chars[1].CENuma, chars[1].CECmp)
	}
	// Tree is privatization-dominant; Track is not.
	if chars[0].PrivPct < 50 {
		t.Errorf("Tree priv%% = %f, want dominant", chars[0].PrivPct)
	}
	if chars[1].PrivPct > 10 {
		t.Errorf("Track priv%% = %f, want negligible", chars[1].PrivPct)
	}
	// Euler squashes.
	if chars[2].SquashRate == 0 {
		t.Error("Euler must squash")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	g := RunGrid(machine.CMP8(), Figure9Schemes(), Options{Apps: fastApps()[:1], Seed: 11})
	var buf bytes.Buffer
	RenderGrid(&buf, g, "Figure 9")
	RenderAverages(&buf, g)
	chars := Characterize(Options{Apps: fastApps()[:1], Seed: 11})
	RenderFigure1(&buf, chars)
	RenderTable3(&buf, chars)
	RenderTable1(&buf)
	RenderTable2(&buf)
	RenderFigure2(&buf)
	RenderFigure4(&buf)
	RenderFigure8(&buf)
	RenderSummary(&buf, Summarize(g), 32, 30, 24)
	out := buf.String()
	for _, want := range []string{
		"Figure 9", "SingleT Eager AMM", "MultiT&MV Lazy AMM",
		"Table 1", "CTID", "Table 2", "Remove commit wavefront",
		"Figure 2-(a)", "(shaded)", "Figure 4", "Prvulovic01",
		"Figure 8", "frequent recoveries", "Section 5.4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestFigure10WithLazyL2(t *testing.T) {
	p3m := workload.P3m().Scale(0.08, 0.1, 1)
	g, lazyL2 := Figure10(Options{Apps: []workload.Profile{p3m}, Seed: 13})
	if len(g.Schemes) != 4 {
		t.Fatalf("Figure 10 has 4 schemes, got %d", len(g.Schemes))
	}
	if lazyL2.Result.Commits == 0 {
		t.Fatal("Lazy.L2 cell missing for P3m")
	}
	fmm := g.Cell("P3m", core.MultiTMVFMM).Result
	if fmm.OverflowSpills != 0 {
		t.Fatal("FMM must not overflow")
	}
}

func TestExpectationChecks(t *testing.T) {
	g := RunGrid(machine.NUMA16(), Figure9Schemes(), Options{Apps: fastApps(), Seed: 15})
	checks := CheckFigure9Claims(g)
	if len(checks) == 0 {
		t.Fatal("no claims checked")
	}
	var buf bytes.Buffer
	RenderChecks(&buf, checks)
	if !strings.Contains(buf.String(), "Laziness speeds up SingleT in Track") {
		t.Error("Track laziness claim not rendered")
	}
}

func TestFigure5Timelines(t *testing.T) {
	var buf bytes.Buffer
	results := Figure5(&buf, 3)
	if len(results) != 3 {
		t.Fatalf("Figure 5 compares 3 schemes, got %d", len(results))
	}
	single := results[core.SingleTEager.String()]
	mv := results[core.MultiTMVEager.String()]
	if mv.ExecCycles >= single.ExecCycles {
		t.Errorf("Figure 5: MultiT&MV (%d) must finish before SingleT (%d)",
			mv.ExecCycles, single.ExecCycles)
	}
	if len(single.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	if !strings.Contains(buf.String(), "P0") || !strings.Contains(buf.String(), "P1") {
		t.Fatal("timeline lanes missing")
	}
}

func TestFigure6Wavefronts(t *testing.T) {
	var buf bytes.Buffer
	results := Figure6(&buf, 3)
	eager := results[core.MultiTMVEager.String()]
	lazy := results[core.MultiTMVLazy.String()]
	if lazy.ExecCycles >= eager.ExecCycles {
		t.Errorf("Figure 6: laziness (%d) must remove the commit wavefront (%d)",
			lazy.ExecCycles, eager.ExecCycles)
	}
	singleE := results[core.SingleTEager.String()]
	singleL := results[core.SingleTLazy.String()]
	if singleL.ExecCycles >= singleE.ExecCycles {
		t.Error("Figure 6 (c)->(d): laziness must help SingleT")
	}
}

func TestTimelineEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	g := RunGrid(machine.CMP8(), []core.Scheme{core.SingleTEager}, Options{Apps: fastApps()[:1], Seed: 2})
	Timeline(&buf, g.Cell(g.Apps[0], core.SingleTEager).Result, 8, 60)
	if !strings.Contains(buf.String(), "no trace") {
		t.Fatal("untraced run must render a notice")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if len(o.apps()) != 7 {
		t.Fatalf("default suite has %d apps, want 7", len(o.apps()))
	}
	if o.seed() == 0 {
		t.Fatal("default seed must be nonzero")
	}
}

func TestSerialAndParallelGridsAgree(t *testing.T) {
	apps := fastApps()[:2]
	par := RunGrid(machine.CMP8(), Figure9Schemes()[:3], Options{Apps: apps, Seed: 31})
	ser := RunGrid(machine.CMP8(), Figure9Schemes()[:3], Options{Apps: apps, Seed: 31, Jobs: 1})
	for _, app := range par.Apps {
		for _, sch := range par.Schemes {
			a, b := par.Cell(app, sch), ser.Cell(app, sch)
			if a.Result.ExecCycles != b.Result.ExecCycles || a.Seq != b.Seq {
				t.Errorf("%s/%v: parallel %d vs serial %d", app, sch,
					a.Result.ExecCycles, b.Result.ExecCycles)
			}
		}
	}
}

func TestScalabilitySweep(t *testing.T) {
	pts := ScalabilitySweep([]int{2, 4}, Options{Apps: fastApps()[:2], Seed: 33})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.SingleTEager != 1 {
			t.Errorf("procs %d: SingleT Eager must normalize to 1", p.Procs)
		}
		for _, v := range []float64{p.SingleTLazy, p.MultiTMVE, p.MultiTMVL} {
			if v <= 0 || v > 3 {
				t.Errorf("procs %d: implausible normalized time %f", p.Procs, v)
			}
		}
	}
	var buf bytes.Buffer
	RenderScalability(&buf, pts)
	if !strings.Contains(buf.String(), "Scalability") {
		t.Fatal("render missing header")
	}
}

func TestScalabilityAppsExcludeP3m(t *testing.T) {
	var o Options
	apps := scalabilityApps(o)
	if len(apps) != 6 {
		t.Fatalf("scalability suite has %d apps, want 6 (P3m excluded)", len(apps))
	}
	for _, p := range apps {
		if p.Name == "P3m" {
			t.Fatal("P3m must be excluded from scalability sweeps")
		}
	}
	// An explicit P3m-only option falls back to the given apps.
	p3m, _ := workload.AppByName("P3m")
	o.Apps = []workload.Profile{p3m.Scale(0.05, 0.05, 1)}
	if got := scalabilityApps(o); len(got) != 1 {
		t.Fatalf("P3m-only fallback broken: %d apps", len(got))
	}
}

func TestSeedStability(t *testing.T) {
	prof := fastApps()[2] // squash-prone Euler variant
	s := MeasureSeedStability(machine.CMP8(), core.MultiTMVLazy, prof, 1, 6)
	if s.Seeds != 6 || s.MeanCycles <= 0 {
		t.Fatalf("stability stats wrong: %+v", s)
	}
	if s.MinCycles > uint64(s.MeanCycles) || s.MaxCycles < uint64(s.MeanCycles) {
		t.Fatal("min/max must bracket the mean")
	}
	if s.CV() < 0 || s.CV() > 1 {
		t.Fatalf("implausible CV %f", s.CV())
	}
	// A squash-free workload must be far more stable than a squash-prone one.
	calm := fastApps()[0] // Tree
	cs := MeasureSeedStability(machine.CMP8(), core.MultiTMVLazy, calm, 1, 6)
	if cs.CV() > s.CV() && s.CV() > 0.01 {
		t.Errorf("Tree CV (%f) should not exceed Euler CV (%f)", cs.CV(), s.CV())
	}
}

func TestSignificant(t *testing.T) {
	a := SeedStability{MeanCycles: 1000, StddevCycles: 10}
	b := SeedStability{MeanCycles: 1100, StddevCycles: 10}
	if !Significant(a, b) {
		t.Fatal("100-cycle gap at sigma 10 must be significant")
	}
	c := SeedStability{MeanCycles: 1010, StddevCycles: 50}
	if Significant(a, c) {
		t.Fatal("10-cycle gap at sigma 50 must not be significant")
	}
	if Significant(a, a) {
		t.Fatal("identical results are never significant")
	}
}
