// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design decisions DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark iteration performs the full experiment for its artifact
// and reports the headline quantities as custom metrics, so the benchmark
// log doubles as the reproduction record (EXPERIMENTS.md is distilled from
// it). Absolute cycle counts are properties of this simulator, not of the
// authors' testbed; the metrics to compare against the paper are the
// normalized ratios.
package repro_test

import (
	"fmt"
	"io"
	"testing"

	"repro"
	"repro/internal/event"
	"repro/internal/report"
)

func opt() repro.Options { return repro.Options{Seed: 1} }

// benchGrid reports per-scheme average normalized times of a grid.
func reportGridMetrics(b *testing.B, g *repro.Grid) {
	base := g.Schemes[0]
	for _, sch := range g.Schemes {
		sum := 0.0
		for _, app := range g.Apps {
			ref := g.Cell(app, base).Result.ExecCycles
			sum += g.Cell(app, sch).Normalized(ref)
		}
		b.ReportMetric(sum/float64(len(g.Apps)), "norm:"+sch.ShortName()+"/"+sch.Sep.String())
	}
}

func countHolds(checks []repro.ExpectationCheck) (holds float64) {
	for _, c := range checks {
		if c.Holds {
			holds++
		}
	}
	return holds
}

// BenchmarkTable1 renders the support inventory (static artifact).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.RenderTable1(io.Discard)
	}
}

// BenchmarkTable2 renders the upgrade path (static artifact).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.RenderTable2(io.Discard)
	}
}

// BenchmarkFigure2 renders the taxonomy grid (static artifact).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.RenderFigure2(io.Discard)
	}
}

// BenchmarkFigure4 renders the existing-scheme mapping (static artifact).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.RenderFigure4(io.Discard)
	}
}

// BenchmarkFigure8 renders the limiting characteristics (static artifact).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.RenderFigure8(io.Discard)
	}
}

// BenchmarkFigure1 measures the application characteristics of Figure 1-(a):
// co-existing speculative tasks and written footprints.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chars := repro.Characterize(opt())
		for _, c := range chars {
			b.ReportMetric(c.SpecTasksPerProc, "specTasksPerProc:"+c.Profile.Name)
			b.ReportMetric(c.FootprintKB, "footKB:"+c.Profile.Name)
		}
	}
}

// BenchmarkTable3 measures the Commit/Execution ratios of Table 3 on both
// machines (compare the metric pairs against the paper's 0.3/0.1 ...
// 14.5/7.5 pattern: NUMA roughly double the CMP ratio per application).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chars := repro.Characterize(opt())
		for _, c := range chars {
			b.ReportMetric(c.CENuma, "ceNUMA%:"+c.Profile.Name)
			b.ReportMetric(c.CECmp, "ceCMP%:"+c.Profile.Name)
			b.ReportMetric(c.SquashRate, "squashPerTask:"+c.Profile.Name)
		}
	}
}

// BenchmarkFigure5 reproduces the SingleT / MultiT&SV / MultiT&MV task
// timelines; the metric is each scheme's completion time relative to
// SingleT (MultiT&MV must be fastest).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := repro.Figure5(io.Discard, 1)
		base := float64(res[repro.SingleTEager.String()].ExecCycles)
		b.ReportMetric(float64(res[repro.MultiTSVEager.String()].ExecCycles)/base, "norm:MultiT&SV")
		b.ReportMetric(float64(res[repro.MultiTMVEager.String()].ExecCycles)/base, "norm:MultiT&MV")
	}
}

// BenchmarkFigure6 reproduces the execution/commit wavefront comparison;
// the metrics are the Lazy/Eager completion ratios for MultiT&MV (a vs b)
// and SingleT (c vs d) — both must be below 1.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := repro.Figure6(io.Discard, 1)
		b.ReportMetric(float64(res[repro.MultiTMVLazy.String()].ExecCycles)/
			float64(res[repro.MultiTMVEager.String()].ExecCycles), "lazyOverEager:MultiT&MV")
		b.ReportMetric(float64(res[repro.SingleTLazy.String()].ExecCycles)/
			float64(res[repro.SingleTEager.String()].ExecCycles), "lazyOverEager:SingleT")
	}
}

// BenchmarkFigure9 runs the NUMA separation/merging grid. Metrics: average
// normalized execution time per scheme (SingleT Eager = 1) and the number
// of the paper's Section 5.1/5.2 claims that hold.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := repro.Figure9(opt())
		reportGridMetrics(b, g)
		checks := report.CheckFigure9Claims(g)
		b.ReportMetric(countHolds(checks), "claimsHold")
		b.ReportMetric(float64(len(checks)), "claimsTotal")
	}
}

// BenchmarkFigure10 runs the NUMA AMM-versus-FMM grid plus P3m's Lazy.L2
// configuration.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, lazyL2 := repro.Figure10(opt())
		reportGridMetrics(b, g)
		checks := report.CheckFigure10Claims(g, lazyL2)
		b.ReportMetric(countHolds(checks), "claimsHold")
		b.ReportMetric(float64(len(checks)), "claimsTotal")
		amm := g.Cell("P3m", repro.MultiTMVLazy).Result
		b.ReportMetric(float64(amm.OverflowSpills), "p3mSpills:LazyAMM")
		b.ReportMetric(float64(lazyL2.Result.OverflowSpills), "p3mSpills:Lazy.L2")
	}
}

// BenchmarkFigure11 runs the CMP grid of Figure 11; the deltas between
// schemes must be visibly smaller than on the NUMA machine.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := repro.Figure11(opt())
		reportGridMetrics(b, g)
	}
}

// BenchmarkSummary computes the Section 5.4 headline averages: compare
// against the paper's 32/30/24% (NUMA) and 23/9/3% (CMP).
func BenchmarkSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		numa := repro.Summarize(repro.Figure9(opt()))
		cmp := repro.Summarize(repro.Figure11(opt()))
		b.ReportMetric(numa.MultiTMVOverSingleTPct, "NUMA:mv%")
		b.ReportMetric(numa.LazinessSimplePct, "NUMA:lazySimple%")
		b.ReportMetric(numa.LazinessMultiTMVPct, "NUMA:lazyMV%")
		b.ReportMetric(cmp.MultiTMVOverSingleTPct, "CMP:mv%")
		b.ReportMetric(cmp.LazinessSimplePct, "CMP:lazySimple%")
		b.ReportMetric(cmp.LazinessMultiTMVPct, "CMP:lazyMV%")
	}
}

// BenchmarkAblationGranularity contrasts word-granularity violation
// detection (the baseline protocol) with line-granularity detection on a
// workload with packed communication words: false sharing turns into
// spurious squashes under line granularity.
func BenchmarkAblationGranularity(b *testing.B) {
	prof := repro.Euler().Scale(0.25, 0.1, 0.25)
	prof.PackedChannels = true
	for i := 0; i < b.N; i++ {
		word := repro.NewSimulator(repro.NUMA16(), repro.MultiTMVLazy, prof, 1)
		wr := word.Run()
		line := repro.NewSimulator(repro.NUMA16(), repro.MultiTMVLazy, prof, 1)
		line.SetLineGranularityConflicts(true)
		lr := line.Run()
		b.ReportMetric(float64(wr.SquashEvents), "squashes:word")
		b.ReportMetric(float64(lr.SquashEvents), "squashes:line")
		b.ReportMetric(float64(lr.ExecCycles)/float64(wr.ExecCycles), "lineOverWord")
	}
}

// BenchmarkAblationMerging contrasts the two in-order lazy-merging
// supports: the version-combining logic (our baseline) and the Zhang99&T
// memory task-ID filter. Timing is equivalent in this model; the metric of
// interest is the stale write-backs MTID rejects.
func BenchmarkAblationMerging(b *testing.B) {
	// A fully privatized workload: every task creates a version of the same
	// lines, so committed versions of one line linger in several caches and
	// displace out of order — the case the VCL's combining or MTID's
	// rejections must handle.
	prof := repro.Bdna().Scale(0.25, 0.1, 0.25)
	prof.PrivFrac = 1.0
	for i := 0; i < b.N; i++ {
		vcl := repro.Run(repro.NUMA16(), repro.MultiTMVLazy, prof, 1)
		mtid := repro.NewSimulator(repro.NUMA16(), repro.MultiTMVLazy, prof, 1)
		mtid.ForceMTID()
		mr := mtid.Run()
		b.ReportMetric(float64(mr.ExecCycles)/float64(vcl.ExecCycles), "mtidOverVcl")
		b.ReportMetric(float64(mr.MemRejected), "mtidRejections")
	}
}

// BenchmarkAblationOverflowLatency sweeps the overflow-area access latency
// under deep version stacks — the knob behind Figure 10's AMM pressure
// penalty. The workload is a single-invocation, fully privatized,
// straggler-bound loop (a distilled P3m): hundreds of tasks buffer behind
// the long ones, stacking versions of the same lines far beyond the L2's
// associativity.
func BenchmarkAblationOverflowLatency(b *testing.B) {
	prof := repro.Profile{
		Name:           "pressure",
		Tasks:          360,
		InstrPerTask:   6000,
		FootprintBytes: 4096,
		WriteDensity:   16,
		PrivFrac:       1.0,
		WritePhase:     0.5,
		ImbalanceCV:    0.3,
		HeavyTailFrac:  0.01,
		HeavyTailMax:   120,
		ReadsPerWrite:  1.0,
		SharedReadFrac: 0.2,
		HotReadWords:   2048,
	}
	for i := 0; i < b.N; i++ {
		base := 0.0
		for _, f := range []uint64{1, 2, 4} {
			m := repro.NUMA16()
			m.LatOverflow *= event.Time(f)
			r := repro.Run(m, repro.MultiTMVEager, prof, 1)
			if f == 1 {
				base = float64(r.ExecCycles)
				b.ReportMetric(float64(r.OverflowSpills), "spills")
			}
			b.ReportMetric(float64(r.ExecCycles)/base, fmt.Sprintf("normAtLat%dx", f))
		}
	}
}

// BenchmarkAblationTokenCost sweeps the commit-token pass latency on a
// high commit-ratio workload: the serialization behind the SingleT and
// Eager wavefronts.
func BenchmarkAblationTokenCost(b *testing.B) {
	prof := repro.Track().Scale(0.25, 0.1, 0.25)
	for i := 0; i < b.N; i++ {
		base := 0.0
		for _, f := range []uint64{1, 4, 16} {
			m := repro.NUMA16()
			m.TokenPass *= event.Time(f)
			r := repro.Run(m, repro.SingleTLazy, prof, 1)
			if f == 1 {
				base = float64(r.ExecCycles)
			}
			b.ReportMetric(float64(r.ExecCycles)/base, fmt.Sprintf("normAtToken%dx", f))
		}
	}
}

// BenchmarkAblationLogging contrasts hardware and software undo logging
// (FMM vs FMM.Sw) on a squash-free workload, isolating the logging cost
// itself (the paper reports 6% average).
func BenchmarkAblationLogging(b *testing.B) {
	prof := repro.Bdna().Scale(0.25, 0.1, 0.25)
	for i := 0; i < b.N; i++ {
		hw := repro.Run(repro.NUMA16(), repro.MultiTMVFMM, prof, 1)
		sw := repro.Run(repro.NUMA16(), repro.MultiTMVFMMSw, prof, 1)
		b.ReportMetric(100*(float64(sw.ExecCycles)/float64(hw.ExecCycles)-1), "swOverhead%")
	}
}

// BenchmarkScalability sweeps NUMA machine sizes (4-32 processors) and
// reports how the two supports' reductions scale — the paper's
// "in large machines, their effect is nearly fully additive" claim. The
// additivity metric is (gain of MV+lazy) minus (gain of MV) - (gain of
// lazy-on-MV scaled): near zero means fully additive.
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := repro.Scalability(opt())
		for _, p := range pts {
			b.ReportMetric(p.MultiTMVPct, fmt.Sprintf("mvGain%%@%dp", p.Procs))
			b.ReportMetric(p.LazinessMVPct, fmt.Sprintf("lazyMVGain%%@%dp", p.Procs))
			b.ReportMetric(p.LazinessSimplePct, fmt.Sprintf("lazySTGain%%@%dp", p.Procs))
		}
	}
}

// BenchmarkExtensionCoarseRecovery compares the LRPD-style software-only
// baseline (Figure 4's Coarse Recovery class) against SingleT Eager and
// MultiT&MV Lazy on a dependence-free privatization loop (where the doall
// wins) and on the squash-prone Euler (where serial re-execution is
// catastrophic).
func BenchmarkExtensionCoarseRecovery(b *testing.B) {
	tree := repro.Tree().Scale(0.5, 0.25, 0.25)
	euler := repro.Euler().Scale(0.5, 0.25, 0.25)
	for i := 0; i < b.N; i++ {
		for _, tc := range []struct {
			name string
			prof repro.Profile
		}{{"Tree", tree}, {"Euler", euler}} {
			base := repro.Run(repro.NUMA16(), repro.SingleTEager, tc.prof, 1)
			coarse := repro.Run(repro.NUMA16(), repro.CoarseRecovery, tc.prof, 1)
			lazy := repro.Run(repro.NUMA16(), repro.MultiTMVLazy, tc.prof, 1)
			b.ReportMetric(float64(coarse.ExecCycles)/float64(base.ExecCycles), "coarseNorm:"+tc.name)
			b.ReportMetric(float64(lazy.ExecCycles)/float64(base.ExecCycles), "lazyMVNorm:"+tc.name)
		}
	}
}

// BenchmarkAblationORB contrasts write-back eager merging with ORB-style
// ownership-request merging (the Steffan et al. alternative of Section
// 4.1's footnote) on the high-commit-ratio Track.
func BenchmarkAblationORB(b *testing.B) {
	prof := repro.Track().Scale(0.5, 0.25, 0.25)
	for i := 0; i < b.N; i++ {
		eager := repro.Run(repro.NUMA16(), repro.MultiTMVEager, prof, 1)
		lazy := repro.Run(repro.NUMA16(), repro.MultiTMVLazy, prof, 1)
		orb := repro.NewSimulator(repro.NUMA16(), repro.MultiTMVEager, prof, 1)
		orb.SetORBCommit(true)
		or := orb.Run()
		b.ReportMetric(float64(or.ExecCycles)/float64(eager.ExecCycles), "orbOverEager")
		b.ReportMetric(float64(or.ExecCycles)/float64(lazy.ExecCycles), "orbOverLazy")
	}
}

// BenchmarkSeedStability measures the seed sensitivity of the squash-prone
// Euler under Lazy AMM and FMM, and whether their Figure 10 gap is
// significant at two sigma.
func BenchmarkSeedStability(b *testing.B) {
	prof := repro.Euler().Scale(0.25, 0.1, 0.25)
	for i := 0; i < b.N; i++ {
		lazy := report.MeasureSeedStability(repro.NUMA16(), repro.MultiTMVLazy, prof, 1, 8)
		fmm := report.MeasureSeedStability(repro.NUMA16(), repro.MultiTMVFMM, prof, 1, 8)
		b.ReportMetric(lazy.CV(), "cv:Lazy")
		b.ReportMetric(fmm.CV(), "cv:FMM")
		sig := 0.0
		if report.Significant(lazy, fmm) {
			sig = 1
		}
		b.ReportMetric(sig, "gapSignificant")
	}
}
