// tlsreport regenerates the tables and figures of the paper's evaluation.
//
// All simulations run as job batches on one in-process coordinator running
// -jobs simulations at a time, with an optional persistent result cache
// (-cache) and a run metrics summary (-metrics). A simulation repeated by a
// later artifact is answered from the coordinator, not run again. Output is
// byte-identical at any worker count.
//
// Usage:
//
//	tlsreport                 # everything (several minutes)
//	tlsreport -only fig9      # one artifact: table1 table2 table3 fig1 fig2
//	                          # fig4 fig5 fig6 fig8 fig9 fig10 fig11 summary
//	tlsreport -only scaling   # extension: machine-size sweep (4-32 procs)
//	tlsreport -apps Tree,Euler -seed 2
//	tlsreport -jobs 8 -cache .tlscache -metrics   # parallel + memoized
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/campaign"
	"repro/internal/iofault"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/report"
)

// artifacts are the valid -only values, in rendering order ("scaling" is
// the extension and only runs when requested explicitly).
var artifacts = []string{
	"table1", "table2", "fig2", "fig4", "fig8", "fig5", "fig6",
	"fig1", "table3", "fig9", "fig10", "fig11", "summary", "scaling",
}

func main() {
	var (
		only    = flag.String("only", "", "regenerate a single artifact")
		seed    = flag.Uint64("seed", 1, "workload seed")
		apps    = flag.String("apps", "", "comma-separated application subset")
		verbose = flag.Bool("v", false, "print per-run progress")
		csvDir  = flag.String("csv", "", "also write raw results as CSV files into this directory")
		svgDir  = flag.String("svg", "", "also write the performance figures as SVG charts into this directory")
		cache   = flag.String("cache", "", "persistent result-cache directory (warm reruns skip unchanged simulations)")
		metrics = flag.Bool("metrics", false, "print an orchestration summary line to stderr at exit")
		timeout = flag.Duration("timeout", 0, "per-job watchdog deadline (0 disables; hung jobs land in the failure manifest)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	cf := campaign.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsreport: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	if *only != "" && !known(*only) {
		fmt.Fprintf(os.Stderr, "tlsreport: unknown artifact %q; valid -only values: %s\n",
			*only, strings.Join(artifacts, " "))
		os.Exit(2)
	}

	camp, err := campaign.Open("tlsreport", cf, cache, nil, obs.NewLogger(os.Stderr, "tlsreport"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsreport: %v\n", err)
		os.Exit(1)
	}
	defer camp.Close()

	var progress func(repro.JobResult)
	if *verbose {
		progress = func(jr repro.JobResult) {
			if jr.Err == nil && !jr.Job.Sequential {
				fmt.Fprintf(os.Stderr, "  ran %s/%s/%v: %d cycles\n",
					jr.Job.Machine.Name, jr.Job.Profile.Name, jr.Job.Scheme, jr.Result.ExecCycles)
			}
		}
	}
	// Every artifact's batches run on one executor, so a simulation two
	// artifacts share runs once.
	runner := camp.Runner()
	runner.Runner.JobTimeout = *timeout
	runner.Progress = progress
	if *cache != "" {
		// Fail fast on an unusable cache directory rather than silently
		// running uncached.
		c, err := repro.NewResultCache(*cache)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlsreport: cache: %v\n", err)
			os.Exit(1)
		}
		runner.Cache = c
	}
	opt := repro.Options{Seed: *seed, Batcher: runner}
	if camp.Coordinator != "" {
		// Every batch travels to the coordinator; the rendered artifacts
		// are identical to a local run because each simulation is a pure
		// function of the job's content.
		opt.Batcher = camp.Client(progress)
	}
	stopDashboard, err := camp.Serve(runner)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsreport: %v\n", err)
		os.Exit(1)
	}
	defer stopDashboard()

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the campaign
	// context (in-flight simulations halt and drain, the journal is
	// flushed, exit 130); a second signal hard-exits.
	sd := repro.NewShutdown(nil)
	defer sd.Stop()
	opt.Context = sd.Context()
	if *apps != "" {
		for _, name := range strings.Split(*apps, ",") {
			p, ok := repro.AppByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "tlsreport: unknown application %q\n", name)
				os.Exit(2)
			}
			opt.Apps = append(opt.Apps, p)
		}
		// Apply the harness's standard scaling to the subset, as
		// StandardSuite would.
		for i := range opt.Apps {
			opt.Apps[i] = scale(opt.Apps[i])
		}
	}

	w := os.Stdout
	want := func(name string) bool { return *only == "" || *only == name }

	// Job failures (simulations that crashed on every execution or hung
	// past the watchdog deadline) are collected into one manifest and
	// reported at exit instead of killing the whole regeneration: the
	// sweep degrades to partial results.
	var failures []repro.JobFailure
	collect := func(g *repro.Grid) *repro.Grid {
		failures = append(failures, g.Failures...)
		return g
	}

	if want("table1") {
		report.RenderTable1(w)
	}
	if want("table2") {
		report.RenderTable2(w)
	}
	if want("fig2") {
		report.RenderFigure2(w)
	}
	if want("fig4") {
		report.RenderFigure4(w)
	}
	if want("fig8") {
		report.RenderFigure8(w)
	}
	if want("fig5") {
		repro.Figure5(w, *seed)
	}
	if want("fig6") {
		repro.Figure6(w, *seed)
	}
	if want("fig1") || want("table3") {
		chars := repro.Characterize(opt)
		if want("fig1") {
			report.RenderFigure1(w, chars)
		}
		if want("table3") {
			report.RenderTable3(w, chars)
		}
		writeCSV(*csvDir, "characterization.csv", func(f io.Writer) error {
			return report.ExportCharacterizationCSV(f, chars)
		})
	}
	var fig9 *repro.Grid
	if want("fig9") || want("summary") {
		fig9 = collect(repro.Figure9(opt))
	}
	if want("fig9") {
		report.RenderGrid(w, fig9, "Figure 9. Separation of task state, eager vs lazy AMM (NUMA)")
		report.RenderAverages(w, fig9)
		report.RenderChecks(w, report.CheckFigure9Claims(fig9))
		writeCSV(*csvDir, "fig9.csv", func(f io.Writer) error { return report.ExportGridCSV(f, fig9) })
		writeCSV(*svgDir, "fig9.svg", func(f io.Writer) error {
			return report.RenderGridSVG(f, fig9, "Figure 9. Separation of task state (NUMA16)")
		})
	}
	if want("fig10") {
		g, lazyL2 := repro.Figure10(opt)
		collect(g)
		report.RenderGrid(w, g, "Figure 10. Architectural (AMM) vs future (FMM) main memory (NUMA)")
		report.RenderAverages(w, g)
		if lazyL2.Result.Commits > 0 {
			fmt.Fprintf(w, "P3m under Lazy.L2 (4-MB 16-way L2): %d cycles, %d spills (vs %d under Lazy AMM)\n\n",
				lazyL2.Result.ExecCycles, lazyL2.Result.OverflowSpills,
				g.Cell("P3m", repro.MultiTMVLazy).Result.OverflowSpills)
		}
		report.RenderChecks(w, report.CheckFigure10Claims(g, lazyL2))
		writeCSV(*csvDir, "fig10.csv", func(f io.Writer) error { return report.ExportGridCSV(f, g) })
		writeCSV(*svgDir, "fig10.svg", func(f io.Writer) error {
			return report.RenderGridSVG(f, g, "Figure 10. AMM vs FMM (NUMA16)")
		})
	}
	var fig11 *repro.Grid
	if want("fig11") || want("summary") {
		fig11 = collect(repro.Figure11(opt))
	}
	if want("fig11") {
		report.RenderGrid(w, fig11, "Figure 11. Separation of task state, eager vs lazy AMM (CMP)")
		report.RenderAverages(w, fig11)
		writeCSV(*csvDir, "fig11.csv", func(f io.Writer) error { return report.ExportGridCSV(f, fig11) })
		writeCSV(*svgDir, "fig11.svg", func(f io.Writer) error {
			return report.RenderGridSVG(f, fig11, "Figure 11. Separation of task state (CMP8)")
		})
	}
	if want("summary") {
		report.RenderSummary(w, repro.Summarize(fig9), 32, 30, 24)
		report.RenderSummary(w, repro.Summarize(fig11), 23, 9, 3)
	}
	if *only == "scaling" {
		pts := repro.Scalability(opt)
		report.RenderScalability(w, pts)
		writeCSV(*svgDir, "scaling.svg", func(f io.Writer) error {
			return report.RenderScalabilitySVG(f, pts)
		})
	}

	if *metrics {
		if line := camp.MetricsLine(runner); line != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if sd.Interrupted() {
		camp.LogInterrupted()
		stopProf()
		os.Exit(repro.ExitInterrupted)
	}
	if len(failures) > 0 {
		fmt.Fprint(os.Stderr, "tlsreport: "+repro.RenderFailureManifest(failures))
		stopProf()
		os.Exit(1)
	}
}

func known(artifact string) bool {
	for _, a := range artifacts {
		if a == artifact {
			return true
		}
	}
	return false
}

// writeCSV writes one CSV/SVG artifact when the directory flag is set. The
// artifact is rendered in memory and published atomically (temp file,
// fsync, rename, directory fsync), so a crash or full disk mid-write can
// never leave a truncated artifact under the final name; any error is
// fatal so it cannot pass silently.
func writeCSV(dir, name string, write func(f io.Writer) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tlsreport: %v\n", err)
		os.Exit(1)
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "tlsreport: writing %s: %v\n", name, err)
		os.Exit(1)
	}
	if err := iofault.WriteFileAtomic(iofault.Real, dir+"/"+name, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "tlsreport: writing %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s/%s\n", dir, name)
}

func scale(p repro.Profile) repro.Profile {
	foot := 0.25
	if p.Name == "P3m" {
		foot = 1.0
	}
	return p.Scale(0.5, 0.25, foot)
}
