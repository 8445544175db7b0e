// tlssim runs a single thread-level-speculation simulation: one
// application, one machine, one buffering scheme, and prints the full
// result, including the time breakdown and mechanism activity.
//
// Usage:
//
//	tlssim -app Bdna -machine numa -scheme "MultiT&MV Lazy AMM" [-seed 1]
//	       [-full] [-tasks 0.5 -instr 0.25 -foot 0.25]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/machine"
	"repro/internal/profiling"
)

func main() {
	var (
		appName  = flag.String("app", "Bdna", "application: P3m, Tree, Bdna, Apsi, Track, Dsmc3d, Euler")
		machName = flag.String("machine", "numa", "machine: numa, cmp, numa-bigl2")
		schName  = flag.String("scheme", "MultiT&MV Lazy AMM", "buffering scheme (see -list)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		full     = flag.Bool("full", false, "run the full-size application (no scaling)")
		tasks    = flag.Float64("tasks", 0.5, "task-count scale factor")
		instr    = flag.Float64("instr", 0.25, "instruction scale factor")
		foot     = flag.Float64("foot", 0.25, "footprint scale factor")
		list     = flag.Bool("list", false, "list schemes and applications, then exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlssim: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		fmt.Println("schemes:")
		for _, s := range repro.ExtendedSchemes() {
			fmt.Printf("  %s\n", s)
		}
		fmt.Println("applications:")
		for _, p := range repro.Apps() {
			fmt.Printf("  %s\n", p.Name)
		}
		return
	}

	prof, ok := repro.AppByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tlssim: unknown application %q\n", *appName)
		os.Exit(2)
	}
	if !*full {
		prof = prof.Scale(*tasks, *instr, *foot)
	}

	mach, err := machine.ByName(*machName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlssim: %v\n", err)
		os.Exit(2)
	}

	scheme, found := repro.SchemeFromString(*schName)
	if !found {
		fmt.Fprintf(os.Stderr, "tlssim: unknown scheme %q (try -list)\n", *schName)
		os.Exit(2)
	}

	seq := repro.RunSequential(mach, prof, *seed)
	r := repro.Run(mach, scheme, prof, *seed)

	fmt.Printf("%s on %s under %s (seed %d)\n\n", prof.Name, mach.Name, scheme, *seed)
	fmt.Printf("  tasks                  %d (%d squash events, %d task executions squashed)\n",
		r.Tasks, r.SquashEvents, r.TasksSquashed)
	fmt.Printf("  execution              %d cycles (sequential %d; speedup %.2fx)\n",
		r.ExecCycles, seq.ExecCycles, r.Speedup(seq.ExecCycles))
	tot := float64(r.Agg.Total())
	fmt.Printf("  time breakdown         busy %.1f%%  mem %.1f%%  task/version %.1f%%  commit %.1f%%  recovery %.1f%%  idle %.1f%%\n",
		100*float64(r.Agg.Busy)/tot, 100*float64(r.Agg.StallMem)/tot,
		100*float64(r.Agg.StallTask)/tot, 100*float64(r.Agg.StallCommit)/tot,
		100*float64(r.Agg.StallRecovery)/tot, 100*float64(r.Agg.StallIdle)/tot)
	fmt.Printf("  commit/exec ratio      %.2f%%\n", r.CommitExecRatio())
	fmt.Printf("  spec tasks (avg)       %.1f in system, %.2f per processor\n",
		r.AvgSpecTasksSystem, r.AvgSpecTasksPerProc)
	fmt.Printf("  written footprint      %.2f KB/task (%.1f%% privatization)\n",
		r.AvgFootprintBytes/1024, 100*r.AvgPrivFrac)
	fmt.Printf("  overflow area          %d spills, %d retrievals\n", r.OverflowSpills, r.OverflowRetrievals)
	fmt.Printf("  undo log (MHB)         %d appends, %d restored\n", r.MHBAppends, r.MHBRestored)
	fmt.Printf("  version merges         %d VCL/displacement, %d FMM write-backs, %d MTID rejections\n",
		r.VCLMerges, r.FMMWritebacks, r.MemRejected)
	fmt.Printf("  protocol verification  %d cross-task reads checked, %d wrong (must be 0)\n",
		r.OracleChecks, r.OracleViolations)
	fmt.Printf("  contention             %d bank-queue cycles, %d interface-queue cycles\n",
		r.BankQueueCycles, r.IfQueueCycles)

	if r.OracleViolations != 0 {
		fmt.Fprintln(os.Stderr, "tlssim: PROTOCOL VIOLATION DETECTED")
		stopProf()
		os.Exit(1)
	}
}
