// tlssweep sweeps one workload or machine parameter across values and
// prints a CSV of results, one row per (value, scheme) — the generic
// sensitivity-analysis companion to the fixed figures of tlsreport.
//
// The whole sweep is submitted as one batch to the experiment orchestrator
// (-jobs workers, optional -cache memoization); rows print in sweep order
// regardless of which worker finished first.
//
// Usage:
//
//	tlssweep -app Euler -param depprob -values 0,0.05,0.1,0.2 \
//	         -schemes "MultiT&MV Lazy AMM;MultiT&MV FMM"
//	tlssweep -app Bdna -param procs -values 4,8,16,32
//	tlssweep -app Track -param chunk -values 0.5,1,2,4
//
// Parameters: depprob, privfrac, imbalance, chunk (Rechunk factor),
// procs (NUMA size), density (write density), sharedreads.
package main

import (
	"encoding/csv"
	"flag"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/campaign"
	"repro/internal/iofault"
	"repro/internal/obs"
)

func main() {
	var (
		appName  = flag.String("app", "Euler", "application to sweep")
		param    = flag.String("param", "depprob", "parameter: depprob, privfrac, imbalance, chunk, procs, density, sharedreads")
		values   = flag.String("values", "0,0.05,0.1,0.2", "comma-separated sweep values")
		schemesF = flag.String("schemes", "MultiT&MV Lazy AMM;MultiT&MV FMM", "semicolon-separated schemes")
		seed     = flag.Uint64("seed", 1, "workload seed")
		tasks    = flag.Float64("tasks", 0.25, "task-count scale")
		instr    = flag.Float64("instr", 0.1, "instruction scale")
		cacheDir = flag.String("cache", "", "persistent result-cache directory")
		ioChaos  = flag.String("io-chaos", "", "inject storage faults into all durable state, e.g. \"seed=7,perr=0.01,psync=0.02,cut=120,cutmode=torn\" (fault drills; see tlsfsck)")
	)
	cf := campaign.Register(flag.CommandLine)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, "tlssweep")
	die := func(err error) {
		if err != nil {
			logger.Error("fatal", "err", err)
			os.Exit(1)
		}
	}

	base, ok := repro.AppByName(*appName)
	if !ok {
		logger.Error("unknown application", "app", *appName)
		os.Exit(2)
	}
	base = base.Scale(*tasks, *instr, 0.25)

	var schemes []repro.Scheme
	for _, name := range strings.Split(*schemesF, ";") {
		s, ok := repro.SchemeFromString(strings.TrimSpace(name))
		if !ok {
			logger.Error("unknown scheme", "scheme", name)
			os.Exit(2)
		}
		schemes = append(schemes, s)
	}

	var vals []float64
	for _, v := range strings.Split(*values, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			logger.Error("bad sweep value", "value", v, "err", err)
			os.Exit(2)
		}
		vals = append(vals, f)
	}

	// Resolve each sweep value to its (profile, machine) point.
	type point struct {
		value float64
		prof  repro.Profile
		mach  *repro.Machine
	}
	points := make([]point, 0, len(vals))
	for _, v := range vals {
		prof := base
		mach := repro.NUMA16()
		switch strings.ToLower(*param) {
		case "depprob":
			prof.DepProb = v
			if v > 0 && prof.DepReach == 0 {
				prof.DepReach = 12
			}
		case "privfrac":
			prof.PrivFrac = v
		case "imbalance":
			prof.ImbalanceCV = v
		case "chunk":
			prof = prof.Rechunk(v)
		case "procs":
			mach = repro.ScalableNUMA(int(v))
		case "density":
			prof.WriteDensity = int(v)
		case "sharedreads":
			prof.SharedReadFrac = v
		default:
			logger.Error("unknown parameter", "param", *param)
			os.Exit(2)
		}
		points = append(points, point{value: v, prof: prof, mach: mach})
	}

	// One batch: a sequential baseline per point, then every scheme run.
	jobs := make([]repro.Job, 0, len(points)*(len(schemes)+1))
	for _, pt := range points {
		jobs = append(jobs, repro.Job{Machine: pt.mach, Profile: pt.prof, Seed: *seed, Sequential: true})
		for _, sch := range schemes {
			jobs = append(jobs, repro.Job{Machine: pt.mach, Scheme: sch, Profile: pt.prof, Seed: *seed})
		}
	}
	var fsys iofault.FS
	if *ioChaos != "" {
		plan, err := iofault.ParsePlan(*ioChaos)
		die(err)
		inj := iofault.NewInjector(plan)
		inj.Logf = obs.Logf(logger.With("subsys", "iofault"))
		// Die exactly as a power loss would: no flushing, no cleanup. The
		// cut has already rewritten the disk to a legal crash state.
		inj.OnCut = func() {
			logger.Warn("simulated power cut; verify state with tlsfsck, then -resume")
			os.Exit(repro.ExitPowerCut)
		}
		fsys = inj
		logger.Info("storage fault injection active", "plan", plan)
	}
	camp, err := campaign.Open("tlssweep", cf, cacheDir, fsys, logger)
	die(err)
	defer camp.Close()
	runner := camp.Runner()
	runner.Runner.FS = fsys
	if *cacheDir != "" {
		cache, err := repro.NewResultCacheFS(fsys, *cacheDir)
		die(err)
		runner.Cache = cache
	}
	if camp.Listen != "" {
		stop, err := camp.Serve(runner)
		die(err)
		defer stop()
		// Each job gets its own obs registry (they are not safe to share
		// across workers); the worker folds each finished run's counters
		// into the dashboard's tls_run_* totals. Obs is not part of the job
		// key, so caching is unaffected. A fleet run never gets here
		// (-coordinator ignores -listen): its workers observe with their own
		// registries (-observe) and the fleet coordinator merges them.
		for i := range jobs {
			jobs[i].Obs = &repro.ObsConfig{Registry: repro.NewObsRegistry()}
		}
	}

	// Graceful shutdown: first SIGINT/SIGTERM cancels the sweep (in-flight
	// simulations halt and drain, exit 130); a second hard-exits. On a
	// fleet, caching and journaling happen coordinator- and worker-side;
	// results are identical to the local runner's.
	sd := repro.NewShutdown(nil)
	defer sd.Stop()
	run := runner.RunBatch
	if camp.Coordinator != "" {
		run = camp.Client(runner.Progress).RunBatch
	}
	results, err := run(sd.Context(), jobs)
	if sd.Interrupted() {
		camp.LogInterrupted()
		os.Exit(repro.ExitInterrupted)
	}
	die(err)

	w := csv.NewWriter(os.Stdout)
	die(w.Write([]string{
		"param", "value", "scheme", "exec_cycles", "speedup", "busy_frac",
		"squash_events", "tasks_squashed", "overflow_spills", "commit_exec_pct",
	}))

	i := 0
	for _, pt := range points {
		seqRes := results[i]
		i++
		die(seqRes.Err)
		seq := seqRes.Result.ExecCycles
		for _, sch := range schemes {
			jr := results[i]
			i++
			die(jr.Err)
			r := jr.Result
			die(w.Write([]string{
				*param,
				strconv.FormatFloat(pt.value, 'g', 6, 64),
				sch.String(),
				strconv.FormatUint(uint64(r.ExecCycles), 10),
				strconv.FormatFloat(r.Speedup(seq), 'f', 3, 64),
				strconv.FormatFloat(r.Agg.BusyFraction(), 'f', 4, 64),
				strconv.Itoa(r.SquashEvents),
				strconv.Itoa(r.TasksSquashed),
				strconv.FormatUint(r.OverflowSpills, 10),
				strconv.FormatFloat(r.CommitExecRatio(), 'f', 2, 64),
			}))
		}
	}
	w.Flush()
	die(w.Error())
}
