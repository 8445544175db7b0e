// tlschaos runs randomized fault-injection campaigns against the buffering
// protocols: every case simulates a fuzzed workload under a seeded fault
// plan (spurious squashes, delayed coherence messages, forced buffer
// overflows, stalled commits) with the runtime invariant checker armed, and
// verifies the protocol absorbed the faults — all tasks committed, zero
// invariant violations, and a final memory image identical to sequential
// execution.
//
// Every case is a pure function of (machine, scheme, campaign seed, fault
// selection), so a failure is perfectly reproducible:
//
//	tlschaos -seeds 50                  # campaign: seeds 1..50 × schemes
//	tlschaos -replay 17                 # re-run seed 17 verbosely
//	tlschaos -replay failures.json      # re-run every recorded failing case
//	tlschaos -faults flip-tag -seeds 10 # corruption drill: flips MUST be
//	                                    # detected by the checker
//
// Failing cases are recorded as JSON (-record) with the exact seed, scheme
// and fault mix, so a later `tlschaos -replay <seed>` (or `-replay
// <record-file>`) reproduces the run — same injected faults, same invariant
// report, same cycle count.
//
// Every case is an exp.Job, run by the same executor as the other campaign
// CLIs: an in-process coordinator for -jobs N, or with -coordinator a
// tlsserve fleet. Long campaigns are therefore crash-safe the same way: with
// -journal every case is logged to an fsync'd JSONL WAL with its sealed
// outcome, and in-flight simulations halt on SIGINT/SIGTERM (exit 130);
// `tlschaos -resume <journal>` serves completed cases from the journal
// without re-running them and re-runs interrupted ones from their start.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/cluster/chaosnet"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/iofault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/workload"
)

// chaosCase is one (seed, scheme) cell of the campaign grid.
type chaosCase struct {
	Seed   uint64
	Scheme core.Scheme
}

// outcome is the verdict of one executed case.
type outcome struct {
	Case chaosCase

	Cycles     uint64
	Faults     string // plan.Summary()
	FaultCount int

	Violations  int
	WrongLines  int
	Uncommitted int
	TimedOut    bool
	PanicMsg    string

	// Interrupted marks a case halted mid-run by a graceful shutdown; it
	// carries no verdict and is never journaled.
	Interrupted bool

	Samples []string // first few invariant violations, for the report
}

// failed reports whether the case breaks the campaign's promise. When flips
// are armed the run corrupts state on purpose, so only crashes and hangs
// count; detection is tallied separately.
func (o outcome) failed(flips bool) bool {
	if o.TimedOut || o.PanicMsg != "" {
		return true
	}
	if flips {
		return false
	}
	return o.Violations > 0 || o.WrongLines > 0 || o.Uncommitted > 0
}

// detected reports whether the checker (or final verification) caught the
// run misbehaving — the success criterion of a flip-tag drill.
func (o outcome) detected() bool { return o.Violations > 0 || o.WrongLines > 0 }

// record is the JSON entry written for a failing case; its fields are the
// exact -replay inputs plus the observed verdict.
type record struct {
	Seed        uint64
	Machine     string
	Scheme      string
	Faults      string // the -faults selection
	FaultConfig string
	Injected    string
	Cycles      uint64
	Violations  int
	WrongLines  int
	Uncommitted int
	TimedOut    bool
	Panic       string `json:",omitempty"`
	Samples     []string
	Replay      string
}

func main() {
	var (
		seeds    = flag.Uint64("seeds", 50, "campaign seeds (1..N), each crossed with every scheme")
		replayF  = flag.String("replay", "", "re-run one campaign seed verbosely, or every case of a -record file (\"\" = full campaign)")
		schemesF = flag.String("schemes", "MultiT&MV Eager AMM;MultiT&MV Lazy AMM;MultiT&MV FMM",
			"semicolon-separated schemes under test")
		machineF = flag.String("machine", "numa16", "machine model: numa16 or cmp8")
		faultsF  = flag.String("faults", "recoverable",
			"comma-separated fault classes: recoverable, spurious-squash, delay-message, force-overflow, stall-commit, flip-tag")
		timeout  = flag.Duration("case-timeout", 20*time.Second, "per-case watchdog deadline")
		recordF  = flag.String("record", "tlschaos-failures.json", "write failing cases as JSON here (\"\" disables)")
		chaosNet = flag.String("chaos-net", "", "inject seeded network chaos on the fleet client transport (hostile, campaign, byzantine), composing wire faults with the protocol faults under test")
		chaosSd  = flag.Uint64("chaos-seed", 1, "seed for the -chaos-net fault plan")
	)
	cf := campaign.Register(flag.CommandLine)
	flag.Parse()

	// -replay takes either a campaign seed or a -record file to re-run.
	var replaySeed uint64
	if *replayF != "" {
		if n, err := strconv.ParseUint(*replayF, 10, 64); err == nil && n > 0 {
			replaySeed = n
		} else {
			os.Exit(replayRecords(*replayF, *timeout))
		}
	}

	cfg, err := machine.ByName(*machineF)
	if err != nil {
		fatalf("%v", err)
	}
	var schemes []core.Scheme
	for _, name := range strings.Split(*schemesF, ";") {
		s, ok := core.SchemeFromString(strings.TrimSpace(name))
		if !ok {
			fatalf("unknown scheme %q", name)
		}
		schemes = append(schemes, s)
	}
	selection, flips, err := parseFaults(*faultsF)
	if err != nil {
		fatalf("%v", err)
	}

	var cases []chaosCase
	var jobs []exp.Job
	lo, hi := uint64(1), *seeds
	if replaySeed != 0 {
		lo, hi = replaySeed, replaySeed
	}
	for seed := lo; seed <= hi; seed++ {
		for _, sch := range schemes {
			c := chaosCase{Seed: seed, Scheme: sch}
			cases = append(cases, c)
			jobs = append(jobs, caseJob(c, cfg, selection))
		}
	}

	camp, err := campaign.Open("tlschaos", cf, nil, nil, chaosLog)
	if err != nil {
		chaosLog.Error(err.Error())
		os.Exit(1)
	}
	defer camp.Close()

	// Graceful shutdown: first SIGINT/SIGTERM interrupts every in-flight
	// case (each halts at its next commit and unwinds, exit 130); a
	// second signal hard-exits.
	sd := exp.NewShutdown(nil)
	defer sd.Stop()

	// A verdict is final: a case that crashed or hung is reported, never
	// re-executed. Completed cases journal their outcome, so a -resume
	// serves them without re-running.
	runner := camp.Runner()
	runner.FailLimit, runner.Runner.JobTimeout = 1, *timeout
	if camp.Listen != "" {
		stop, err := camp.Serve(runner)
		if err != nil {
			chaosLog.Error(err.Error())
			os.Exit(1)
		}
		defer stop()
		var done, failed atomic.Int64
		runner.AddGauge("chaos_cases_total", func() float64 { return float64(len(cases)) })
		runner.AddGauge("chaos_cases_done", func() float64 { return float64(done.Load()) })
		runner.AddGauge("chaos_cases_failed", func() float64 { return float64(failed.Load()) })
		runner.Progress = func(jr exp.JobResult) {
			if o := outcomeFrom(chaosCase{}, jr, sd.Interrupted()); !o.Interrupted {
				done.Add(1)
				if o.failed(flips) {
					failed.Add(1)
				}
			}
		}
	}
	var b report.Batcher = runner
	if camp.Coordinator != "" {
		// Chaotic jobs bypass the fleet's result cache too; the coordinator
		// journals their sealed outcomes, so fleet campaigns are exactly as
		// crash-resumable as local journaled ones.
		client := camp.Client(runner.Progress)
		if *chaosNet != "" {
			ccfg, err := chaosnet.Profile(*chaosNet, *chaosSd)
			if err != nil {
				fatalf("-chaos-net: %v", err)
			}
			chaosLog.Info("chaos-net armed on the client transport", "profile", ccfg)
			client.HTTP = chaosnet.Client(cluster.HTTPClient(camp.DialTimeout, camp.RPCTimeout),
				chaosnet.New(ccfg), "tlschaos", obs.Logf(chaosLog.With("subsys", "chaos-net")))
		}
		b = client
	} else if *chaosNet != "" {
		chaosLog.Warn("-chaos-net only applies with -coordinator, ignoring")
	}
	outcomes := runBatch(sd.Context(), b, cases, jobs)

	if sd.Interrupted() {
		camp.LogInterrupted()
		os.Exit(exp.ExitInterrupted)
	}

	var failures []record
	faults, detections := 0, 0
	for _, o := range outcomes {
		faults += o.FaultCount
		if o.detected() {
			detections++
		}
		if replaySeed != 0 {
			printVerbose(o)
		}
		if o.failed(flips) {
			failures = append(failures, toRecord(o, cfg.Name, *machineF, *faultsF, selection))
			chaosLog.Error("case failed", "seed", o.Case.Seed,
				"scheme", o.Case.Scheme.String(), "verdict", verdict(o))
		}
	}

	fmt.Printf("tlschaos: %d cases (%d seeds x %d schemes) on %s, faults=%s\n",
		len(cases), int(hi-lo+1), len(schemes), cfg.Name, *faultsF)
	fmt.Printf("  injected %d faults, %d failing cases", faults, len(failures))
	if flips {
		fmt.Printf(", %d corruption(s) detected by the checker", detections)
	}
	fmt.Println()

	if flips && detections == 0 && faults > 0 {
		// A corruption drill that injects flips nobody notices means the
		// checker is broken — that IS the failure.
		chaosLog.Error("flip-tag campaign injected faults but detected no corruption")
		os.Exit(1)
	}
	if len(failures) > 0 {
		if *recordF != "" {
			if err := writeRecords(*recordF, failures); err != nil {
				chaosLog.Error("recording failures", "err", err)
			} else {
				chaosLog.Info("recorded failing cases", "n", len(failures), "path", *recordF)
			}
		}
		os.Exit(1)
	}
}

// planFor derives the case's fault config: the seed's randomized campaign
// mix, masked down to the selected classes. Flip-tag, when selected, runs at
// a fixed low rate with a small budget — enough corruption to exercise the
// checker without destroying every run.
func planFor(seed uint64, selection map[fault.Kind]bool) fault.Config {
	c := fault.CampaignConfig(seed)
	if !selection[fault.SpuriousSquash] {
		c.SquashProb = 0
	}
	if !selection[fault.DelayMessage] {
		c.DelayProb = 0
	}
	if !selection[fault.ForceOverflow] {
		c.OverflowProb = 0
	}
	if !selection[fault.StallCommit] {
		c.StallProb = 0
	}
	if selection[fault.FlipTag] {
		c.FlipProb = 0.01
		c.MaxFaults = 16
	}
	return c
}

// caseJob maps one chaos case onto the job both executors run: the seed's
// fuzzed profile (the stream the chaos test suite draws from, so campaigns
// cover the whole profile space, not just the paper's applications), its
// fault config, and the invariant checker armed. The local runner and fleet
// workers execute the same job, so their verdicts match.
func caseJob(c chaosCase, cfg *machine.Config, selection map[fault.Kind]bool) exp.Job {
	fc := planFor(c.Seed, selection)
	return exp.Job{
		Machine:    cfg,
		Scheme:     c.Scheme,
		Profile:    workload.FuzzProfile(rng.New(c.Seed ^ 0xc4a05bedb1a5e5)),
		Seed:       c.Seed,
		Faults:     &fc,
		Invariants: true,
	}
}

// outcomeFrom folds a job result back into the campaign's verdict shape.
func outcomeFrom(c chaosCase, jr exp.JobResult, interrupted bool) outcome {
	o := outcome{Case: c}
	if jr.Err != nil {
		switch {
		case interrupted:
			o.Interrupted = true
		case jr.TimedOut:
			o.TimedOut = true
		default:
			o.PanicMsg = jr.Err.Error()
		}
		return o
	}
	o.Cycles = uint64(jr.Result.ExecCycles)
	o.Uncommitted = jr.Result.Tasks - jr.Result.Commits
	if v := jr.Chaos; v != nil {
		o.Faults = v.FaultMix
		o.FaultCount = v.Faults
		o.Violations = v.Violations
		o.WrongLines = v.WrongLines
		o.Samples = v.Samples
	}
	return o
}

// runBatch executes the cases' jobs through b — the local executor or the
// fleet client — and folds the results back into outcomes, in case order.
func runBatch(ctx context.Context, b report.Batcher, cases []chaosCase, jobs []exp.Job) []outcome {
	results, err := b.RunBatch(ctx, jobs)
	interrupted := err != nil && ctx.Err() != nil
	out := make([]outcome, len(cases))
	for i := range cases {
		out[i] = outcomeFrom(cases[i], results[i], interrupted)
	}
	return out
}

// replayRecords re-runs every case of a -record file with its exact seed,
// scheme, machine and fault mix, and verifies the failure reproduces. The
// exit code follows the campaign convention (0 all clean, 1 failures, 2 bad
// input).
func replayRecords(path string, deadline time.Duration) int {
	records, err := readRecords(path)
	if err != nil {
		chaosLog.Error("reading records", "err", err)
		return 2
	}
	var cases []chaosCase
	var jobs []exp.Job
	var flipsOf []bool
	for _, rec := range records {
		cfg, err := machine.ByName(rec.Machine)
		if err != nil {
			chaosLog.Error("recording: unknown machine", "path", path, "machine", rec.Machine)
			return 2
		}
		sch, ok := core.SchemeFromString(rec.Scheme)
		if !ok {
			chaosLog.Error("recording: unknown scheme", "path", path, "scheme", rec.Scheme)
			return 2
		}
		selection, flips, err := parseFaults(rec.Faults)
		if err != nil {
			chaosLog.Error("recording: bad faults", "path", path, "err", err)
			return 2
		}
		c := chaosCase{Seed: rec.Seed, Scheme: sch}
		cases = append(cases, c)
		jobs = append(jobs, caseJob(c, cfg, selection))
		flipsOf = append(flipsOf, flips)
	}
	runner := &cluster.Local{FailLimit: 1, Runner: exp.Runner{JobTimeout: deadline}}
	failing := 0
	for i, o := range runBatch(context.Background(), runner, cases, jobs) {
		printVerbose(o)
		if o.failed(flipsOf[i]) {
			failing++
		}
	}
	fmt.Printf("tlschaos: replayed %d recorded case(s) from %s, %d still failing\n",
		len(records), path, failing)
	if failing > 0 {
		return 1
	}
	return 0
}

// readRecords loads a -record file, translating the raw I/O and decode
// failure modes into actionable errors that name the offending path.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("recording not found: %s (campaigns write it with -record)", path)
	}
	if err != nil {
		return nil, fmt.Errorf("reading recording %s: %v", path, err)
	}
	var rs []record
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("recording %s is truncated or corrupt: %v (re-run the campaign to regenerate it)", path, err)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("recording %s contains no cases", path)
	}
	return rs, nil
}

// parseFaults resolves the -faults selection; "recoverable" expands to every
// class except flip-tag (which must be named explicitly: it injects
// corruption the protocol cannot survive, only detect).
func parseFaults(spec string) (map[fault.Kind]bool, bool, error) {
	sel := make(map[fault.Kind]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if strings.EqualFold(name, "recoverable") {
			sel[fault.SpuriousSquash] = true
			sel[fault.DelayMessage] = true
			sel[fault.ForceOverflow] = true
			sel[fault.StallCommit] = true
			continue
		}
		k, ok := fault.KindFromString(name)
		if !ok {
			return nil, false, fmt.Errorf("unknown fault class %q", name)
		}
		sel[k] = true
	}
	return sel, sel[fault.FlipTag], nil
}

func verdict(o outcome) string {
	switch {
	case o.TimedOut:
		return "watchdog deadline exceeded"
	case o.PanicMsg != "":
		return "panic: " + o.PanicMsg
	default:
		return fmt.Sprintf("%d invariant violations, %d wrong lines, %d uncommitted tasks (faults: %s)",
			o.Violations, o.WrongLines, o.Uncommitted, o.Faults)
	}
}

// printVerbose renders one case of a -replay run: every field that must
// reproduce identically across re-runs.
func printVerbose(o outcome) {
	fmt.Printf("seed %d %v:\n", o.Case.Seed, o.Case.Scheme)
	if o.TimedOut || o.PanicMsg != "" {
		fmt.Printf("  %s\n", verdict(o))
		return
	}
	fmt.Printf("  cycles %d, faults injected: %s\n", o.Cycles, o.Faults)
	fmt.Printf("  violations %d, wrong lines %d, uncommitted %d\n",
		o.Violations, o.WrongLines, o.Uncommitted)
	for _, s := range o.Samples {
		fmt.Printf("    %s\n", s)
	}
}

func toRecord(o outcome, mach, machFlag, faultsFlag string, selection map[fault.Kind]bool) record {
	return record{
		Seed: o.Case.Seed, Machine: mach, Scheme: o.Case.Scheme.String(),
		Faults: faultsFlag, FaultConfig: planFor(o.Case.Seed, selection).String(),
		Injected: o.Faults, Cycles: o.Cycles,
		Violations: o.Violations, WrongLines: o.WrongLines, Uncommitted: o.Uncommitted,
		TimedOut: o.TimedOut, Panic: o.PanicMsg, Samples: o.Samples,
		Replay: fmt.Sprintf("tlschaos -replay %d -machine %s -faults %s -schemes %q",
			o.Case.Seed, machFlag, faultsFlag, o.Case.Scheme),
	}
}

func writeRecords(path string, rs []record) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	// Atomic publish: a crash mid-write must not leave a torn record file
	// under the final name (the record is the chaos campaign's evidence).
	return iofault.WriteFileAtomic(iofault.Real, path, append(data, '\n'), 0o644)
}

// chaosLog is the process-wide structured logger; -replay logs before any
// campaign exists, so it lives at package scope.
var chaosLog = obs.NewLogger(os.Stderr, "tlschaos")

func fatalf(format string, args ...any) {
	chaosLog.Error(fmt.Sprintf(format, args...))
	os.Exit(2)
}
