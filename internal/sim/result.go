package sim

import (
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Result is everything one simulation run reports.
type Result struct {
	Machine string
	App     string
	Scheme  core.Scheme

	// ExecCycles is the wall-clock length of the speculative section,
	// including any end-of-section lazy merge.
	ExecCycles event.Time

	// Events is the number of simulation events fired during the run — the
	// denominator of the simulator's own events/sec throughput metric.
	Events uint64

	// PerProc are the per-processor time breakdowns; Agg is their sum.
	PerProc []stats.Breakdown
	Agg     stats.Breakdown

	// Task accounting.
	Tasks         int
	Commits       int
	SquashEvents  int
	TasksSquashed int

	// Figure 1 statistics.
	AvgSpecTasksSystem  float64
	AvgSpecTasksPerProc float64
	AvgFootprintBytes   float64
	AvgPrivFrac         float64

	// Table 3 statistics: per-task execution and commit durations and their
	// ratio (the Commit/Execution Ratio, in percent).
	AvgExecPerTask   float64
	AvgCommitPerTask float64

	// Mechanism activity.
	OverflowSpills     uint64
	OverflowRetrievals uint64
	VCLMerges          uint64
	FMMWritebacks      uint64
	MHBAppends         uint64
	MHBRestored        uint64
	MemWritebacks      uint64
	MemRejected        uint64
	DirReads           uint64
	DirWrites          uint64
	Violations         uint64

	// Protocol-correctness verification: committed cross-task reads checked
	// against the sequential-order oracle, and how many observed the wrong
	// version (must be zero).
	OracleChecks     int
	OracleViolations int

	// Contention observed.
	BankQueueCycles event.Time
	IfQueueCycles   event.Time

	// Trace is the execution timeline (only recorded after EnableTrace).
	Trace []TraceEvent
}

// CommitExecRatio returns the Commit/Execution Ratio in percent.
func (r Result) CommitExecRatio() float64 {
	if r.AvgExecPerTask == 0 {
		return 0
	}
	return 100 * r.AvgCommitPerTask / r.AvgExecPerTask
}

// SquashesPerTask returns squashed task executions per committed task.
func (r Result) SquashesPerTask() float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.TasksSquashed) / float64(r.Commits)
}

// Speedup returns seq/r.ExecCycles given a sequential baseline time.
func (r Result) Speedup(seq event.Time) float64 {
	if r.ExecCycles == 0 {
		return 0
	}
	return float64(seq) / float64(r.ExecCycles)
}

// collect builds the Result after the run has completed.
func (s *Simulator) collect() Result {
	r := Result{
		Machine:    s.cfg.Name,
		App:        s.gen.Name(),
		Scheme:     s.scheme,
		ExecCycles: s.endTime,
		Events:     s.q.Fired(),

		Tasks:         s.total,
		Commits:       s.commits,
		SquashEvents:  s.squashEvents,
		TasksSquashed: s.tasksSquashed,

		AvgSpecTasksSystem: s.specSampler.Mean(s.endTime),
		AvgFootprintBytes:  s.footBytes.Value(),
		AvgPrivFrac:        s.footPrivFrac.Value(),
		AvgExecPerTask:     s.execPerTask.Value(),
		AvgCommitPerTask:   s.commitPerTask.Value(),

		VCLMerges:     s.vclMerges,
		FMMWritebacks: s.fmmWritebacks,

		OracleChecks:     s.oracleChecks,
		OracleViolations: s.oracleViolations,

		BankQueueCycles: s.net.QueueDelay(),
		IfQueueCycles:   s.net.IfDelay(),

		Trace: s.traceLog,
	}
	r.AvgSpecTasksPerProc = r.AvgSpecTasksSystem / float64(len(s.procs))
	for _, p := range s.procs {
		r.PerProc = append(r.PerProc, p.bd)
		spills, retrievals, _ := p.ovf.Stats()
		r.OverflowSpills += spills
		r.OverflowRetrievals += retrievals
		appends, restored, _ := p.mhb.Stats()
		r.MHBAppends += appends
		r.MHBRestored += restored
	}
	r.Agg = stats.Sum(r.PerProc)
	r.MemWritebacks, r.MemRejected = s.mem.Stats()
	r.DirReads, r.DirWrites, r.Violations = s.dir.Stats()
	return r
}

// Run is the package-level convenience: build and run one simulation.
func Run(cfg *machine.Config, scheme core.Scheme, prof workload.Profile, seed uint64) Result {
	gen := workload.NewGenerator(prof, seed)
	return New(cfg, scheme, gen).Run()
}

// RunSequential measures the sequential-execution baseline used for
// speedups: the same tasks run back-to-back on one processor of the same
// technology with all data in the local memory module and no speculation
// machinery (no merges, no token, no versioning overheads beyond plain
// caching).
func RunSequential(cfg *machine.Config, prof workload.Profile, seed uint64) Result {
	return NewSequential(cfg, prof, seed).Run()
}

// NewSequential builds (without running) the sequential-baseline simulator
// RunSequential uses, so callers that interrupt runs can treat baselines
// like any other simulation.
func NewSequential(cfg *machine.Config, prof workload.Profile, seed uint64) *Simulator {
	return NewSequentialOf(cfg, workload.NewGenerator(prof, seed))
}

// NewSequentialOf is NewSequential over a caller-built workload: the
// campaign path hands it a generator replaying a shared stream store.
func NewSequentialOf(cfg *machine.Config, gen Workload) *Simulator {
	seq := machine.Sequential(cfg)
	seq.CommitPerLine = 0
	seq.CommitFixed = 0
	seq.TokenPass = 0
	seq.DispatchOverhead = 0
	return New(seq, core.SingleTEager, gen)
}
