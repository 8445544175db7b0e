// Package report runs the paper's experiments and renders every table and
// figure of the evaluation as text: the static taxonomy artifacts (Figures
// 2, 4 and 8, Tables 1 and 2), the application-characterization data
// (Figure 1, Table 3), and the performance comparisons (Figures 9, 10 and
// 11 plus the Section 5.4 summary).
package report

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options parameterizes an experiment sweep. All sweeps execute as batches
// of canonical exp.Jobs — by default on an in-process coordinator
// (cluster.Local) per batch, optionally memoized by a persistent cache.
type Options struct {
	// Seed for the deterministic workload generators.
	Seed uint64
	// Apps to run; nil selects the full standard suite.
	Apps []workload.Profile
	// JobObserver, if non-nil, receives every finished job — cached,
	// executed, sequential, or failed (calls are serialized).
	JobObserver func(exp.JobResult)
	// Jobs overrides how many simulations run concurrently (0 selects
	// GOMAXPROCS). Results are identical for every value — each simulation
	// is an isolated deterministic function of its inputs.
	Jobs int
	// CacheDir, when non-empty, enables exp's persistent result cache
	// rooted at that directory: a warm rerun only re-simulates jobs whose
	// inputs (machine, profile, scheme, seed, knobs) changed. A directory
	// that cannot be opened fails every job of the batch with the error.
	CacheDir string
	// Context, when non-nil, bounds every sweep run with these options:
	// cancelling it makes in-flight simulations halt at their next commit
	// (the graceful-shutdown path). Nil means background.
	Context context.Context
	// Journal, when non-nil, receives the campaign WAL (lease, lease-return,
	// job-done records) for crash recovery via -resume.
	Journal *exp.Journal
	// CheckpointDir names only the post-mortem directory (exp.Runner's
	// PostMortemDir): quarantine manifests and watchdog progress reports
	// land there. Simulations are never checkpointed mid-run.
	CheckpointDir string
	// Batcher, when non-nil, executes job batches instead of a locally
	// built cluster.Local — the hook `-coordinator URL` uses to run a sweep on
	// a distributed fleet. Execution options (cache, journal, post-mortems,
	// worker count) are then the executor's business and ignored
	// here; JobObserver still fires for every result.
	Batcher Batcher
}

// Batcher executes a batch of jobs and returns their results in submission
// order. The local executor and the fleet client both satisfy it, so a
// sweep renders the same artifacts whether its simulations ran in-process
// or on a fleet.
type Batcher interface {
	RunBatch(ctx context.Context, jobs []exp.Job) ([]exp.JobResult, error)
}

// ctx returns the sweep-bounding context.
func (o *Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// runner builds the local executor these options describe.
func (o *Options) runner() (*cluster.Local, error) {
	r := &cluster.Local{
		Workers: o.Jobs, Journal: o.Journal,
		Runner: exp.Runner{PostMortemDir: o.CheckpointDir},
	}
	if o.CacheDir != "" {
		c, err := exp.NewCache(o.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		r.Cache = c
	}
	r.Progress = o.JobObserver
	return r, nil
}

// runBatch executes jobs through the configured Batcher, or a locally built
// runner when none is set. Every sweep call site funnels through here, so
// redirecting Options.Batcher redirects the whole report layer.
func (o *Options) runBatch(jobs []exp.Job) []exp.JobResult {
	if o.Batcher == nil {
		r, err := o.runner()
		if err != nil {
			// Running uncached would silently lose the warm rerun; fail the
			// batch so the error lands in the grid's failure manifest.
			results := make([]exp.JobResult, len(jobs))
			for i, j := range jobs {
				results[i] = exp.JobResult{Job: j, Err: fmt.Errorf("job %s: %w", j.Label(), err)}
			}
			return results
		}
		results, _ := r.RunBatch(o.ctx(), jobs)
		return results
	}
	results, _ := o.Batcher.RunBatch(o.ctx(), jobs)
	// The local runner invokes the observer as jobs finish; a remote batch
	// arrives all at once, so fire it here, in submission order.
	if o.JobObserver != nil {
		for _, jr := range results {
			o.JobObserver(jr)
		}
	}
	return results
}

func (o *Options) apps() []workload.Profile {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return workload.StandardSuite()
}

func (o *Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Cell is one (application, scheme) measurement of a grid, together with
// the sequential baseline it normalizes against.
type Cell struct {
	Result sim.Result
	Seq    event.Time
}

// Normalized returns execution time normalized to the given reference time.
func (c Cell) Normalized(ref event.Time) float64 {
	if ref == 0 {
		return 0
	}
	return float64(c.Result.ExecCycles) / float64(ref)
}

// Speedup returns the speedup over the sequential baseline.
func (c Cell) Speedup() float64 { return c.Result.Speedup(c.Seq) }

// Grid is a full sweep: every application crossed with every scheme on one
// machine — the data behind Figures 9, 10 and 11.
type Grid struct {
	Machine string
	Apps    []string
	Schemes []core.Scheme
	Cells   map[string]map[string]Cell // app -> scheme.String() -> cell

	// Errors records jobs that failed even after re-execution; their cells
	// are zero. A fully healthy sweep leaves it empty.
	Errors []error
	// Failures is the structured failure manifest behind Errors: one entry
	// per job without a result, classified (error, timeout) and keyed for
	// reproduction. Render with exp.RenderFailureManifest.
	Failures []exp.Failure
}

// Cell returns the measurement for (app, scheme).
func (g *Grid) Cell(app string, scheme core.Scheme) Cell {
	return g.Cells[app][scheme.String()]
}

// GridJobs builds the deterministic job list behind a grid sweep, app by
// app: each application's sequential baseline followed by its schemes. The
// app-major order lets a batch finish with one application's streams before
// starting the next's, so a shared stream store holds only the few
// applications in flight. A coordinator preloading a fleet campaign
// (tlsserve -grid) constructs exactly the jobs a later RunGrid with the same
// arguments will ask for.
func GridJobs(cfg *machine.Config, schemes []core.Scheme, opt Options) []exp.Job {
	apps := opt.apps()
	jobs := make([]exp.Job, 0, len(apps)*(len(schemes)+1))
	for _, prof := range apps {
		jobs = append(jobs, exp.Job{Machine: cfg, Profile: prof, Seed: opt.seed(), Sequential: true})
		for _, sch := range schemes {
			jobs = append(jobs, exp.Job{Machine: cfg, Scheme: sch, Profile: prof, Seed: opt.seed()})
		}
	}
	return jobs
}

// AssembleGrid folds the batch results of GridJobs into a rendered-ready
// Grid. Baselines are recognized by Job.Sequential, not by position.
func AssembleGrid(cfg *machine.Config, schemes []core.Scheme, opt Options, results []exp.JobResult) *Grid {
	apps := opt.apps()
	g := &Grid{
		Machine: cfg.Name,
		Schemes: schemes,
		Cells:   make(map[string]map[string]Cell),
	}
	for _, prof := range apps {
		g.Apps = append(g.Apps, prof.Name)
		g.Cells[prof.Name] = make(map[string]Cell, len(schemes))
	}
	g.Failures = exp.CollectFailures(results)

	seqs := make(map[string]event.Time, len(apps))
	for _, jr := range results {
		if jr.Err == nil && jr.Job.Sequential {
			seqs[jr.Job.Profile.Name] = jr.Result.ExecCycles
		}
	}
	for _, jr := range results {
		switch {
		case jr.Err != nil:
			g.Errors = append(g.Errors, jr.Err)
		case !jr.Job.Sequential:
			g.Cells[jr.Job.Profile.Name][jr.Job.Scheme.String()] =
				Cell{Result: jr.Result, Seq: seqs[jr.Job.Profile.Name]}
		}
	}
	return g
}

// RunGrid sweeps apps × schemes on the machine, measuring one sequential
// baseline per application. The whole sweep is submitted as one job batch
// to the configured executor; because each simulation is an isolated
// deterministic function of its inputs, the assembled grid is identical to
// a serial sweep regardless of worker count, cache state, or whether the
// simulations ran locally or on a fleet.
func RunGrid(cfg *machine.Config, schemes []core.Scheme, opt Options) *Grid {
	return AssembleGrid(cfg, schemes, opt, opt.runBatch(GridJobs(cfg, schemes, opt)))
}

// Figure9Schemes are the six bars per application of Figures 9 and 11:
// {SingleT, MultiT&SV, MultiT&MV} × {Eager, Lazy}.
func Figure9Schemes() []core.Scheme {
	return []core.Scheme{
		core.SingleTEager, core.SingleTLazy,
		core.MultiTSVEager, core.MultiTSVLazy,
		core.MultiTMVEager, core.MultiTMVLazy,
	}
}

// Figure10Schemes are the four bars per application of Figure 10, all
// MultiT&MV: Eager, Lazy, FMM, FMM.Sw.
func Figure10Schemes() []core.Scheme {
	return []core.Scheme{
		core.MultiTMVEager, core.MultiTMVLazy,
		core.MultiTMVFMM, core.MultiTMVFMMSw,
	}
}

// Figure9 runs the separation-of-task-state comparison on the NUMA machine.
func Figure9(opt Options) *Grid { return RunGrid(machine.NUMA16(), Figure9Schemes(), opt) }

// Figure11 is Figure 9 on the CMP.
func Figure11(opt Options) *Grid { return RunGrid(machine.CMP8(), Figure9Schemes(), opt) }

// Figure10 runs the AMM-versus-FMM comparison on the NUMA machine and
// additionally measures P3m under the Lazy.L2 configuration (4-MB 16-way
// L2), returned separately.
func Figure10(opt Options) (*Grid, Cell) {
	g := RunGrid(machine.NUMA16(), Figure10Schemes(), opt)
	var lazyL2 Cell
	for _, prof := range opt.apps() {
		if prof.Name != "P3m" {
			continue
		}
		jobs := []exp.Job{
			{Machine: machine.NUMA16(), Profile: prof, Seed: opt.seed(), Sequential: true},
			{Machine: machine.NUMA16BigL2(), Scheme: core.MultiTMVLazy, Profile: prof, Seed: opt.seed()},
		}
		results := opt.runBatch(jobs)
		if results[0].Err != nil || results[1].Err != nil {
			g.Failures = append(g.Failures, exp.CollectFailures(results)...)
			for _, jr := range results {
				if jr.Err != nil {
					g.Errors = append(g.Errors, jr.Err)
				}
			}
			continue
		}
		lazyL2 = Cell{Result: results[1].Result, Seq: results[0].Result.ExecCycles}
	}
	return g, lazyL2
}

// AppCharacterization holds one application's measured characteristics —
// the data of Figure 1-(a) and the quantitative columns of Table 3.
type AppCharacterization struct {
	Profile workload.Profile

	// Figure 1 (measured under MultiT&MV Eager on the NUMA machine).
	SpecTasksSystem  float64
	SpecTasksPerProc float64
	FootprintKB      float64
	PrivPct          float64

	// Table 3 Commit/Execution ratios, percent.
	CENuma float64
	CECmp  float64

	// Squash events per committed task (Section 4.2's squashing behaviour),
	// NUMA MultiT&MV Lazy.
	SquashRate float64
}

// Characterize measures every application on both machines under
// MultiT&MV Eager (the configuration Table 3's ratios are defined for).
// The three runs per application are submitted as one orchestrator batch.
func Characterize(opt Options) []AppCharacterization {
	apps := opt.apps()
	numa16, cmp8 := machine.NUMA16(), machine.CMP8()
	jobs := make([]exp.Job, 0, 3*len(apps))
	for _, prof := range apps {
		jobs = append(jobs,
			exp.Job{Machine: numa16, Scheme: core.MultiTMVEager, Profile: prof, Seed: opt.seed()},
			exp.Job{Machine: cmp8, Scheme: core.MultiTMVEager, Profile: prof, Seed: opt.seed()},
			exp.Job{Machine: numa16, Scheme: core.MultiTMVLazy, Profile: prof, Seed: opt.seed()})
	}
	results := opt.runBatch(jobs)

	out := make([]AppCharacterization, len(apps))
	for i, prof := range apps {
		numa, cmp, lazy := results[3*i].Result, results[3*i+1].Result, results[3*i+2].Result
		out[i] = AppCharacterization{
			Profile:          prof,
			SpecTasksSystem:  numa.AvgSpecTasksSystem,
			SpecTasksPerProc: numa.AvgSpecTasksPerProc,
			FootprintKB:      numa.AvgFootprintBytes / 1024,
			PrivPct:          100 * numa.AvgPrivFrac,
			CENuma:           numa.CommitExecRatio(),
			CECmp:            cmp.CommitExecRatio(),
			SquashRate:       float64(lazy.SquashEvents) / float64(lazy.Commits),
		}
	}
	return out
}

// Summary condenses a grid into the Section 5.4 quantities: average
// execution-time reductions of (a) MultiT&MV over SingleT under Eager,
// (b) laziness over Eager for the simple schemes, (c) laziness over Eager
// for MultiT&MV.
type Summary struct {
	Machine                string
	MultiTMVOverSingleTPct float64 // paper: 32% NUMA, 23% CMP
	LazinessSimplePct      float64 // paper: 30% NUMA, 9% CMP
	LazinessMultiTMVPct    float64 // paper: 24% NUMA, 3% CMP
}

// Summarize computes the Section 5.4 averages from a Figure 9/11 grid.
func Summarize(g *Grid) Summary {
	reduction := func(base, improved core.Scheme) float64 {
		total := 0.0
		for _, app := range g.Apps {
			b := g.Cell(app, base).Result.ExecCycles
			i := g.Cell(app, improved).Result.ExecCycles
			if b > 0 {
				total += 1 - float64(i)/float64(b)
			}
		}
		return 100 * total / float64(len(g.Apps))
	}
	return Summary{
		Machine:                g.Machine,
		MultiTMVOverSingleTPct: reduction(core.SingleTEager, core.MultiTMVEager),
		LazinessSimplePct: (reduction(core.SingleTEager, core.SingleTLazy) +
			reduction(core.MultiTSVEager, core.MultiTSVLazy)) / 2,
		LazinessMultiTMVPct: reduction(core.MultiTMVEager, core.MultiTMVLazy),
	}
}

// ExpectationCheck verifies one qualitative claim of the paper against a
// grid; the harness prints the outcome of every claim next to each figure.
type ExpectationCheck struct {
	Claim string
	Holds bool
	Note  string
}

// CheckFigure9Claims tests the Section 5.1/5.2 claims against a grid (use
// the NUMA grid; the CMP grid satisfies the same orderings more weakly).
func CheckFigure9Claims(g *Grid) []ExpectationCheck {
	exec := func(app string, sch core.Scheme) event.Time {
		return g.Cell(app, sch).Result.ExecCycles
	}
	var out []ExpectationCheck
	add := func(claim string, holds bool, note string) {
		out = append(out, ExpectationCheck{Claim: claim, Holds: holds, Note: note})
	}

	if has(g, "P3m") {
		add("MultiT&MV beats SingleT in P3m (high load imbalance)",
			exec("P3m", core.MultiTMVEager) < exec("P3m", core.SingleTEager),
			fmt.Sprintf("%d vs %d", exec("P3m", core.MultiTMVEager), exec("P3m", core.SingleTEager)))
	}
	for _, app := range []string{"Bdna", "Dsmc3d"} {
		if !has(g, app) {
			continue
		}
		add(fmt.Sprintf("MultiT&MV beats SingleT in %s (medium Commit/Exec ratio)", app),
			exec(app, core.MultiTMVEager) < exec(app, core.SingleTEager), "")
	}
	for _, app := range []string{"Track", "Dsmc3d", "Euler"} {
		if !has(g, app) {
			continue
		}
		sv := exec(app, core.MultiTSVEager)
		mv := exec(app, core.MultiTMVEager)
		ratio := float64(sv) / float64(mv)
		add(fmt.Sprintf("MultiT&SV matches MultiT&MV in %s (no privatization)", app),
			ratio > 0.97 && ratio < 1.03, fmt.Sprintf("ratio %.3f", ratio))
	}
	for _, app := range []string{"Tree", "Bdna", "Apsi"} {
		if !has(g, app) {
			continue
		}
		add(fmt.Sprintf("MultiT&SV no better than SingleT in %s (dominant privatization)", app),
			exec(app, core.MultiTSVEager) >= exec(app, core.SingleTEager), "")
	}
	for _, app := range []string{"Bdna", "Apsi", "Track", "Dsmc3d", "Euler"} {
		if !has(g, app) {
			continue
		}
		add(fmt.Sprintf("Laziness speeds up SingleT in %s (significant Commit/Exec ratio)", app),
			exec(app, core.SingleTLazy) < exec(app, core.SingleTEager), "")
	}
	for _, app := range []string{"Apsi", "Track", "Euler"} {
		if !has(g, app) {
			continue
		}
		add(fmt.Sprintf("Laziness speeds up MultiT&MV in %s (ratio x procs > 1)", app),
			exec(app, core.MultiTMVLazy) < exec(app, core.MultiTMVEager), "")
	}
	return out
}

// CheckFigure10Claims tests the AMM-versus-FMM claims.
func CheckFigure10Claims(g *Grid, lazyL2 Cell) []ExpectationCheck {
	var out []ExpectationCheck
	if has(g, "Euler") {
		lazy := g.Cell("Euler", core.MultiTMVLazy).Result
		fmm := g.Cell("Euler", core.MultiTMVFMM).Result
		out = append(out, ExpectationCheck{
			Claim: "Lazy AMM beats FMM in Euler (frequent squashes; AMM recovers faster)",
			Holds: lazy.ExecCycles < fmm.ExecCycles,
			Note:  fmt.Sprintf("%d vs %d", lazy.ExecCycles, fmm.ExecCycles),
		})
	}
	if has(g, "P3m") {
		amm := g.Cell("P3m", core.MultiTMVLazy).Result
		fmm := g.Cell("P3m", core.MultiTMVFMM).Result
		out = append(out, ExpectationCheck{
			Claim: "FMM at least matches Lazy AMM in P3m (buffer pressure; no overflow area)",
			Holds: fmm.ExecCycles <= amm.ExecCycles && fmm.OverflowSpills == 0 && amm.OverflowSpills > 0,
			Note:  fmt.Sprintf("AMM spills %d, FMM spills %d", amm.OverflowSpills, fmm.OverflowSpills),
		})
		if lazyL2.Result.Commits > 0 {
			out = append(out, ExpectationCheck{
				Claim: "The 16-way 4-MB L2 relieves P3m's AMM pressure (Lazy.L2)",
				Holds: lazyL2.Result.OverflowSpills < amm.OverflowSpills/2 &&
					lazyL2.Result.ExecCycles <= amm.ExecCycles,
				Note: fmt.Sprintf("spills %d -> %d", amm.OverflowSpills, lazyL2.Result.OverflowSpills),
			})
		}
	}
	// FMM.Sw costs a few percent over FMM on average (paper: 6%).
	totFMM, totSw := 0.0, 0.0
	for _, app := range g.Apps {
		totFMM += float64(g.Cell(app, core.MultiTMVFMM).Result.ExecCycles)
		totSw += float64(g.Cell(app, core.MultiTMVFMMSw).Result.ExecCycles)
	}
	over := 100 * (totSw/totFMM - 1)
	out = append(out, ExpectationCheck{
		Claim: "FMM.Sw runs a few percent slower than FMM (paper: 6% average)",
		Holds: over > 0 && over < 20,
		Note:  fmt.Sprintf("%.1f%% average overhead", over),
	})
	return out
}

func has(g *Grid, app string) bool {
	_, ok := g.Cells[app]
	return ok
}
