package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A bench is one workload of the benchmark. setup prepares one operation from the
// run's seed; a non-nil tracer makes it a traced operation.
type bench struct {
	name  string
	setup func(cfg config, tr *tracer) (operation, error)
}

// An operation is one prepared unit of work, run once.
type operation interface {
	// run is the timed part. Its spans hang under parent.
	run(parent uint64)
	// check runs the correctness checks, outside the timed region, and
	// reports the outcome; wall is how long run took.
	check(wall time.Duration) outcome
	// close releases what set-up acquired.
	close()
}

// outcome is one operation's verdict and the counts its metrics come from.
type outcome struct {
	sims, failed int      // simulations attempted and failed
	failures     []string // why each failed simulation failed
	events       uint64   // Result.Events summed over every simulation run
	digest       string   // hash of every simulated statistic
	results      any      // everything simulated, for reflect.DeepEqual across runs
	fidelity     *fidelity
	// layers holds the per-layer metrics the operation counts itself.
	layers map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

var workloads = map[string]bench{
	"campaign": {name: "campaign", setup: setupCampaign},
	"full-bdna": {name: "full-bdna", setup: fullRun{
		machine: machine.NUMA16, scheme: core.MultiTMVLazy, prof: workload.Bdna(),
	}.setup},
	"squash-par": {name: "squash-par", setup: fullRun{
		machine: machine.NUMA16, scheme: core.MultiTMVFMM, prof: workload.Euler(), parallel: true,
	}.setup},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fullRun is a full-size application on one machine and scheme: one
// operation is the sequential baseline plus the speculative run, as
// `tlssim -full` runs them.
type fullRun struct {
	machine func() *machine.Config
	scheme  core.Scheme
	prof    workload.Profile
	// parallel runs the speculative simulation on the parallel core with
	// config.workers workers; the baseline always runs serially.
	parallel bool
	// source builds the speculative run's workload; nil selects
	// workload.NewGenerator. Tests substitute a faulty one.
	source func(workload.Profile, uint64) taskSource
}

type fullOp struct {
	tr       *tracer
	seq      *sim.Simulator
	spec     *sim.Simulator
	specName string
	tasks    *timedWorkload // the traced run's Task timer; nil untraced

	seqRes, specRes sim.Result
	seqErr, specErr error
}

func (f fullRun) setup(cfg config, tr *tracer) (operation, error) {
	var gen taskSource
	if f.source != nil {
		gen = f.source(f.prof, cfg.seed)
	} else {
		gen = workload.NewGenerator(f.prof, cfg.seed)
	}
	o := &fullOp{tr: tr, seq: sim.NewSequential(f.machine(), f.prof, cfg.seed), specName: "sim.Run"}
	var w repro.Workload = gen
	if tr != nil {
		o.tasks = newTimedWorkload(gen, tr)
		w = o.tasks
	}
	o.spec = repro.NewSimulatorFor(f.machine(), f.scheme, w)
	if f.parallel {
		o.spec.SetParallel(cfg.workers)
	}
	if o.spec.Parallel() > 0 {
		o.specName = "sim.RunParallel"
	}
	if tr != nil {
		for _, s := range []*sim.Simulator{o.seq, o.spec} {
			s.Observe(obs.Config{Registry: obs.NewRegistry()})
			s.EnableInvariantChecks()
		}
	}
	return o, nil
}

func (o *fullOp) run(parent uint64) {
	o.tr.span(parent, "sim", "sim.RunSequential", func(uint64) {
		o.seqRes, o.seqErr = runSim(o.seq)
	})
	o.tr.span(parent, "sim", o.specName, func(id uint64) {
		o.tasks.setParent(id)
		o.specRes, o.specErr = runSim(o.spec)
	})
}

// runSim runs s, turning a panic into an error.
func runSim(s *sim.Simulator) (r sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return s.Run(), nil
}

func (o *fullOp) check(time.Duration) outcome {
	// VerifyFinalMemory replays the workload; keep that out of the counts.
	o.tasks.stop()
	oc := outcome{sims: 2, layers: map[string]float64{}}
	checkSim(&oc, "sequential baseline", o.seq, o.seqRes, o.seqErr, false)
	checkSim(&oc, "speculative run", o.spec, o.specRes, o.specErr, true)

	all := []sim.Result{o.seqRes, o.specRes}
	oc.events = o.seqRes.Events + o.specRes.Events
	oc.results = all
	oc.digest = digest(all)
	countResults(oc.layers, all)
	cycleDomain(oc.layers, all[1:], o.specRes.Speedup(o.seqRes.ExecCycles))
	if o.tr == nil {
		return oc
	}
	var dirPeak, queuePeak int64
	for _, s := range []*sim.Simulator{o.seq, o.spec} {
		oc.layers["interconnect.messages"] += float64(s.ObsRegistry().CounterValue("net_messages"))
		dirPeak = max(dirPeak, seriesMax(s.Sampled(), "dir_words_live"))
		queuePeak = max(queuePeak, seriesMax(s.Sampled(), "event_queue_len"))
	}
	oc.layers["coherence.dir_words_peak"] = float64(dirPeak)
	oc.layers["event.queue_len_peak"] = float64(queuePeak)
	if ps := o.spec.ParallelStats(); ps.Workers > 0 {
		oc.layers["sim.windows"] = float64(ps.Windows)
		oc.layers["sim.stall_window_frac"] = ratio(float64(ps.StallWindows), float64(ps.Windows))
		oc.layers["sim.prefetch_hit_frac"] = ratio(float64(ps.PrefetchHits), float64(ps.PrefetchHits+ps.PrefetchMisses))
	}
	o.tasks.count(oc.layers)
	return oc
}

func (o *fullOp) close() {}

// checkSim records a failure when a simulation errored or panicked, read a
// wrong version, broke a protocol invariant (traced runs check them) or,
// with verify, left main memory unlike sequential execution would.
func checkSim(oc *outcome, what string, s *sim.Simulator, r sim.Result, err error, verify bool) {
	switch {
	case err != nil:
		oc.fail("%s: %v", what, err)
	case r.OracleViolations > 0:
		oc.fail("%s: %d of %d committed reads saw the wrong version", what, r.OracleViolations, r.OracleChecks)
	case s.InvariantViolationCount() > 0:
		oc.fail("%s: %d protocol invariant violations", what, s.InvariantViolationCount())
	case verify:
		if checked, wrong := s.VerifyFinalMemory(); wrong > 0 {
			oc.fail("%s: %d of %d written lines hold the wrong final version", what, wrong, checked)
		}
	}
}

// seriesMax is the largest sampled value of the named gauge.
func seriesMax(s obs.Series, name string) int64 {
	col := -1
	for i, n := range s.Names {
		if n == name {
			col = i
		}
	}
	var peak int64
	for _, sample := range s.Samples {
		if col >= 0 && sample.Values[col] > peak {
			peak = sample.Values[col]
		}
	}
	return peak
}

// campaignOp regenerates Figures 9, 10 and 11 cold, as
// `tlsreport -jobs N -cache D -journal J` does: a fresh result cache and
// journal per operation, Jobs = the worker count.
type campaignOp struct {
	tr      *tracer
	dir     string
	journal *exp.Journal
	opt     repro.Options
	workers int

	figure atomic.Uint64 // span of the figure whose jobs are running
	mu     sync.Mutex
	jobs   []exp.JobResult

	fig9, fig10, fig11 *repro.Grid
	lazyL2             repro.Cell
	summaries          [2]repro.Summary
	checks             []repro.ExpectationCheck
	rendered           bytes.Buffer
}

func setupCampaign(cfg config, tr *tracer) (operation, error) {
	dir, err := os.MkdirTemp(cfg.dir, "campaign-")
	if err != nil {
		return nil, err
	}
	cache := filepath.Join(dir, "cache")
	if _, err := repro.NewResultCache(cache); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	jpath := filepath.Join(dir, "journal.wal")
	j, err := repro.OpenJournal(jpath)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := j.Append(repro.JournalRecord{T: repro.RecCampaign, Name: "perfbench"}); err != nil {
		j.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	c := &campaignOp{tr: tr, dir: dir, journal: j, workers: cfg.workers}
	c.opt = repro.Options{
		Seed: cfg.seed, Apps: repro.StandardSuite(), Jobs: cfg.workers,
		CacheDir: cache, Journal: j, CheckpointDir: jpath + ".ckpt",
		JobObserver: c.observe,
	}
	return c, nil
}

func (c *campaignOp) run(parent uint64) {
	c.tr.span(parent, "report", "report.Figure9", func(id uint64) {
		c.figure.Store(id)
		c.fig9 = repro.Figure9(c.opt)
	})
	c.tr.span(parent, "report", "report.Figure10", func(id uint64) {
		c.figure.Store(id)
		c.fig10, c.lazyL2 = repro.Figure10(c.opt)
	})
	c.tr.span(parent, "report", "report.Figure11", func(id uint64) {
		c.figure.Store(id)
		c.fig11 = repro.Figure11(c.opt)
	})
	c.tr.span(parent, "report", "report.render", func(uint64) {
		c.summaries = [2]repro.Summary{repro.Summarize(c.fig9), repro.Summarize(c.fig11)}
		c.checks = append(report.CheckFigure9Claims(c.fig9), report.CheckFigure10Claims(c.fig10, c.lazyL2)...)
		w := &c.rendered
		for _, g := range []struct {
			grid  *repro.Grid
			title string
		}{{c.fig9, "Figure 9"}, {c.fig10, "Figure 10"}, {c.fig11, "Figure 11"}} {
			report.RenderGrid(w, g.grid, g.title)
			report.RenderAverages(w, g.grid)
			// Writes to a bytes.Buffer cannot fail.
			_ = report.ExportGridCSV(w, g.grid)
		}
		report.RenderChecks(w, c.checks)
		report.RenderSummary(w, c.summaries[0], paperNUMA[0], paperNUMA[1], paperNUMA[2])
		report.RenderSummary(w, c.summaries[1], paperCMP[0], paperCMP[1], paperCMP[2])
	})
}

// observe collects every finished job and, traced, rebuilds its span from
// the job's wall time.
func (c *campaignOp) observe(jr exp.JobResult) {
	end := time.Now()
	c.mu.Lock()
	c.jobs = append(c.jobs, jr)
	c.mu.Unlock()
	if c.tr == nil {
		return
	}
	kind := trace.KindAttempt
	if jr.Cached {
		kind = trace.KindCacheHit
	}
	c.tr.emit(trace.Span{
		Parent: c.figure.Load(), Name: "exp.job", Kind: kind, Proc: "exp", Note: jr.Job.Label(),
		Start: end.Add(-jr.Wall).UnixMicro(), Dur: jr.Wall.Microseconds(),
	})
}

func (c *campaignOp) check(wall time.Duration) outcome {
	oc := outcome{layers: map[string]float64{}}
	var executed, spec []sim.Result
	var walls []float64
	var busy time.Duration
	m := oc.layers
	for _, jr := range c.jobs {
		oc.sims++
		switch {
		case jr.Err != nil:
			oc.fail("%s: %v", jr.Job.Label(), jr.Err)
			continue
		case jr.Result.OracleViolations > 0:
			oc.fail("%s: %d of %d committed reads saw the wrong version",
				jr.Job.Label(), jr.Result.OracleViolations, jr.Result.OracleChecks)
		}
		m["exp.retries"] += float64(max(jr.Attempts-1, 0))
		switch {
		case jr.Cached:
			m["exp.cached"]++
		case jr.Deduped:
			m["exp.deduped"]++
		default:
			executed = append(executed, jr.Result)
			if !jr.Job.Sequential {
				spec = append(spec, jr.Result)
			}
			walls = append(walls, jr.Wall.Seconds())
			busy += jr.Wall
			oc.events += jr.Result.Events
		}
	}
	if oc.sims == 0 {
		oc.fail("the campaign ran no jobs")
	}
	m["exp.jobs"] = float64(len(c.jobs))
	m["exp.simulated"] = float64(len(executed))
	m["exp.job_p50_s"] = percentile(walls, 50)
	m["exp.job_p90_s"] = percentile(walls, 90)
	m["exp.pool_busy_frac"] = ratio(busy.Seconds(), wall.Seconds()*float64(c.workers))

	grids := []any{c.fig9, c.fig10, c.lazyL2, c.fig11}
	oc.results = grids
	oc.digest = digest(grids, c.rendered.String())
	oc.fidelity = newFidelity(c.summaries, c.checks)
	m["report.paper_err_pp"] = oc.fidelity.PaperErrPP
	m["report.claims_held"] = float64(oc.fidelity.ClaimsHeld)
	countResults(m, executed)

	var speedups []float64
	for _, g := range []*repro.Grid{c.fig9, c.fig10, c.fig11} {
		for _, app := range g.Apps {
			for _, sch := range g.Schemes {
				speedups = append(speedups, g.Cell(app, sch).Speedup())
			}
		}
	}
	cycleDomain(m, spec, mean(speedups))
	return oc
}

func (c *campaignOp) close() {
	// The journal only recorded this throw-away campaign.
	_ = c.journal.Close()
	os.RemoveAll(c.dir)
}

// The paper's Section 5.4 reductions, percent: MultiT&MV over SingleT,
// laziness for the simple schemes, laziness for MultiT&MV.
var (
	paperNUMA = [3]float64{32, 30, 24}
	paperCMP  = [3]float64{23, 9, 3}
)

// fidelity is how close the campaign's cycle-domain results are to the
// paper's.
type fidelity struct {
	PaperErrPP float64 // mean absolute error of the six Section 5.4 reductions
	ClaimsHeld int     // Figure 9 and Figure 10 claim checks that hold
}

func newFidelity(s [2]repro.Summary, checks []repro.ExpectationCheck) *fidelity {
	f := &fidelity{}
	for i, paper := range [2][3]float64{paperNUMA, paperCMP} {
		got := [3]float64{s[i].MultiTMVOverSingleTPct, s[i].LazinessSimplePct, s[i].LazinessMultiTMVPct}
		for k := range got {
			f.PaperErrPP += math.Abs(got[k]-paper[k]) / 6
		}
	}
	for _, c := range checks {
		if c.Holds {
			f.ClaimsHeld++
		}
	}
	return f
}

// countResults adds the simulators' own counts, summed over every
// simulation, to the per-layer metrics.
func countResults(m map[string]float64, rs []sim.Result) {
	var commits, squashed float64
	for _, r := range rs {
		m["sim.events"] += float64(r.Events)
		m["event.fired"] += float64(r.Events)
		m["sim.squash_events"] += float64(r.SquashEvents)
		m["sim.tasks_squashed"] += float64(r.TasksSquashed)
		commits += float64(r.Commits)
		squashed += float64(r.TasksSquashed)
		m["coherence.dir_reads"] += float64(r.DirReads)
		m["coherence.dir_writes"] += float64(r.DirWrites)
		m["coherence.violations"] += float64(r.Violations)
		m["memsys.overflow_spills"] += float64(r.OverflowSpills)
		m["memsys.overflow_retrievals"] += float64(r.OverflowRetrievals)
		m["memsys.mhb_appends"] += float64(r.MHBAppends)
		m["memsys.mhb_restored"] += float64(r.MHBRestored)
		m["memsys.vcl_merges"] += float64(r.VCLMerges)
		m["memsys.mem_writebacks"] += float64(r.MemWritebacks)
		m["memsys.mem_rejected"] += float64(r.MemRejected)
		m["interconnect.bank_queue_cycles"] += float64(r.BankQueueCycles)
		m["interconnect.if_queue_cycles"] += float64(r.IfQueueCycles)
	}
	m["sim.useful_exec_frac"] = ratio(commits, commits+squashed)
}

// cycleDomain adds the simulated-time metrics of the speculative runs.
func cycleDomain(m map[string]float64, spec []sim.Result, speedup float64) {
	var agg struct{ busy, mem, task, commit, recovery, idle, total float64 }
	for _, r := range spec {
		m["sim.exec_cycles"] += float64(r.ExecCycles)
		agg.busy += float64(r.Agg.Busy)
		agg.mem += float64(r.Agg.StallMem)
		agg.task += float64(r.Agg.StallTask)
		agg.commit += float64(r.Agg.StallCommit)
		agg.recovery += float64(r.Agg.StallRecovery)
		agg.idle += float64(r.Agg.StallIdle)
		agg.total += float64(r.Agg.Total())
	}
	m["sim.speedup"] = speedup
	m["sim.busy_frac"] = ratio(agg.busy, agg.total)
	m["sim.mem_frac"] = ratio(agg.mem, agg.total)
	m["sim.task_frac"] = ratio(agg.task, agg.total)
	m["sim.commit_frac"] = ratio(agg.commit, agg.total)
	m["sim.recovery_frac"] = ratio(agg.recovery, agg.total)
	m["sim.idle_frac"] = ratio(agg.idle, agg.total)
}

// digest hashes every simulated statistic of vs.
func digest(vs ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return "unencodable: " + err.Error()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}
