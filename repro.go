// Package repro is a library reproduction of "Tradeoffs in Buffering
// Memory State for Thread-Level Speculation in Multiprocessors" (Garzarán,
// Prvulovic, Llabería, Viñals, Rauchwerger, Torrellas — HPCA-9, 2003).
//
// The paper classifies approaches to buffering multi-version speculative
// memory state along two axes — how a processor separates the state of its
// speculative tasks (SingleT, MultiT&SV, MultiT&MV) and how task state
// merges with main memory (Eager AMM, Lazy AMM, FMM) — and evaluates every
// design point with an execution-driven simulation of a 16-node CC-NUMA
// and an 8-processor CMP running seven speculatively-parallelized
// numerical applications.
//
// This package is the public face of the reproduction:
//
//   - the taxonomy, its support-requirement analysis (Tables 1 and 2), the
//     mapping of previously proposed schemes (Figure 4), and the per-scheme
//     limiting characteristics (Figure 8);
//   - a discrete-event multiprocessor simulator with versioned caches
//     (task-ID tags and retrieval logic), a word-granularity speculative
//     coherence protocol, per-processor overflow areas and undo logs, and
//     the commit-token machinery;
//   - synthetic models of the seven applications, parameterized from the
//     paper's published characteristics;
//   - experiment harnesses that regenerate every table and figure of the
//     evaluation.
//
// Quick start:
//
//	seq := repro.RunSequential(repro.NUMA16(), repro.Bdna(), 1)
//	res := repro.Run(repro.NUMA16(), repro.MultiTMVLazy, repro.Bdna(), 1)
//	fmt.Printf("speedup %.2f\n", res.Speedup(seq.ExecCycles))
//
// All simulations are deterministic functions of (machine, scheme,
// profile, seed).
package repro

import (
	"context"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/iofault"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Taxonomy types (see internal/core for the full documentation).
type (
	// Scheme is one design point: a separation policy crossed with a
	// merging policy (plus the software-log FMM variant).
	Scheme = core.Scheme
	// Separation is the vertical axis of the taxonomy.
	Separation = core.Separation
	// Merging is the horizontal axis of the taxonomy.
	Merging = core.Merging
	// Support is one of the hardware/software mechanisms of Table 1.
	Support = core.Support
	// SupportSet is a set of required mechanisms.
	SupportSet = core.SupportSet
	// UpgradeStep is one row of Table 2.
	UpgradeStep = core.UpgradeStep
	// ExistingScheme is one Figure 4 entry.
	ExistingScheme = core.ExistingScheme
)

// The separation axis.
const (
	SingleT  = core.SingleT
	MultiTSV = core.MultiTSV
	MultiTMV = core.MultiTMV
)

// The merging axis.
const (
	EagerAMM = core.EagerAMM
	LazyAMM  = core.LazyAMM
	FMM      = core.FMM
)

// The modelled design points.
var (
	SingleTEager  = core.SingleTEager
	SingleTLazy   = core.SingleTLazy
	MultiTSVEager = core.MultiTSVEager
	MultiTSVLazy  = core.MultiTSVLazy
	MultiTMVEager = core.MultiTMVEager
	MultiTMVLazy  = core.MultiTMVLazy
	MultiTMVFMM   = core.MultiTMVFMM
	MultiTMVFMMSw = core.MultiTMVFMMSw

	// CoarseRecovery is the LRPD/SUDS-style software-only baseline of
	// Figure 4: a speculative doall with software access marking, an
	// end-of-section dependence test, and serial re-execution on failure.
	CoarseRecovery = core.CoarseRecovery
)

// AllSchemes returns every design point the paper evaluates.
func AllSchemes() []Scheme { return core.AllSchemes() }

// ExtendedSchemes returns AllSchemes plus the coarse-recovery baseline.
func ExtendedSchemes() []Scheme { return core.ExtendedSchemes() }

// SchemeFromString parses a scheme by its display name (case-insensitive).
func SchemeFromString(name string) (Scheme, bool) { return core.SchemeFromString(name) }

// RequiredSupports returns the Table 1 mechanisms a scheme needs (Table 2).
func RequiredSupports(s Scheme) SupportSet { return core.RequiredSupports(s) }

// UpgradePath returns Table 2's feature-upgrade path.
func UpgradePath() []UpgradeStep { return core.UpgradePath() }

// ExistingSchemes returns Figure 4's registry of previously proposed
// schemes mapped onto the taxonomy.
func ExistingSchemes() []ExistingScheme { return core.ExistingSchemes() }

// Machines.
type (
	// Machine is a simulated architecture configuration.
	Machine = machine.Config
)

// NUMA16 returns the 16-node scalable CC-NUMA machine of Section 4.1.
func NUMA16() *Machine { return machine.NUMA16() }

// NUMA16BigL2 returns the Lazy.L2 variant (4-MB, 16-way L2) of Figure 10.
func NUMA16BigL2() *Machine { return machine.NUMA16BigL2() }

// CMP8 returns the 8-processor chip multiprocessor of Section 4.1.
func CMP8() *Machine { return machine.CMP8() }

// ScalableNUMA returns a CC-NUMA machine with the given processor count
// (the paper's machine generalized for scalability sweeps).
func ScalableNUMA(nodes int) *Machine { return machine.ScalableNUMA(nodes) }

// Workloads.
type (
	// Profile describes one application's speculative section.
	Profile = workload.Profile
	// Workload supplies a section's tasks; implemented by the synthetic
	// generators and by explicit Traces.
	Workload = sim.Workload
	// Trace is an explicit user-supplied workload.
	Trace = workload.Trace
	// TraceBuilder accumulates one task's operations fluently.
	TraceBuilder = workload.TraceBuilder
	// Op is one 8-byte operation of a task stream: a memory access with
	// the compute chunk before it, or a compute chunk alone.
	Op = workload.Op
	// Addr is a word address.
	Addr = memsys.Addr
)

// NewTrace builds an explicit workload from per-task operation streams.
func NewTrace(name string, tasks [][]Op, tasksPerInvoc int) *Trace {
	return workload.NewTrace(name, tasks, tasksPerInvoc)
}

// The application suite (full-size parameters; see StandardSuite for the
// harness scaling).
var (
	P3m    = workload.P3m
	Tree   = workload.Tree
	Bdna   = workload.Bdna
	Apsi   = workload.Apsi
	Track  = workload.Track
	Dsmc3d = workload.Dsmc3d
	Euler  = workload.Euler
)

// Apps returns the seven applications at full-size parameters.
func Apps() []Profile { return workload.Apps() }

// StandardSuite returns the suite at the reproduction harness's standard
// scaling.
func StandardSuite() []Profile { return workload.StandardSuite() }

// AppByName looks a profile up by name ("P3m" ... "Euler").
func AppByName(name string) (Profile, bool) { return workload.AppByName(name) }

// Simulation.
type (
	// Result is the outcome of one simulation run.
	Result = sim.Result
	// Simulator runs one speculative section; use New for tracing control,
	// or the Run helpers.
	Simulator = sim.Simulator
	// TraceEvent is one timeline record of a traced run.
	TraceEvent = sim.TraceEvent
	// SquashHotspot is one row of the per-word squash-attribution table.
	SquashHotspot = sim.SquashHotspot
)

// Observability (the internal/obs layer): a deterministic, cycle-domain
// metrics registry and gauge sampler that attach to a Simulator via
// (*Simulator).Observe without perturbing results.
type (
	// ObsRegistry holds one run's counters, gauges and histograms.
	ObsRegistry = obs.Registry
	// ObsConfig threads a registry and sampling period into a Simulator
	// or an orchestrator Job.
	ObsConfig = obs.Config
	// ObsSeries is the sampled gauge time series of an observed run.
	ObsSeries = obs.Series
)

// NewObsRegistry returns an empty observability registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// SquashHotspots aggregates a trace's squash events into per-word hotspots.
func SquashHotspots(trace []TraceEvent) []SquashHotspot { return sim.SquashHotspots(trace) }

// Run simulates one (machine, scheme, application, seed) combination.
func Run(cfg *Machine, scheme Scheme, prof Profile, seed uint64) Result {
	return sim.Run(cfg, scheme, prof, seed)
}

// RunSequential measures the sequential-execution baseline for speedups.
func RunSequential(cfg *Machine, prof Profile, seed uint64) Result {
	return sim.RunSequential(cfg, prof, seed)
}

// RunParallel simulates one combination on the parallel simulation core
// with n worker goroutines (n <= 1 selects the serial loop). The Result is
// reflect.DeepEqual-identical to Run's: parallel mode only changes where
// the work is computed, never what it computes. See DESIGN.md §15.
func RunParallel(cfg *Machine, scheme Scheme, prof Profile, seed uint64, n int) Result {
	s := sim.New(cfg, scheme, workload.NewGenerator(prof, seed))
	s.SetParallel(n)
	return s.Run()
}

// NewSimulator builds a simulator for one run (e.g. to EnableTrace).
func NewSimulator(cfg *Machine, scheme Scheme, prof Profile, seed uint64) *Simulator {
	return sim.New(cfg, scheme, workload.NewGenerator(prof, seed))
}

// NewSimulatorFor builds a simulator over any workload — in particular an
// explicit Trace.
func NewSimulatorFor(cfg *Machine, scheme Scheme, w Workload) *Simulator {
	return sim.New(cfg, scheme, w)
}

// Orchestration (the internal/exp subsystem). Every experiment harness
// below executes through it; these aliases let callers build their own
// batches with the same machinery.
type (
	// Job is the canonical, hashable description of one simulation:
	// (machine, scheme, application profile, seed, ablation knobs).
	Job = exp.Job
	// JobResult pairs a Job with its outcome.
	JobResult = exp.JobResult
	// Ablation bundles the simulator's ablation knobs for Jobs.
	Ablation = exp.Ablation
	// Runner executes Job batches on an in-process coordinator: a pool of
	// Workers with panic isolation and re-execution, optional persistent
	// caching, and the campaign's job accounting (Snapshot) and dashboard.
	Runner = cluster.Local
	// ResultCache is the persistent on-disk result cache.
	ResultCache = exp.Cache
	// JobFailure is one entry of a sweep's failure manifest.
	JobFailure = exp.Failure
)

// CollectFailures extracts the failure manifest from a batch's results.
func CollectFailures(results []JobResult) []JobFailure { return exp.CollectFailures(results) }

// RenderFailureManifest renders a failure manifest as a text block ("" when
// the sweep was clean).
func RenderFailureManifest(failures []JobFailure) string {
	return exp.RenderFailureManifest(failures)
}

// NewResultCache opens (creating if necessary) a persistent result cache
// rooted at dir. Entries are keyed by job content hash plus the module
// version, so a warm rerun only re-simulates what changed.
func NewResultCache(dir string) (*ResultCache, error) { return exp.NewCache(dir) }

// NewResultCacheFS is NewResultCache writing through an explicit filesystem
// seam (storage fault drills inject one; nil means the real OS).
func NewResultCacheFS(fsys iofault.FS, dir string) (*ResultCache, error) {
	return exp.NewCacheFS(fsys, dir)
}

// Crash-safe campaigns: the journal WAL, its replayed digest, and the
// graceful-shutdown controller behind the CLIs' -resume flags.
type (
	// Journal is the append-only, fsync'd campaign write-ahead log.
	Journal = exp.Journal
	// JournalRecord is one line of the campaign journal.
	JournalRecord = exp.JournalRecord
	// CampaignState is the resume-relevant digest of a journal: completed
	// jobs (results in the cache), failures and outstanding leases.
	CampaignState = exp.CampaignState
	// Shutdown is the two-stage SIGINT/SIGTERM handler: first signal
	// cancels the campaign context (workers halt and drain), second
	// hard-exits.
	Shutdown = exp.Shutdown
)

// Journal record types, and the exit code of a gracefully interrupted
// campaign (128 + SIGINT, the shell convention).
const (
	RecCampaign     = exp.RecCampaign
	RecJobStart     = exp.RecJobStart
	RecJobDone      = exp.RecJobDone
	ExitInterrupted = exp.ExitInterrupted
	// ExitPowerCut is the exit code of a campaign killed by an injected
	// storage fault plan's power cut (-io-chaos cut=N).
	ExitPowerCut = exp.ExitPowerCut
)

// OpenJournal opens (creating if necessary) the campaign journal at path
// for appending, truncating a torn final line left by a crashed writer.
func OpenJournal(path string) (*Journal, error) { return exp.OpenJournal(path) }

// OpenJournalFS is OpenJournal writing through an explicit filesystem seam
// (storage fault drills inject one; nil means the real OS).
func OpenJournalFS(fsys iofault.FS, path string) (*Journal, error) {
	return exp.OpenJournalFS(fsys, path)
}

// LoadCampaign reads and replays the journal at path into the digest a
// resumed campaign needs (completed job keys, failures, outstanding leases).
func LoadCampaign(path string) (CampaignState, error) { return exp.LoadCampaign(path) }

// NewShutdown installs the two-stage signal handler. Call Stop when the
// campaign finishes to restore default signal behavior.
func NewShutdown(parent context.Context) *Shutdown { return exp.NewShutdown(parent) }

// RunBatch executes jobs on a default Runner (GOMAXPROCS workers, a crashed
// job re-executed once, no cache). Results are returned in submission order; they are
// byte-identical to running each job serially.
func RunBatch(ctx context.Context, jobs []Job) ([]JobResult, error) {
	return new(Runner).RunBatch(ctx, jobs)
}

// Experiments (the tables and figures of the evaluation).
type (
	// Options parameterizes an experiment sweep.
	Options = report.Options
	// Grid is a machine × applications × schemes sweep.
	Grid = report.Grid
	// Cell is one (application, scheme) measurement.
	Cell = report.Cell
	// Summary is the Section 5.4 condensation of a grid.
	Summary = report.Summary
	// AppCharacterization is one application's measured characteristics
	// (Figure 1, Table 3).
	AppCharacterization = report.AppCharacterization
	// ExpectationCheck is a verified qualitative claim of the paper.
	ExpectationCheck = report.ExpectationCheck
	// ScalabilityPoint is one machine size of a scalability sweep.
	ScalabilityPoint = report.ScalabilityPoint
)

// Figure9 runs the NUMA separation/merging comparison (Figure 9).
func Figure9(opt Options) *Grid { return report.Figure9(opt) }

// Figure10 runs the NUMA AMM-versus-FMM comparison plus P3m's Lazy.L2 run.
func Figure10(opt Options) (*Grid, Cell) { return report.Figure10(opt) }

// Figure11 runs Figure 9 on the CMP.
func Figure11(opt Options) *Grid { return report.Figure11(opt) }

// Characterize measures Figure 1 / Table 3 data for the suite.
func Characterize(opt Options) []AppCharacterization { return report.Characterize(opt) }

// Summarize condenses a Figure 9/11 grid into Section 5.4's averages.
func Summarize(g *Grid) Summary { return report.Summarize(g) }

// Scalability sweeps machine sizes (4, 8, 16, 32 NUMA nodes) and reports
// how the benefits of multiple tasks&versions and laziness scale — the
// basis of the paper's "large machines" conclusions.
func Scalability(opt Options) []ScalabilityPoint { return report.Scalability(opt) }

// Figure5 renders the SingleT/MultiT&SV/MultiT&MV timelines of Figure 5.
func Figure5(w io.Writer, seed uint64) map[string]Result { return report.Figure5(w, seed) }

// Figure6 renders the execution/commit wavefront timelines of Figure 6.
func Figure6(w io.Writer, seed uint64) map[string]Result { return report.Figure6(w, seed) }
