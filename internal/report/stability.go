package report

import (
	"math"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/workload"
)

// SeedStability quantifies how sensitive one (machine, scheme, workload)
// result is to the workload seed. The paper's applications are fixed
// binaries; our synthetic generators draw access patterns from a seed, so
// squash-prone workloads carry seed noise. The harness uses this to state
// confidence: a claim that two schemes differ is only meaningful when the
// difference exceeds the seed spread.
type SeedStability struct {
	Machine string
	App     string
	Scheme  core.Scheme
	Seeds   int

	MeanCycles   float64
	StddevCycles float64
	MinCycles    uint64
	MaxCycles    uint64
}

// CV returns the coefficient of variation (stddev/mean).
func (s SeedStability) CV() float64 {
	if s.MeanCycles == 0 {
		return 0
	}
	return s.StddevCycles / s.MeanCycles
}

// MeasureSeedStability runs the combination across seeds [first, first+n)
// as one batch and returns the spread statistics. It panics when a run
// fails, as a direct simulation would.
func MeasureSeedStability(cfg *machine.Config, scheme core.Scheme, prof workload.Profile, first uint64, n int) SeedStability {
	if n < 1 {
		n = 1
	}
	jobs := make([]exp.Job, n)
	for i := range jobs {
		jobs[i] = exp.Job{Machine: cfg, Scheme: scheme, Profile: prof, Seed: first + uint64(i)}
	}
	var opt Options
	cycles := make([]uint64, n)
	for i, jr := range opt.runBatch(jobs) {
		if jr.Err != nil {
			panic(jr.Err)
		}
		cycles[i] = uint64(jr.Result.ExecCycles)
	}

	out := SeedStability{
		Machine: cfg.Name, App: prof.Name, Scheme: scheme, Seeds: n,
		MinCycles: cycles[0], MaxCycles: cycles[0],
	}
	sum, sumsq := 0.0, 0.0
	for _, c := range cycles {
		f := float64(c)
		sum += f
		sumsq += f * f
		if c < out.MinCycles {
			out.MinCycles = c
		}
		if c > out.MaxCycles {
			out.MaxCycles = c
		}
	}
	out.MeanCycles = sum / float64(n)
	variance := sumsq/float64(n) - out.MeanCycles*out.MeanCycles
	if variance > 0 {
		out.StddevCycles = math.Sqrt(variance)
	}
	return out
}

// Significant reports whether the difference between two mean cycle counts
// exceeds the combined seed spread (a two-sigma criterion) — i.e. whether a
// scheme comparison on this workload means anything.
func Significant(a, b SeedStability) bool {
	diff := math.Abs(a.MeanCycles - b.MeanCycles)
	return diff > 2*(a.StddevCycles+b.StddevCycles)
}
