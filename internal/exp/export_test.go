package exp

import (
	"context"

	"repro/internal/sim"
)

// Hooks for the external tests (package exp_test), which drive runners
// through the in-process coordinator, cluster.Local.

// TinyProfile is tinyProfile for the external tests.
var TinyProfile = tinyProfile

// SetExecOverride replaces the simulation inside r (a hung or flaky
// simulation, to exercise the watchdog and re-execution).
func SetExecOverride(r *Runner, exec func(Job) sim.Result) { r.execOverride = exec }

// runJob executes j once through a fresh Runner, the production path.
func runJob(j Job) JobResult { return (&Runner{}).Run(context.Background(), j, Attempt{N: 1}) }

// RunJob is runJob for the external tests.
var RunJob = runJob
