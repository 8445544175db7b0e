package exp

import "repro/internal/sim"

// Hooks for the external tests (package exp_test), which drive runners
// through the in-process coordinator, cluster.Local.

// TinyProfile is tinyProfile for the external tests.
var TinyProfile = tinyProfile

// SetExecOverride replaces the simulation inside r (a hung or flaky
// simulation, to exercise the watchdog and re-execution).
func SetExecOverride(r *Runner, exec func(Job) sim.Result) { r.execOverride = exec }
