package main

// metricDef names one reported metric; BENCHMARK.json at the repository
// root lists the same names, units and directions (a test keeps them in
// step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a run with --trace 0 reports, measured untraced.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a run with --trace 1 reports, from its traced
// operation. A metric that does not apply to a workload reads 0; README.md
// says which apply where and which end-to-end metric each should move.
var perLayer = []metricDef{
	{"workload.task_calls", "count", "lower"},
	{"workload.redo_frac", "ratio", "lower"},
	{"workload.ops", "count", "lower"},
	{"workload.task_s", "s", "lower"},
	{"workload.ns_per_op", "ns", "lower"},
	{"workload.cpu_share", "ratio", "lower"},

	{"sim.run_s", "s", "lower"},
	{"sim.self_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.squash_events", "count", "lower"},
	{"sim.tasks_squashed", "count", "lower"},
	{"sim.useful_exec_frac", "ratio", "higher"},
	{"sim.prefetch_hit_frac", "ratio", "higher"},
	{"sim.windows", "count", "lower"},
	{"sim.stall_window_frac", "ratio", "lower"},
	{"sim.cpu_share", "ratio", "lower"},

	{"sim.exec_cycles", "cycles", "lower"},
	{"sim.speedup", "x", "higher"},
	{"sim.busy_frac", "ratio", "higher"},
	{"sim.mem_frac", "ratio", "lower"},
	{"sim.task_frac", "ratio", "lower"},
	{"sim.commit_frac", "ratio", "lower"},
	{"sim.recovery_frac", "ratio", "lower"},
	{"sim.idle_frac", "ratio", "lower"},

	{"coherence.dir_reads", "count", "lower"},
	{"coherence.dir_writes", "count", "lower"},
	{"coherence.violations", "count", "lower"},
	{"coherence.dir_words_peak", "count", "lower"},
	{"coherence.cpu_share", "ratio", "lower"},

	{"memsys.overflow_spills", "count", "lower"},
	{"memsys.overflow_retrievals", "count", "lower"},
	{"memsys.mhb_appends", "count", "lower"},
	{"memsys.mhb_restored", "count", "lower"},
	{"memsys.vcl_merges", "count", "lower"},
	{"memsys.mem_writebacks", "count", "lower"},
	{"memsys.mem_rejected", "count", "lower"},
	{"memsys.cpu_share", "ratio", "lower"},

	{"interconnect.messages", "count", "lower"},
	{"interconnect.bank_queue_cycles", "cycles", "lower"},
	{"interconnect.if_queue_cycles", "cycles", "lower"},
	{"interconnect.cpu_share", "ratio", "lower"},

	{"event.fired", "count", "lower"},
	{"event.queue_len_peak", "count", "lower"},
	{"event.cpu_share", "ratio", "lower"},

	{"exp.jobs", "count", "lower"},
	{"exp.simulated", "count", "lower"},
	{"exp.cached", "count", "higher"},
	{"exp.deduped", "count", "higher"},
	{"exp.retries", "count", "lower"},
	{"exp.job_p50_s", "s", "lower"},
	{"exp.job_p90_s", "s", "lower"},
	{"exp.pool_busy_frac", "ratio", "higher"},
	{"exp.cpu_share", "ratio", "lower"},

	{"report.render_s", "s", "lower"},
	{"report.paper_err_pp", "pp", "lower"},
	{"report.claims_held", "count", "higher"},

	{"other.cpu_share", "ratio", "lower"},
	{"runtime.cpu_share", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}
