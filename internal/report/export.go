package report

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// ExportGridCSV writes a grid as CSV: one row per (application, scheme)
// with the quantities downstream plotting needs. Columns are stable and
// documented here so external tooling can rely on them:
//
//	machine, app, scheme, exec_cycles, seq_cycles, normalized, speedup,
//	busy_frac, stall_mem_frac, stall_task_frac, stall_commit_frac,
//	stall_recovery_frac, stall_idle_frac, commit_exec_ratio_pct,
//	squash_events, tasks_squashed, overflow_spills, mhb_appends,
//	oracle_checks, oracle_violations
//
// Normalization is against the grid's first scheme for the same app.
func ExportGridCSV(w io.Writer, g *Grid) error {
	cw := csv.NewWriter(w)
	header := []string{
		"machine", "app", "scheme", "exec_cycles", "seq_cycles", "normalized",
		"speedup", "busy_frac", "stall_mem_frac", "stall_task_frac",
		"stall_commit_frac", "stall_recovery_frac", "stall_idle_frac",
		"commit_exec_ratio_pct", "squash_events", "tasks_squashed",
		"overflow_spills", "mhb_appends", "oracle_checks", "oracle_violations",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, app := range g.Apps {
		base := g.Cell(app, g.Schemes[0]).Result.ExecCycles
		for _, sch := range g.Schemes {
			c := g.Cell(app, sch)
			r := c.Result
			tot := float64(r.Agg.Total())
			if tot == 0 {
				tot = 1
			}
			row := []string{
				g.Machine, app, sch.String(),
				u(uint64(r.ExecCycles)), u(uint64(c.Seq)),
				f(c.Normalized(base)), f(c.Speedup()),
				f(float64(r.Agg.Busy) / tot),
				f(float64(r.Agg.StallMem) / tot),
				f(float64(r.Agg.StallTask) / tot),
				f(float64(r.Agg.StallCommit) / tot),
				f(float64(r.Agg.StallRecovery) / tot),
				f(float64(r.Agg.StallIdle) / tot),
				f(r.CommitExecRatio()),
				strconv.Itoa(r.SquashEvents), strconv.Itoa(r.TasksSquashed),
				u(r.OverflowSpills), u(r.MHBAppends),
				strconv.Itoa(r.OracleChecks), strconv.Itoa(r.OracleViolations),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportCharacterizationCSV writes Figure 1 / Table 3 data as CSV.
func ExportCharacterizationCSV(w io.Writer, chars []AppCharacterization) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"app", "tasks", "instr_per_task", "spec_tasks_system", "spec_tasks_per_proc",
		"footprint_kb", "priv_pct", "ce_numa_pct", "ce_cmp_pct", "squash_per_task",
		"paper_ce_numa_pct", "paper_ce_cmp_pct",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, c := range chars {
		if err := cw.Write([]string{
			c.Profile.Name, strconv.Itoa(c.Profile.Tasks), strconv.Itoa(c.Profile.InstrPerTask),
			f(c.SpecTasksSystem), f(c.SpecTasksPerProc), f(c.FootprintKB), f(c.PrivPct),
			f(c.CENuma), f(c.CECmp), f(c.SquashRate),
			f(c.Profile.PaperCENuma), f(c.Profile.PaperCECmp),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportTraceCSV writes a traced run's timeline events as CSV.
func ExportTraceCSV(w io.Writer, r sim.Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"when", "kind", "task", "proc", "word", "writer", "wasted"}); err != nil {
		return err
	}
	events := append([]sim.TraceEvent(nil), r.Trace...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].When < events[j].When })
	for _, ev := range events {
		// Squash-cause columns are empty on non-squash rows.
		word, writer, wasted := "", "", ""
		if ev.Kind == sim.TraceSquash {
			word = strconv.FormatUint(uint64(ev.Word), 10)
			writer = ev.Writer.String()
			wasted = strconv.FormatUint(uint64(ev.Wasted), 10)
		}
		if err := cw.Write([]string{
			strconv.FormatUint(uint64(ev.When), 10), ev.Kind.String(),
			ev.Task.String(), ev.Proc.String(), word, writer, wasted,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportSquashHotspotsCSV writes the per-word squash-attribution table of a
// traced run: which words' dependence chains squash the application, ranked
// by wasted cycles.
func ExportSquashHotspotsCSV(w io.Writer, r sim.Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"word", "squashes", "wasted_cycles", "max_distance", "sample_writer", "sample_reader",
	}); err != nil {
		return err
	}
	for _, h := range sim.SquashHotspots(r.Trace) {
		if err := cw.Write([]string{
			strconv.FormatUint(uint64(h.Word), 10),
			strconv.Itoa(h.Squashes),
			strconv.FormatUint(uint64(h.WastedCycles), 10),
			strconv.Itoa(h.MaxDistance),
			h.SampleWriter.String(),
			h.SampleReader.String(),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
