package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

const barWidth = 44

// bar renders a two-segment horizontal bar (busy + stall) scaled so that
// value 1.0 fills barWidth characters.
func bar(busyFrac, total float64) string {
	n := int(total*barWidth + 0.5)
	if n > 3*barWidth {
		n = 3 * barWidth
	}
	b := int(busyFrac*float64(n) + 0.5)
	return strings.Repeat("#", b) + strings.Repeat(".", n-b)
}

// RenderGrid prints a Figures 9/10/11-style chart: per application, one bar
// per scheme, normalized to the first scheme of the grid, annotated with
// the speedup over sequential execution ("#" is Busy, "." is Stall).
func RenderGrid(w io.Writer, g *Grid, title string) {
	fmt.Fprintf(w, "%s  [machine %s]\n", title, g.Machine)
	fmt.Fprintf(w, "normalized execution time (vs %v = 1.00); # busy, . stall; speedup over sequential at right\n\n",
		g.Schemes[0])
	for _, app := range g.Apps {
		base := g.Cell(app, g.Schemes[0]).Result.ExecCycles
		fmt.Fprintf(w, "%s\n", app)
		for _, sch := range g.Schemes {
			c := g.Cell(app, sch)
			norm := c.Normalized(base)
			fmt.Fprintf(w, "  %-22s %5.2f |%-*s| %5.2fx\n",
				sch.String(), norm, barWidth, bar(c.Result.Agg.BusyFraction(), norm), c.Speedup())
		}
		fmt.Fprintln(w)
	}
}

// RenderAverages prints per-scheme averages across the applications of a
// grid (normalized to the first scheme), mirroring the "Average" group of
// Figures 9 and 11.
func RenderAverages(w io.Writer, g *Grid) {
	fmt.Fprintf(w, "Average over %d applications\n", len(g.Apps))
	for _, sch := range g.Schemes {
		sum := 0.0
		for _, app := range g.Apps {
			base := g.Cell(app, g.Schemes[0]).Result.ExecCycles
			sum += g.Cell(app, sch).Normalized(base)
		}
		avg := sum / float64(len(g.Apps))
		fmt.Fprintf(w, "  %-22s %5.2f |%-*s|\n", sch.String(), avg, barWidth, bar(0, avg))
	}
	fmt.Fprintln(w)
}

// RenderFigure1 prints Figure 1-(a): the application characteristics that
// illustrate the challenges of buffering.
func RenderFigure1(w io.Writer, chars []AppCharacterization) {
	fmt.Fprintln(w, "Figure 1-(a). Application characteristics (measured, MultiT&MV Eager, NUMA16)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s  %22s  %28s\n", "", "Average # Spec Tasks", "Avg Written Footprint/Task")
	fmt.Fprintf(w, "%-8s  %10s %11s  %13s %14s\n", "Appl", "In System", "Per Proc", "Total (KB)", "Priv (%)")
	for _, c := range chars {
		fmt.Fprintf(w, "%-8s  %10.1f %11.1f  %13.2f %14.1f\n",
			c.Profile.Name, c.SpecTasksSystem, c.SpecTasksPerProc, c.FootprintKB, c.PrivPct)
	}
	fmt.Fprintln(w)
}

// RenderTable3 prints Table 3: per-application characteristics including
// the measured Commit/Execution ratios on both machines, next to the
// paper's published values.
func RenderTable3(w io.Writer, chars []AppCharacterization) {
	fmt.Fprintln(w, "Table 3. Application characteristics")
	fmt.Fprintln(w, "(C/E = Commit/Execution ratio %, measured under MultiT&MV Eager; paper values in parentheses)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s %8s %9s %14s %14s %9s %6s %6s %9s\n",
		"Appl", "Tasks", "Instr/T", "C/E NUMA", "C/E CMP", "Squash/T", "Imbal", "Priv", "CommitQ")
	for _, c := range chars {
		p := c.Profile
		fmt.Fprintf(w, "%-8s %8d %9d %6.1f (%4.1f) %6.1f (%4.1f) %9.3f %6s %6s %9s\n",
			p.Name, p.Tasks, p.InstrPerTask,
			c.CENuma, p.PaperCENuma, c.CECmp, p.PaperCECmp,
			c.SquashRate, p.QualImbalance, p.QualPriv, p.QualCommit)
	}
	fmt.Fprintln(w)
}

// RenderTable1 prints Table 1: the support mechanisms.
func RenderTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1. Different supports required")
	fmt.Fprintln(w)
	for _, s := range core.AllSupports() {
		fmt.Fprintf(w, "  %-5s  %s\n", s, s.Description())
	}
	fmt.Fprintln(w)
}

// RenderTable2 prints Table 2: the upgrade path with benefits and supports.
func RenderTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2. Benefits obtained and support required for each mechanism")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-38s  %-68s  %s\n", "Upgrade", "Performance Benefit", "Additional Support")
	for _, step := range core.UpgradePath() {
		var supports []string
		for _, sup := range step.Added {
			supports = append(supports, sup.String())
		}
		fmt.Fprintf(w, "%-38s  %-68s  %s\n",
			fmt.Sprintf("%v -> %v", step.From, step.To), step.Benefit, strings.Join(supports, "+"))
	}
	fmt.Fprintln(w)
}

// RenderFigure2 prints the taxonomy grid of Figure 2-(a).
func RenderFigure2(w io.Writer) {
	fmt.Fprintln(w, "Figure 2-(a). Taxonomy of approaches to buffer and manage speculative memory state")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-22s | %-14s %-14s %-14s\n", "Separation \\ Merging", "Eager AMM", "Lazy AMM", "FMM")
	fmt.Fprintln(w, strings.Repeat("-", 70))
	for _, sep := range []core.Separation{core.MultiTMV, core.MultiTSV, core.SingleT} {
		var cells []string
		for _, m := range core.Mergings() {
			s := core.Scheme{Sep: sep, Merge: m}
			if s.Interesting() {
				cells = append(cells, "modelled")
			} else {
				cells = append(cells, "(shaded)")
			}
		}
		fmt.Fprintf(w, "%-22s | %-14s %-14s %-14s\n", sep, cells[0], cells[1], cells[2])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "AMM buffering forms a distributed memory-system reorder buffer (MROB);")
	fmt.Fprintln(w, "FMM buffering forms a distributed memory-system history buffer (MHB).")
	fmt.Fprintln(w)
}

// RenderFigure4 prints the mapping of existing schemes onto the taxonomy.
func RenderFigure4(w io.Writer) {
	fmt.Fprintln(w, "Figure 4. Mapping existing schemes onto the taxonomy")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-30s %-11s %-11s %s\n", "Scheme", "Separation", "Merging", "Speculative state buffered in")
	for _, e := range core.ExistingSchemes() {
		merge := e.Merge.String()
		switch {
		case e.CoarseRecovery:
			merge = "coarse rec."
		case e.MergeNA:
			merge = "(n/a)"
		}
		fmt.Fprintf(w, "%-30s %-11s %-11s %s\n", e.Name, e.Sep, merge, e.Buffering)
	}
	fmt.Fprintln(w)
}

// RenderFigure8 prints the per-scheme limiting application characteristics.
func RenderFigure8(w io.Writer) {
	fmt.Fprintln(w, "Figure 8. Application characteristics that limit performance in each scheme")
	fmt.Fprintln(w)
	for _, s := range core.AllSchemes() {
		if s.SoftwareLog {
			continue
		}
		var limits []string
		for _, l := range core.Limits(s) {
			limits = append(limits, string(l))
		}
		fmt.Fprintf(w, "%-22s  %s\n", s, strings.Join(limits, "; "))
	}
	fmt.Fprintln(w)
}

// RenderSummary prints the Section 5.4 averages next to the paper's.
func RenderSummary(w io.Writer, s Summary, paperMV, paperLazySimple, paperLazyMV float64) {
	fmt.Fprintf(w, "Section 5.4 summary on %s (average execution-time reduction, measured vs paper)\n", s.Machine)
	fmt.Fprintf(w, "  multiple tasks&versions over SingleT (Eager): %5.1f%%  (paper %.0f%%)\n",
		s.MultiTMVOverSingleTPct, paperMV)
	fmt.Fprintf(w, "  laziness on the simpler schemes:               %5.1f%%  (paper %.0f%%)\n",
		s.LazinessSimplePct, paperLazySimple)
	fmt.Fprintf(w, "  laziness on MultiT&MV:                         %5.1f%%  (paper %.0f%%)\n",
		s.LazinessMultiTMVPct, paperLazyMV)
	fmt.Fprintln(w)
}

// RenderChecks prints qualitative-claim verdicts.
func RenderChecks(w io.Writer, checks []ExpectationCheck) {
	for _, c := range checks {
		mark := "PASS"
		if !c.Holds {
			mark = "MISS"
		}
		if c.Note != "" {
			fmt.Fprintf(w, "  [%s] %s (%s)\n", mark, c.Claim, c.Note)
		} else {
			fmt.Fprintf(w, "  [%s] %s\n", mark, c.Claim)
		}
	}
	fmt.Fprintln(w)
}
