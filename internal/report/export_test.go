package report

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

func exportGrid(t *testing.T) *Grid {
	t.Helper()
	return RunGrid(machine.CMP8(), []core.Scheme{core.SingleTEager, core.MultiTMVLazy},
		Options{Apps: fastApps()[:2], Seed: 21})
}

func TestExportGridCSV(t *testing.T) {
	g := exportGrid(t)
	var buf bytes.Buffer
	if err := ExportGridCSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + 2 apps x 2 schemes.
	if len(rows) != 1+4 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if rows[0][0] != "machine" || rows[0][len(rows[0])-1] != "oracle_violations" {
		t.Fatalf("header wrong: %v", rows[0])
	}
	for _, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			t.Fatalf("ragged row: %v", row)
		}
		if row[0] != "CMP8" {
			t.Errorf("machine column = %q", row[0])
		}
		exec, err := strconv.ParseUint(row[3], 10, 64)
		if err != nil || exec == 0 {
			t.Errorf("exec_cycles column bad: %q", row[3])
		}
		// Stall fractions sum to ~1 with busy.
		sum := 0.0
		for _, col := range row[7:13] {
			v, err := strconv.ParseFloat(col, 64)
			if err != nil {
				t.Fatalf("fraction column bad: %q", col)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("breakdown fractions sum to %f", sum)
		}
		if row[len(row)-1] != "0" {
			t.Errorf("oracle violations nonzero: %q", row[len(row)-1])
		}
	}
	// The base scheme normalizes to 1.
	if rows[1][5] != "1" {
		t.Errorf("first scheme normalized = %q, want 1", rows[1][5])
	}
}

func TestExportCharacterizationCSV(t *testing.T) {
	chars := Characterize(Options{Apps: fastApps()[:1], Seed: 23})
	var buf bytes.Buffer
	if err := ExportCharacterizationCSV(&buf, chars); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1][0] != "Tree" {
		t.Fatalf("app column = %q", rows[1][0])
	}
}

func TestExportTraceCSV(t *testing.T) {
	gen := workload.NewGenerator(MicroWorkload(4), 5)
	s := sim.New(MicroMachine(2), core.SingleTEager, gen)
	s.EnableTrace()
	r := s.Run()
	var buf bytes.Buffer
	if err := ExportTraceCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 1+4*4 { // at least start/finish/commit-start/commit-end per task
		t.Fatalf("trace rows = %d", len(rows))
	}
	// Events sorted by time.
	prev := uint64(0)
	for _, row := range rows[1:] {
		when, err := strconv.ParseUint(row[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if when < prev {
			t.Fatal("trace not sorted by time")
		}
		prev = when
	}
}

func TestRenderGridSVG(t *testing.T) {
	g := exportGrid(t)
	var buf bytes.Buffer
	if err := RenderGridSVG(&buf, g, "Figure 9 <test>"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<svg", "</svg>", "Figure 9 &lt;test&gt;", "MultiT&amp;MV Lazy AMM", "<rect",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Count(out, "<rect") != 2*len(g.Apps)*len(g.Schemes) {
		t.Errorf("bar count wrong: %d rects", strings.Count(out, "<rect"))
	}
	// Well-formed XML-ish: no stray unescaped ampersands outside entities.
	for i := 0; i < len(out); i++ {
		if out[i] == '&' {
			rest := out[i:]
			if !strings.HasPrefix(rest, "&amp;") && !strings.HasPrefix(rest, "&lt;") &&
				!strings.HasPrefix(rest, "&gt;") && !strings.HasPrefix(rest, "&#160;") {
				t.Fatalf("unescaped ampersand at %d: %q", i, rest[:10])
			}
		}
	}
}

func TestRenderScalabilitySVG(t *testing.T) {
	pts := []ScalabilityPoint{
		{Procs: 4, SingleTEager: 1, SingleTLazy: 0.9, MultiTMVE: 0.8, MultiTMVL: 0.82},
		{Procs: 16, SingleTEager: 1, SingleTLazy: 0.8, MultiTMVE: 0.9, MultiTMVL: 0.7},
	}
	var buf bytes.Buffer
	if err := RenderScalabilitySVG(&buf, pts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "16 procs") || !strings.Contains(out, "MultiT&amp;MV Lazy") {
		t.Fatal("scalability SVG incomplete")
	}
}
