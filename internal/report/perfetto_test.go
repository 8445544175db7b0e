package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func perfettoRun(t *testing.T) (sim.Result, obs.Series) {
	t.Helper()
	p := workload.Euler().Scale(0.1, 0.1, 0.25)
	p.DepProb = 0.3
	s := sim.New(machine.CMP8(), core.MultiTMVEager, workload.NewGenerator(p, 99))
	s.EnableTrace()
	s.Observe(obs.Config{Registry: obs.NewRegistry(), SamplePeriod: 500})
	r := s.Run()
	if r.TasksSquashed == 0 {
		t.Fatal("workload produced no squashes; flow arrows untestable")
	}
	return r, s.Sampled()
}

// TestExportPerfettoSchema is the acceptance check for the Perfetto export:
// the emitted JSON validates as trace-event JSON and contains per-processor
// task lanes, at least 4 counter tracks, and squash flow events.
func TestExportPerfettoSchema(t *testing.T) {
	r, series := perfettoRun(t)
	var buf bytes.Buffer
	if err := ExportPerfetto(&buf, r, series); err != nil {
		t.Fatal(err)
	}
	st, err := ValidatePerfetto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("export does not validate: %v", err)
	}
	if st.ExecLanes != len(r.PerProc) {
		t.Errorf("exec lanes = %d, want one per processor (%d)", st.ExecLanes, len(r.PerProc))
	}
	if st.CounterTracks < 4 {
		t.Errorf("counter tracks = %d, want >= 4", st.CounterTracks)
	}
	if st.FlowStarts == 0 {
		t.Error("no squash flow events emitted")
	}
	if st.Instants == 0 {
		t.Error("no squash instants emitted")
	}
	if st.Slices == 0 || st.Metadata == 0 || st.CounterEvents == 0 {
		t.Errorf("missing event classes: %+v", st)
	}

	// Determinism: exporting the same run twice is byte-identical.
	var again bytes.Buffer
	if err := ExportPerfetto(&again, r, series); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("perfetto export is not deterministic")
	}
}

func TestValidatePerfettoRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":       "perfetto?",
		"no traceEvents": `{"foo": []}`,
		"bad phase":      `{"traceEvents":[{"ph":"Z","ts":1,"pid":0,"tid":0}]}`,
		"missing ts":     `{"traceEvents":[{"ph":"X","pid":0,"tid":0}]}`,
		"unpaired flow":  `{"traceEvents":[{"ph":"s","id":"1","ts":1,"pid":0,"tid":0}]}`,
		"duplicate span across processes": `{"traceEvents":[
			{"ph":"X","ts":1,"dur":2,"pid":0,"tid":0,"args":{"span":"42"}},
			{"ph":"i","ts":5,"pid":1,"tid":0,"s":"t","args":{"span":"42"}}]}`,
		"flow ids do not pair": `{"traceEvents":[
			{"ph":"s","cat":"a","id":"1","ts":1,"pid":0,"tid":0},
			{"ph":"f","cat":"a","id":"2","bp":"e","ts":2,"pid":0,"tid":0}]}`,
		"negative dur":   `{"traceEvents":[{"ph":"X","ts":1,"dur":-3,"pid":0,"tid":0}]}`,
		"lone flow step": `{"traceEvents":[{"ph":"t","cat":"a","id":"9","ts":1,"pid":0,"tid":0}]}`,
	}
	for name, in := range cases {
		if _, err := ValidatePerfetto(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated but should not", name)
		}
	}
}

// TestValidatePerfettoMultiProcess checks the fleet layout: one pid per
// process, exec lanes keyed by (pid, tid) so same-numbered tids on
// different pids count separately, and distinct span IDs tallied.
func TestValidatePerfettoMultiProcess(t *testing.T) {
	in := `{"traceEvents":[
		{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"coordinator"}},
		{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"worker-1"}},
		{"ph":"X","ts":0,"dur":3,"pid":0,"tid":0,"args":{"span":"1"}},
		{"ph":"X","ts":1,"dur":2,"pid":1,"tid":0,"args":{"span":"4294967297"}},
		{"ph":"s","id":"7","cat":"fleet-flow","ts":0,"pid":0,"tid":0},
		{"ph":"f","id":"7","cat":"fleet-flow","bp":"e","ts":3,"pid":1,"tid":0}]}`
	st, err := ValidatePerfetto(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if st.Processes != 2 {
		t.Errorf("processes = %d, want 2", st.Processes)
	}
	if st.ExecLanes != 2 {
		t.Errorf("exec lanes = %d, want 2 (tid 0 on two pids)", st.ExecLanes)
	}
	if st.SpanIDs != 2 {
		t.Errorf("span IDs = %d, want 2", st.SpanIDs)
	}
}

func TestExportSquashHotspotsCSV(t *testing.T) {
	r, _ := perfettoRun(t)
	var buf bytes.Buffer
	if err := ExportSquashHotspotsCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("no hotspot rows:\n%s", buf.String())
	}
	if lines[0] != "word,squashes,wasted_cycles,max_distance,sample_writer,sample_reader" {
		t.Fatalf("unexpected header %q", lines[0])
	}
}
