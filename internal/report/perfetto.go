package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sim"
)

// Perfetto / Chrome trace-event export: one traced simulation run mapped
// onto trace.Event records, written by the one trace-event writer in
// internal/obs/trace. The layout is:
//
//   - one process (pid 0) named after the run;
//   - one "exec" thread lane per processor (tid = proc) carrying complete
//     ("X") slices for task executions, and one "commit" lane per processor
//     (tid = commitLaneBase + proc) carrying commit slices — separate lanes
//     because commit merging overlaps the next task's execution;
//   - squashes as instant ("i") events on the victim's exec lane plus a
//     flow arrow ("s"/"f") from the violating writer's lane to the victim,
//     so dependence chains render as arrows;
//   - the obs gauge series as counter ("C") tracks.
//
// Timestamps are simulated cycles emitted as microseconds (the format's ts
// unit); durations likewise. The export is deterministic: events are
// emitted in a fixed order derived from the trace and series alone.

// commitLaneBase offsets commit-lane thread IDs away from exec-lane ones.
const commitLaneBase = 1000

// ExportPerfetto writes run r (traced via EnableTrace) and the optional obs
// gauge series as Chrome trace-event JSON.
func ExportPerfetto(w io.Writer, r sim.Result, series obs.Series) error {
	nprocs := len(r.PerProc)
	label := fmt.Sprintf("%s/%s/%v", r.Machine, r.App, r.Scheme)
	evs := []trace.Event{trace.LaneName("process_name", 0, 0, label)}
	for p := 0; p < nprocs; p++ {
		evs = append(evs,
			trace.LaneName("thread_name", 0, p, fmt.Sprintf("proc %d exec", p)),
			trace.LaneName("thread_name", 0, commitLaneBase+p, fmt.Sprintf("proc %d commit", p)),
		)
	}

	// Task execution and commit slices. The trace is scanned in order; an
	// open start per task is closed by the matching finish/squash (exec) or
	// commit-end (commit). Squashes additionally emit an instant on the
	// victim lane and a flow arrow from the writer's lane when attributed.
	openExec := map[ids.TaskID]sim.TraceEvent{}
	openCommit := map[ids.TaskID]sim.TraceEvent{}
	procOf := map[ids.TaskID]ids.ProcID{}
	flowID := 0
	for _, e := range r.Trace {
		switch e.Kind {
		case sim.TraceStart:
			openExec[e.Task] = e
			procOf[e.Task] = e.Proc
		case sim.TraceFinish, sim.TraceSquash:
			if st, ok := openExec[e.Task]; ok {
				delete(openExec, e.Task)
				name := "task " + e.Task.String()
				cat := "exec"
				if e.Kind == sim.TraceSquash {
					cat = "squashed"
				}
				evs = append(evs, trace.Event{
					Name: name, Cat: cat, Ph: "X",
					Ts: uint64(st.When), Dur: uint64(e.When - st.When),
					Pid: 0, Tid: int(e.Proc),
				})
			}
			if e.Kind == sim.TraceSquash {
				evs = append(evs, trace.Event{
					Name: "squash " + e.Task.String(), Cat: "squash", Ph: "i",
					Ts: uint64(e.When), Pid: 0, Tid: int(e.Proc), S: "t",
					Args: map[string]any{
						"word":   uint64(e.Word),
						"writer": e.Writer.String(),
						"wasted": uint64(e.Wasted),
					},
				})
				if wp, ok := procOf[e.Writer]; ok && e.Writer != ids.None {
					flowID++
					evs = trace.AppendFlow(evs, "raw", "squash", strconv.Itoa(flowID), []trace.Event{
						{Ts: uint64(e.When), Pid: 0, Tid: int(wp)},
						{Ts: uint64(e.When), Pid: 0, Tid: int(e.Proc)},
					})
				}
			}
		case sim.TraceCommitStart:
			openCommit[e.Task] = e
		case sim.TraceCommitEnd:
			if st, ok := openCommit[e.Task]; ok {
				delete(openCommit, e.Task)
				evs = append(evs, trace.Event{
					Name: "commit " + e.Task.String(), Cat: "commit", Ph: "X",
					Ts: uint64(st.When), Dur: uint64(e.When - st.When),
					Pid: 0, Tid: commitLaneBase + int(e.Proc),
				})
			}
		}
	}

	// Counter tracks from the gauge series: one track per source, one "C"
	// event per sample.
	for col, name := range series.Names {
		for _, row := range series.Samples {
			evs = append(evs, trace.Event{
				Name: name, Cat: "gauge", Ph: "C", Ts: row.Cycle, Pid: 0, Tid: 0,
				Args: map[string]any{"value": row.Values[col]},
			})
		}
	}
	return trace.WriteEvents(w, evs)
}

// PerfettoStats summarizes a validated trace-event file.
type PerfettoStats struct {
	Events        int
	Slices        int // complete "X" events
	Instants      int
	FlowStarts    int
	FlowEnds      int
	CounterEvents int
	CounterTracks int // distinct counter names
	ExecLanes     int // distinct exec lanes (pid, tid) carrying slices
	Metadata      int
	Processes     int // distinct pids (1 for a sim export, one per fleet process)
	SpanIDs       int // distinct args.span correlation IDs
}

// ValidatePerfetto parses trace-event JSON produced by ExportPerfetto, the
// fleet exporter (trace.ExportPerfetto), or any conforming producer and
// checks its schema: a traceEvents array whose records carry a known phase,
// with non-negative ts and dur, and flow events paired by (cat, id): each
// id has exactly one "s" and one "f", and its "t" steps, if any, share the
// id of that "s". It reads generic JSON, never the writer's trace.Event, so
// a writer bug cannot hide behind a shared type. It understands both the
// single-process sim layout (pid 0, commit lanes offset by commitLaneBase)
// and the multi-process fleet layout (one pid per coordinator/worker):
// exec lanes are keyed by (pid, tid), and span correlation IDs stamped in
// args.span must be unique across the whole file — a duplicate means two
// processes minted colliding IDs and the merged trace is untrustworthy. It
// returns per-phase statistics for further assertions.
func ValidatePerfetto(r io.Reader) (PerfettoStats, error) {
	var st PerfettoStats
	var f struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return st, fmt.Errorf("report: perfetto: parsing: %w", err)
	}
	if f.TraceEvents == nil {
		return st, fmt.Errorf("report: perfetto: no traceEvents array")
	}
	counters := map[string]bool{}
	type lane struct{ pid, tid int }
	execLanes := map[lane]bool{}
	pids := map[int]bool{}
	spans := map[string]int{} // span ID -> first event index
	type flowKey struct{ cat, id string }
	flows := map[flowKey]map[string]int{} // phase counts per flow
	var flowKeys []flowKey                // in order of first appearance
	for i, ev := range f.TraceEvents {
		var ph string
		if raw, ok := ev["ph"]; !ok || json.Unmarshal(raw, &ph) != nil {
			return st, fmt.Errorf("report: perfetto: event %d: missing phase", i)
		}
		name := ""
		if raw, ok := ev["name"]; ok {
			if err := json.Unmarshal(raw, &name); err != nil {
				return st, fmt.Errorf("report: perfetto: event %d: bad name: %v", i, err)
			}
		}
		pid := 0
		if raw, ok := ev["pid"]; ok {
			if err := json.Unmarshal(raw, &pid); err != nil {
				return st, fmt.Errorf("report: perfetto: event %d: bad pid: %v", i, err)
			}
		}
		pids[pid] = true
		if ph != "M" { // metadata events carry no timestamp requirement
			var ts float64
			if raw, ok := ev["ts"]; !ok || json.Unmarshal(raw, &ts) != nil {
				return st, fmt.Errorf("report: perfetto: event %d (%s): missing ts", i, ph)
			} else if ts < 0 {
				return st, fmt.Errorf("report: perfetto: event %d (%s): negative ts", i, ph)
			}
		}
		if raw, ok := ev["dur"]; ok {
			var dur float64
			if json.Unmarshal(raw, &dur) != nil || dur < 0 {
				return st, fmt.Errorf("report: perfetto: event %d (%s): bad or negative dur %s", i, ph, raw)
			}
		}
		if raw, ok := ev["args"]; ok {
			var args struct {
				Span string `json:"span"`
			}
			if json.Unmarshal(raw, &args) == nil && args.Span != "" {
				if first, dup := spans[args.Span]; dup {
					return st, fmt.Errorf("report: perfetto: event %d: span ID %s duplicates event %d — cross-process ID collision", i, args.Span, first)
				}
				spans[args.Span] = i
			}
		}
		st.Events++
		switch ph {
		case "X":
			st.Slices++
			var tid int
			if raw, ok := ev["tid"]; ok && json.Unmarshal(raw, &tid) == nil && tid < commitLaneBase {
				execLanes[lane{pid, tid}] = true
			}
		case "i", "I":
			st.Instants++
		case "s", "t", "f":
			k := flowKey{string(ev["cat"]), string(ev["id"])}
			if flows[k] == nil {
				flows[k] = map[string]int{}
				flowKeys = append(flowKeys, k)
			}
			flows[k][ph]++
		case "C":
			st.CounterEvents++
			counters[name] = true
		case "M":
			st.Metadata++
		case "B", "E", "b", "e", "n":
			// Legal phases we don't emit; accept them.
		default:
			return st, fmt.Errorf("report: perfetto: event %d: unknown phase %q", i, ph)
		}
	}
	for _, k := range flowKeys {
		n := flows[k]
		st.FlowStarts += n["s"]
		st.FlowEnds += n["f"]
		if n["s"] != 1 || n["f"] != 1 {
			return st, fmt.Errorf("report: perfetto: flow cat %s id %s: %d starts, %d steps, %d ends; want one start and one end", k.cat, k.id, n["s"], n["t"], n["f"])
		}
	}
	st.CounterTracks = len(counters)
	st.ExecLanes = len(execLanes)
	st.Processes = len(pids)
	st.SpanIDs = len(spans)
	return st, nil
}
