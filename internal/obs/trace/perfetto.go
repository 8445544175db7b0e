package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// This file is the repo's one writer of Chrome/Perfetto trace-event JSON
// (the "JSON Object Format" both chrome://tracing and ui.perfetto.dev
// load): the Event record, its encoder, and the metadata and flow-arrow
// builders. Two layouts map onto it. report.ExportPerfetto renders one
// simulation's cycle domain into a single pid; ExportPerfetto below renders
// a merged fleet span set with one pid per fleet process lane (the
// coordinator plus each worker), one tid per span kind inside it, and flow
// arrows stitching lease→attempt→complete chains across processes wherever
// spans share a Flow tag (the lease ID), all on one wall-clock axis.
// report.ValidatePerfetto is the independent reader of both.

// Event is one trace-event record. Field names follow the format; Ts and
// Dur are µs (wall-clock µs for fleet spans, simulated cycles for a
// simulation timeline).
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`  // instant scope
	BP   string         `json:"bp,omitempty"` // flow binding point
	Args map[string]any `json:"args,omitempty"`
}

// WriteEvents writes evs as one compact trace-event JSON document.
func WriteEvents(w io.Writer, evs []Event) error {
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []Event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
}

// LaneName returns the metadata event that labels a lane: meta is
// "process_name" (naming pid) or "thread_name" (naming pid's tid).
func LaneName(meta string, pid, tid int, name string) Event {
	return Event{Name: meta, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
}

// AppendFlow appends one flow arrow chained through the slices in chain
// (only their Ts, Dur, Pid and Tid are read): an "s" at the first slice's
// start, a "t" at each middle slice's start, and an "f" bound to the
// enclosing slice at the last one's end. Perfetto pairs the events by cat
// plus id.
func AppendFlow(evs []Event, name, cat, id string, chain []Event) []Event {
	for i, sl := range chain {
		ev := Event{Name: name, Cat: cat, Ph: "t", Ts: sl.Ts, Pid: sl.Pid, Tid: sl.Tid, ID: id}
		switch i {
		case 0:
			ev.Ph = "s"
		case len(chain) - 1:
			ev.Ph, ev.BP, ev.Ts = "f", "e", sl.Ts+sl.Dur
		}
		evs = append(evs, ev)
	}
	return evs
}

// flowCat is the category carried by every cross-process flow arrow; start
// and finish events must agree on cat+id for Perfetto to draw the arrow.
const flowCat = "fleet-flow"

// lanes fixes the top-to-bottom lane layout inside each process: the
// coordinator's decision lanes first, then the runner's execution lanes.
// Kinds not listed share the last, "events" lane rather than spawning one
// lane each.
var lanes = [...]string{KindQueue, KindLease, KindSteal, KindComplete,
	KindAttempt, KindCacheHit, KindQuarantine, "events"}

func laneOf(kind string) int {
	for i, k := range lanes[:len(lanes)-1] {
		if k == kind {
			return i
		}
	}
	return len(lanes) - 1
}

// ExportPerfetto writes the merged fleet trace for spans collected from any
// number of fleet processes. Spans are grouped into one Perfetto process per
// Span.Proc (the coordinator lane sorts first when its name is coordProc;
// pass "" to sort all lanes alphabetically), one named thread per span kind,
// and flow arrows connect spans sharing a nonzero Flow tag in start-time
// order. Timestamps are normalized so the earliest span starts at 0.
func ExportPerfetto(w io.Writer, coordProc string, spans []Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("trace: no spans to export")
	}

	// Render spans in a deterministic order (start, then ID) regardless of
	// the merge order the coordinator collected them in. Fleet spans carry
	// µs-since-epoch stamps that dwarf the trace's extent, so the first
	// span's start becomes 0.
	ordered := append([]Span(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].ID < ordered[j].ID
	})
	base := ordered[0].Start

	// Deterministic process lanes: coordinator first, workers alphabetical;
	// one thread per (proc, kind lane), numbered in lane-table order so the
	// layout survives re-export.
	type lane struct {
		proc string
		kind int
	}
	pidOf := make(map[string]int)
	tidOf := make(map[lane]int)
	var procs []string
	for _, sp := range ordered {
		if _, seen := pidOf[sp.Proc]; !seen {
			pidOf[sp.Proc] = 0
			procs = append(procs, sp.Proc)
		}
		tidOf[lane{sp.Proc, laneOf(sp.Kind)}] = 0
	}
	sort.Slice(procs, func(i, j int) bool {
		if (procs[i] == coordProc) != (procs[j] == coordProc) {
			return procs[i] == coordProc
		}
		return procs[i] < procs[j]
	})
	var events []Event
	for pid, p := range procs {
		pidOf[p] = pid
		events = append(events, LaneName("process_name", pid, 0, p))
		tid := 0
		for k, name := range lanes {
			if _, used := tidOf[lane{p, k}]; used {
				tidOf[lane{p, k}] = tid
				events = append(events, LaneName("thread_name", pid, tid, name))
				tid++
			}
		}
	}

	flows := make(map[uint64][]Event)
	for _, sp := range ordered {
		args := map[string]any{"span": strconv.FormatUint(sp.ID, 10)}
		if sp.Campaign != "" {
			args["campaign"] = sp.Campaign
		}
		if sp.Key != "" {
			args["key"] = sp.Key
		}
		if sp.Attempt != 0 {
			args["attempt"] = sp.Attempt
		}
		if sp.Flow != 0 {
			args["flow"] = strconv.FormatUint(sp.Flow, 10)
		}
		if sp.Err != "" {
			args["err"] = sp.Err
		}
		if sp.Note != "" {
			args["note"] = sp.Note
		}
		ev := Event{
			Name: sp.Name, Cat: sp.Kind, Ph: "i", S: "t", Ts: uint64(sp.Start - base),
			Pid: pidOf[sp.Proc], Tid: tidOf[lane{sp.Proc, laneOf(sp.Kind)}], Args: args,
		}
		if sp.Dur > 0 {
			ev.Ph, ev.S, ev.Dur = "X", "", uint64(sp.Dur)
		}
		events = append(events, ev)
		if sp.Flow != 0 {
			flows[sp.Flow] = append(flows[sp.Flow], ev)
		}
	}

	// Flow arrows: each Flow tag's spans, already in time order, become one
	// s → t... → f chain. A chain needs at least two spans to draw.
	flowIDs := make([]uint64, 0, len(flows))
	for id, chain := range flows {
		if len(chain) >= 2 {
			flowIDs = append(flowIDs, id)
		}
	}
	sort.Slice(flowIDs, func(i, j int) bool { return flowIDs[i] < flowIDs[j] })
	for _, id := range flowIDs {
		events = AppendFlow(events, "lease-flow", flowCat, strconv.FormatUint(id, 10), flows[id])
	}
	return WriteEvents(w, events)
}
