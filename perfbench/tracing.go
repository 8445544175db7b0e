package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tracer records the traced run's spans through internal/obs/trace, one
// Perfetto process lane per layer. A nil *tracer records nothing.
type tracer struct{ t *trace.Tracer }

func newTracer() *tracer {
	t := trace.New("perfbench")
	t.Retain()
	return &tracer{t}
}

// span runs fn inside a span named name on the proc lane, under parent. fn
// receives the span's ID so the spans it causes can hang under it.
func (tr *tracer) span(parent uint64, proc, name string, fn func(id uint64)) {
	if tr == nil {
		fn(0)
		return
	}
	id := tr.t.NextID()
	start := tr.t.Now()
	fn(id)
	tr.t.Since(start, trace.Span{ID: id, Parent: parent, Name: name, Proc: proc})
}

func (tr *tracer) emit(sp trace.Span) {
	if tr != nil {
		tr.t.Emit(sp)
	}
}

// taskSource is what the benchmark simulates: a workload with a
// sequential-order oracle whose Task may run on several goroutines at once,
// as workload.Generator is.
type taskSource interface {
	sim.Workload
	sim.OrderOracle
	sim.ConcurrentWorkload
}

// timedWorkload wraps a taskSource so the traced run times and counts every
// Task call. Embedding forwards SequentialOrderOracle and
// ConcurrentTaskSafe: without them the simulator would silently skip
// oracle verification and the parallel core its prefetcher, and the traced
// run would measure another program.
type timedWorkload struct {
	taskSource
	tr     *tracer
	parent atomic.Uint64 // span the Task calls belong to
	off    atomic.Bool   // once set, calls pass through uncounted

	calls, distinct, ops, nanos atomic.Int64
	called                      []atomic.Bool // per task index
}

func newTimedWorkload(src taskSource, tr *tracer) *timedWorkload {
	return &timedWorkload{taskSource: src, tr: tr, called: make([]atomic.Bool, src.NumTasks())}
}

func (w *timedWorkload) Task(index int, buf []workload.Op) ([]workload.Op, int) {
	if w.off.Load() {
		return w.taskSource.Task(index, buf)
	}
	start := time.Now()
	ops, instr := w.taskSource.Task(index, buf)
	d := time.Since(start)
	w.calls.Add(1)
	w.ops.Add(int64(len(ops)))
	w.nanos.Add(int64(d))
	if !w.called[index].Swap(true) {
		w.distinct.Add(1)
	}
	w.tr.emit(trace.Span{
		Parent: w.parent.Load(), Name: "workload.Task", Proc: "workload",
		Start: start.UnixMicro(), Dur: d.Microseconds(),
	})
	return ops, instr
}

func (w *timedWorkload) setParent(id uint64) {
	if w != nil {
		w.parent.Store(id)
	}
}

func (w *timedWorkload) stop() {
	if w != nil {
		w.off.Store(true)
	}
}

// count adds the workload layer's metrics.
func (w *timedWorkload) count(m map[string]float64) {
	calls, ops, secs := float64(w.calls.Load()), float64(w.ops.Load()), float64(w.nanos.Load())/1e9
	m["workload.task_calls"] = calls
	m["workload.redo_frac"] = ratio(calls-float64(w.distinct.Load()), calls)
	m["workload.ops"] = ops
	m["workload.task_s"] = secs
	m["workload.ns_per_op"] = ratio(secs*1e9, ops)
}

// measureTraced runs one untraced operation as the reference, then one
// traced operation — spans, CPU profile, observability registry, invariant
// checks — and reports the per-layer metrics of the traced one. The run is
// correct only if both operations pass their checks, their results are
// reflect.DeepEqual, and the exported Perfetto trace validates.
func measureTraced(wl bench, cfg config, log io.Writer) (*summary, error) {
	op, err := wl.setup(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	ref, refOC := timeOp(op)
	op.close()

	tr := newTracer()
	if op, err = wl.setup(cfg, tr); err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", wl.name, err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		op.close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var wall time.Duration
	tr.span(0, "perfbench", "perfbench.op", func(id uint64) {
		start := time.Now()
		op.run(id)
		wall = time.Since(start)
	})
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	oc := op.check(wall)
	op.close()

	rep := &summary{
		Attempted: refOC.sims + oc.sims,
		Failed:    refOC.failed + oc.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(log, "untraced op: wall %.4f s, digest %s\ntraced op:   wall %.4f s, digest %s\n",
		ref.Wall.Seconds(), refOC.digest, wall.Seconds(), oc.digest)
	for _, f := range append(refOC.failures, oc.failures...) {
		fmt.Fprintf(log, "  failure: %s\n", f)
	}
	same := reflect.DeepEqual(refOC.results, oc.results)
	if !same {
		fmt.Fprintln(log, "  traced results differ from the untraced run's")
	}

	m := oc.layers
	spans := tr.t.Drain()
	addSpanMetrics(m, spans)
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for layer, share := range shares {
		m[layer+".cpu_share"] = share
	}
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["trace.overhead_frac"] = wall.Seconds()/ref.Wall.Seconds() - 1

	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", wl.name, cfg.seed))
	valid := true
	if err := writePerfetto(path, spans); err != nil {
		fmt.Fprintf(log, "  perfetto trace: %v\n", err)
		valid = false
	} else {
		fmt.Fprintf(log, "perfetto trace of %d spans: %s\n", len(spans), path)
	}
	rep.Correct = rep.Failed == 0 && same && refOC.digest == oc.digest && valid

	for _, d := range perLayer {
		rep.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	return rep, nil
}

// addSpanMetrics adds the metrics the traced run's spans give: simulation
// time and the self time of serial speculative runs and of rendering.
func addSpanMetrics(m map[string]float64, spans []trace.Span) {
	total := map[string]float64{}
	for _, sp := range spans {
		total[sp.Name] += float64(sp.Dur) / 1e6
	}
	self := selfTimes(spans)
	// A campaign's simulations run inside exp jobs; a cached job's span is
	// an instant and adds nothing.
	m["sim.run_s"] = total["sim.RunSequential"] + total["sim.Run"] + total["sim.RunParallel"] + total["exp.job"]
	// Serial only: on the parallel core Task runs on prefetch workers.
	m["sim.self_s"] = self["sim.Run"]
	m["sim.ns_per_event"] = ratio(m["sim.run_s"]*1e9, m["sim.events"])
	m["report.render_s"] = self["report.render"]
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it that its child spans cover.
func selfTimes(spans []trace.Span) map[string]float64 {
	children := map[uint64][]trace.Span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := map[string]float64{}
	for _, sp := range spans {
		self[sp.Name] += float64(sp.Dur-covered(sp, children[sp.ID])) / 1e6
	}
	return self
}

// covered is how many µs of parent's interval the kids' union covers.
func covered(parent trace.Span, kids []trace.Span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End(), parent.End())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			sum += v.hi - end
			end = v.hi
		}
	}
	return sum
}

// writePerfetto exports spans as trace-event JSON at path and validates
// the file with the same checker tlstrace -validate uses.
func writePerfetto(path string, spans []trace.Span) error {
	var buf bytes.Buffer
	if err := trace.ExportPerfetto(&buf, "perfbench", spans); err != nil {
		return err
	}
	if _, err := report.ValidatePerfetto(bytes.NewReader(buf.Bytes())); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
