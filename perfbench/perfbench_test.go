package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/obs/trace"
	"repro/internal/workload"
)

// smallEuler is Euler cut down to a fraction of a second per run; it still
// squashes, so its committed reads exercise the oracle.
var smallEuler = workload.Euler().Scale(0.1, 0.1, 0.25)

func smallRun(name string, parallel bool, source func(workload.Profile, uint64) taskSource) bench {
	return bench{name: name, setup: fullRun{
		machine: machine.NUMA16, scheme: core.MultiTMVFMM, prof: smallEuler,
		parallel: parallel, source: source,
	}.setup}
}

// Test workloads carry this prefix; BENCHMARK.json does not list them.
const testPrefix = "test-"

func init() {
	for _, parallel := range []bool{false, true} {
		for _, b := range []bench{smallRun(testName("small", parallel), parallel, nil), smallRun(testName("lying", parallel), parallel, lying)} {
			workloads[b.name] = b
		}
	}
}

func testName(kind string, parallel bool) string {
	if parallel {
		return testPrefix + kind + "-parallel"
	}
	return testPrefix + kind + "-serial"
}

// TestMain lets the test binary serve as measure's child process.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "-child") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func testConfig(t *testing.T) config {
	return config{seed: 3, workers: 2, dir: t.TempDir(), out: t.TempDir()}
}

// inTempDir runs the rest of the test in a temporary working directory, so
// the child processes' scratch directory lands there.
func inTempDir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// lyingGen is a generator whose sequential-order oracle names the wrong
// producer for every read.
type lyingGen struct{ *workload.Generator }

func (g lyingGen) SequentialOrderOracle(addr memsys.Addr, index int) int {
	return g.Generator.SequentialOrderOracle(addr, index) + 1
}

func lying(prof workload.Profile, seed uint64) taskSource {
	return lyingGen{workload.NewGenerator(prof, seed)}
}

// A wrapped workload whose oracle lies must fail the run, untraced and
// traced alike: the timing wrapper has to forward the oracle for the
// simulator to consult it.
func TestLyingOracleFailsTheRun(t *testing.T) {
	inTempDir(t)
	for _, parallel := range []bool{false, true} {
		wl := workloads[testName("lying", parallel)]
		rep, err := measure(wl, testConfig(t), time.Nanosecond, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed == 0 || rep.Correct {
			t.Errorf("parallel=%v untraced: %d of %d failed, correct=%v; want the lie caught",
				parallel, rep.Failed, rep.Attempted, rep.Correct)
		}
		if rep.notes[0].Value == 0 {
			t.Errorf("parallel=%v: failed_frac = 0", parallel)
		}

		tr := newTracer()
		op, err := wl.setup(testConfig(t), tr)
		if err != nil {
			t.Fatal(err)
		}
		op.run(0)
		if oc := op.check(time.Second); oc.failed == 0 {
			t.Errorf("parallel=%v traced: lying oracle went unnoticed", parallel)
		}
	}
}

// Untraced operations run in child processes; a clean run reports every
// end-to-end metric, non-zero.
func TestMeasureCleanRun(t *testing.T) {
	inTempDir(t)
	rep, err := measure(workloads[testName("small", true)], testConfig(t), 500*time.Millisecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("correct=%v, %d of %d failed; want a clean run", rep.Correct, rep.Failed, rep.Attempted)
	}
	for _, d := range endToEnd {
		if m, ok := rep.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
		}
	}
}

// The traced run must simulate exactly what the untraced run does, with the
// prefetcher still on in parallel mode, and export a valid trace.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		rep, err := measureTraced(workloads[testName("small", parallel)], testConfig(t), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Fatalf("parallel=%v: correct=%v, %d failed", parallel, rep.Correct, rep.Failed)
		}
		for _, d := range perLayer {
			if _, ok := rep.Metrics[d.name]; !ok {
				t.Errorf("parallel=%v: %s missing", parallel, d.name)
			}
		}
		m := func(name string) float64 { return rep.Metrics[name].Value }
		if m("workload.task_calls") < float64(smallEuler.Tasks) || m("workload.task_s") <= 0 {
			t.Errorf("parallel=%v: task calls %v, task time %v", parallel, m("workload.task_calls"), m("workload.task_s"))
		}
		if parallel && m("sim.prefetch_hit_frac") == 0 {
			t.Error("traced parallel run lost its prefetcher")
		}
		if !parallel && m("sim.self_s") <= 0 {
			t.Errorf("serial run: sim.self_s = %v", m("sim.self_s"))
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []trace.Span{
		{ID: 1, Name: "op", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, Dur: 20},
		{ID: 3, Parent: 1, Name: "child", Start: 20, Dur: 30},
		{ID: 4, Parent: 1, Name: "child", Start: 90, Dur: 30}, // runs past its parent
	}
	self := selfTimes(spans)
	if got := self["op"] * 1e6; math.Abs(got-50) > 1e-9 {
		t.Errorf("op self time %v µs, want 50", got)
	}
	if got := self["child"] * 1e6; math.Abs(got-80) > 1e-9 {
		t.Errorf("child self time %v µs, want 80", got)
	}
}

// pb encodes protobuf fields for a hand-built profile.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return p.bytes(num, b)
}

// fixedProfile has six samples worth 1000 ns over seven locations.
func fixedProfile(t *testing.T) []byte {
	names := []string{"",
		"repro/internal/workload.(*Generator).Task",
		"slices.SortFunc[...]",
		"repro/internal/coherence.(*Directory).Read",
		"repro/internal/sim.(*Simulator).step",
		"runtime.gcBgMarkWorker",
		"repro/internal/rng.(*Rand).Uint64",
		"repro/internal/report.RenderGrid",
		"main.main",
	}
	var prof pb
	type sample struct {
		locs   []uint64
		ns     uint64
		packed bool
	}
	for _, s := range []sample{
		{[]uint64{1, 3, 7}, 300, true}, // SortFunc inlined into Task: workload
		{[]uint64{2, 3}, 200, false},   // coherence
		{[]uint64{4}, 100, false},      // no internal frame: runtime
		{[]uint64{5, 3}, 150, true},    // rng serves the generator: workload
		{[]uint64{6, 7}, 50, true},     // report: other
		{[]uint64{3, 7}, 200, false},   // sim
	} {
		var msg pb
		if s.packed {
			msg.packed(1, s.locs...).packed(2, 1, s.ns)
		} else {
			for _, l := range s.locs {
				msg.varint(1, l)
			}
			msg.varint(2, 1).varint(2, s.ns)
		}
		prof.bytes(2, msg.b)
	}
	locLines := map[uint64][]uint64{1: {2, 1}, 2: {3}, 3: {4}, 4: {5}, 5: {6}, 6: {7}, 7: {8}}
	for id := uint64(1); id <= 7; id++ {
		var loc pb
		loc.varint(1, id)
		for _, fn := range locLines[id] {
			loc.bytes(4, new(pb).varint(1, fn).varint(2, 10).b)
		}
		prof.bytes(4, loc.b)
	}
	for id := uint64(1); id < uint64(len(names)); id++ {
		prof.bytes(5, new(pb).varint(1, id).varint(2, id).b)
	}
	for _, n := range names {
		prof.bytes(6, []byte(n))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUSharesFixedProfile(t *testing.T) {
	shares, err := cpuShares(fixedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"workload": 0.45, "coherence": 0.2, "sim": 0.2, "runtime": 0.1, "other": 0.05,
		"memsys": 0, "interconnect": 0, "event": 0, "exp": 0,
	}
	sum := 0.0
	for layer, share := range shares {
		sum += share
		if math.Abs(share-want[layer]) > 1e-12 {
			t.Errorf("%s share %v, want %v", layer, share, want[layer])
		}
	}
	if len(shares) != len(want) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("%d shares summing to %v, want %d summing to 1", len(shares), sum, len(want))
	}
}

// cpuShares must read what runtime/pprof really writes.
func TestCPUSharesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		x++
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v after %d spins", sum, x)
	}
}

// BENCHMARK.json and perfbench must name the same workloads and metrics.
func TestBenchmarkJSONMatchesPerfbench(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range workloadNames() {
		if !strings.HasPrefix(n, testPrefix) {
			names = append(names, n)
		}
	}
	if len(doc.Workloads) != len(names) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in perfbench: %v", len(doc.Workloads), len(names), names)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q unknown to perfbench", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in perfbench", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, perfbench %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
