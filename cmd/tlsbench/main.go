// tlsbench is the repeatable performance harness for the simulator itself:
// it runs the hot-path microbenchmarks (event queue, version directory,
// cache, main memory, task streams) and one full (app, machine, scheme)
// simulation through testing.Benchmark, prints the measurements, and can
// write them as a JSON baseline or compare them against a checked-in one.
//
// Usage:
//
//	tlsbench                          # run and print
//	tlsbench -out                     # run and write the baseline file
//	tlsbench -compare                 # run and gate against the baseline
//	tlsbench -baseline BENCH_4.json -out   # cut the next baseline
//
// The baseline lives at -baseline (default BENCH_30.json, the checked-in
// document); -out and -compare write and read that path. The flag's default
// is the one place that names the current baseline: make bench, make
// bench-baseline and CI all use it, so cutting the next baseline edits only
// that default.
//
// The comparison enforces only allocs/op (within -band, default ±30%, with
// a small absolute floor so 0-alloc baselines tolerate measurement jitter):
// allocation counts are a property of the code, deterministic across
// machines and CI runners. ns/op and events/sec vary with the host and are
// reported for trend-watching but never gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/coherence"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/iofault"
	"repro/internal/memsys"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Measurement is one benchmark's result in the baseline file.
type Measurement struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Baseline is the checked-in BENCH_<n>.json document.
type Baseline struct {
	Note       string        `json:"note"`
	Go         string        `json:"go"`
	Benchmarks []Measurement `json:"benchmarks"`
}

// suite lists the benchmarks in a fixed order.
var suite = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"event/schedule-fire", benchEventScheduleFire},
	{"directory/record-write-read", benchDirRecordWriteRead},
	{"directory/version-for", benchDirVersionFor},
	{"directory/footprint", benchDirFootprint},
	{"directory/privatized", benchDirPrivatized},
	{"directory/fresh-words", benchDirFreshWords},
	{"workload/task-gen", benchTaskGen},
	{"workload/stored-task", benchStoredTask},
	{"cache/probe-hit", benchCacheProbeHit},
	{"cache/insert-evict", benchCacheInsertEvict},
	{"cache/commit-own", benchCacheCommitOwn},
	{"memory/write-back", benchMemWriteBack},
	{"sim/full-run", benchFullRun},
	{"sim/recycled-run", benchRecycledRun},
	{"sim/full-run-parallel", benchFullRunParallel},
}

func benchEventScheduleFire(b *testing.B) {
	b.ReportAllocs()
	var q event.Queue
	fn := func(event.Time) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.At(q.Now()+event.Time(i%256), fn)
		q.Step()
	}
}

func benchDirRecordWriteRead(b *testing.B) {
	b.ReportAllocs()
	d := coherence.NewDirectory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ids.TaskID(i%64 + 1)
		a := memsys.Addr(i % 4096)
		d.RecordWrite(a, t)
		d.RecordRead(a, t+1)
		if i%64 == 63 {
			for j := ids.TaskID(1); j <= 65; j++ {
				d.Commit(j)
			}
		}
	}
}

func benchDirVersionFor(b *testing.B) {
	b.ReportAllocs()
	d := coherence.NewDirectory()
	for t := ids.TaskID(1); t <= 16; t++ {
		d.RecordWrite(4, t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.VersionFor(4, ids.TaskID(9))
	}
}

// benchDirFootprint runs one task's directory traffic per op over the
// generator's address layout: 32 reads scattered over the 16K-word shared
// region, 32 writes into the task's pooled UniqueBase region, then commit.
// Regions recur every 96 tasks, so commits prune and the directory stays
// bounded.
func benchDirFootprint(b *testing.B) {
	const (
		sharedWords  = 1 << 14
		regions      = 96
		regionStride = 1<<16 + 528 // the generator's task-private region size
	)
	b.ReportAllocs()
	d := coherence.NewDirectory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ids.TaskID(i + 1)
		region := workload.UniqueBase + memsys.Addr(i%regions)*regionStride
		for k := 0; k < 32; k++ {
			d.RecordRead(workload.SharedBase+memsys.Addr((i*32+k)*4099%sharedWords), t)
			d.RecordWrite(region+memsys.Addr(k*memsys.WordsPerLine), t)
		}
		d.Commit(t)
	}
}

// benchDirPrivatized runs one task per op in the mostly-privatization regime:
// the task writes its own version of each word of one 1024-word block and
// then reads every word back, and once 16 tasks are live the oldest
// commits, in order. Each word carries up to 16 versions, and every read is
// an own-version read.
func benchDirPrivatized(b *testing.B) {
	const (
		live  = 16
		words = 1024
	)
	b.ReportAllocs()
	d := coherence.NewDirectory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ids.TaskID(i + 1)
		for k := memsys.Addr(0); k < words; k++ {
			d.RecordWrite(workload.PrivBase+k, t)
		}
		for k := memsys.Addr(0); k < words; k++ {
			d.RecordRead(workload.PrivBase+k, t)
		}
		if t > live {
			d.Commit(t - live)
		}
	}
}

// benchDirFreshWords builds a fresh directory per op, in which one task
// writes and re-reads 4096 never-seen words and commits: the first-touch
// cost of a section's footprint, which the entry chunks and carved list
// slabs make a handful of allocations per op rather than a few per word.
func benchDirFreshWords(b *testing.B) {
	const words = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := coherence.NewDirectory()
		for k := memsys.Addr(0); k < words; k++ {
			d.RecordWrite(workload.PrivBase+k, 1)
		}
		for k := memsys.Addr(0); k < words; k++ {
			d.RecordRead(workload.PrivBase+k, 1)
		}
		d.Commit(1)
	}
}

// benchTaskGen generates one full-size Bdna task stream per op into a
// reused buffer.
func benchTaskGen(b *testing.B) {
	b.ReportAllocs()
	g := workload.NewGenerator(repro.Bdna(), 1)
	var buf []workload.Op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = g.Task(i%g.NumTasks(), buf)
	}
}

// benchStoredTask replays one full-size Bdna task stream per op from a
// stream store whose tasks were all generated before the timer starts.
func benchStoredTask(b *testing.B) {
	b.ReportAllocs()
	store := workload.NewStore()
	for i := 0; i < 10; i++ { // a figure grid's jobs per app
		store.Hold(repro.Bdna(), 1)
	}
	g := store.Generator(repro.Bdna(), 1)
	var buf []workload.Op
	for i := 0; i < g.NumTasks(); i++ {
		buf, _ = g.Task(i, buf)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = g.Task(i%g.NumTasks(), buf)
	}
}

func benchCacheProbeHit(b *testing.B) {
	b.ReportAllocs()
	c := memsys.NewCache(memsys.Config{Name: "L2", SizeBytes: 512 << 10, Ways: 4})
	c.Insert(100, ids.TaskID(1), memsys.KindOwnVersion)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Probe(100, ids.TaskID(1))
	}
}

func benchCacheInsertEvict(b *testing.B) {
	b.ReportAllocs()
	c := memsys.NewCache(memsys.Config{Name: "L2", SizeBytes: 64 << 10, Ways: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(memsys.LineAddr(i), ids.TaskID(i%8+1), memsys.KindOwnVersion)
	}
}

// benchCacheCommitOwn finds one task's own versions per op, as a commit
// does, in a full 512-KB 4-way L2 (8,192 lines) holding 64 tasks' versions
// of 128 lines each.
func benchCacheCommitOwn(b *testing.B) {
	b.ReportAllocs()
	c := memsys.NewCache(memsys.Config{Name: "L2", SizeBytes: 512 << 10, Ways: 4})
	for line := 0; line < 8192; line++ {
		c.Insert(memsys.LineAddr(line), ids.TaskID(line%64+1), memsys.KindOwnVersion)
	}
	lines := 0
	visit := func(*memsys.Line) { lines++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ids.TaskID(i%64 + 1)
		lines += c.OwnVersions(t)
		c.ForEachOwnVersion(t, visit)
	}
}

// benchMemWriteBack merges one version per op into MTID-filtered main
// memory: a stream over 4096 lines (four pages of tags) whose producers
// rise every pass, where every third write-back offers an older version
// for the filter to judge. Steady state is allocation-free.
func benchMemWriteBack(b *testing.B) {
	b.ReportAllocs()
	m := memsys.NewMemory(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		producer := ids.TaskID(i>>12 + 2)
		if i%3 == 0 {
			producer--
		}
		m.WriteBack(memsys.LineAddr(i&4095), producer)
	}
}

// benchFullRun runs one mid-size (app, machine, scheme) simulation per
// iteration and reports simulated events per op, from which events/sec of
// host time is derived after the run.
func benchFullRun(b *testing.B) {
	b.ReportAllocs()
	prof := repro.Bdna().Scale(0.25, 0.25, 0.25)
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := repro.Run(repro.NUMA16(), repro.MultiTMVLazy, prof, 1)
		events += r.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// benchRecycledRun is benchFullRun with every simulation built on the
// storage a same-geometry simulation released before it, as the campaign
// path builds them: the per-job cost once a batch is under way.
func benchRecycledRun(b *testing.B) {
	b.ReportAllocs()
	prof := repro.Bdna().Scale(0.25, 0.25, 0.25)
	run := func() sim.Result {
		s := sim.New(repro.NUMA16(), repro.MultiTMVLazy, workload.NewGenerator(prof, 1))
		r := s.Run()
		s.Release()
		return r
	}
	run() // the first measured simulation builds on this one's storage
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += run().Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// benchFullRunParallel is benchFullRun on the parallel simulation core with
// GOMAXPROCS workers. Results are identical to the serial run by
// construction; the wall-clock ratio against sim/full-run is the parallel
// speedup on this host (meaningful only on multi-core runners — `make
// bench` records it as a CI artifact).
func benchFullRunParallel(b *testing.B) {
	b.ReportAllocs()
	prof := repro.Bdna().Scale(0.25, 0.25, 0.25)
	workers := runtime.GOMAXPROCS(0)
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := repro.RunParallel(repro.NUMA16(), repro.MultiTMVLazy, prof, 1, workers)
		events += r.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func measure() []Measurement {
	var out []Measurement
	for _, bm := range suite {
		res := testing.Benchmark(bm.fn)
		m := Measurement{
			Name:        bm.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: float64(res.AllocsPerOp()),
			BytesPerOp:  float64(res.AllocedBytesPerOp()),
		}
		if len(res.Extra) > 0 {
			m.Extra = map[string]float64{}
			for k, v := range res.Extra {
				m.Extra[k] = v
			}
			if ev, ok := m.Extra["events/op"]; ok && m.NsPerOp > 0 {
				m.Extra["events_per_sec"] = ev / m.NsPerOp * 1e9
			}
		}
		fmt.Printf("%-28s %14.1f ns/op %10.0f B/op %8.0f allocs/op", m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
		if eps, ok := m.Extra["events_per_sec"]; ok {
			fmt.Printf("  %.0f events/sec", eps)
		}
		fmt.Println()
		out = append(out, m)
	}
	printParallelSpeedup(out)
	return out
}

// printParallelSpeedup reports the serial-vs-parallel full-run wall-clock
// ratio — the headline number `make bench` records as a CI artifact. Purely
// informational: host-dependent timings never gate.
func printParallelSpeedup(ms []Measurement) {
	var serial, parallel float64
	for _, m := range ms {
		switch m.Name {
		case "sim/full-run":
			serial = m.NsPerOp
		case "sim/full-run-parallel":
			parallel = m.NsPerOp
		}
	}
	if serial > 0 && parallel > 0 {
		fmt.Printf("parallel speedup: %.2fx (full run, serial %.1f ms vs parallel %.1f ms, GOMAXPROCS=%d)\n",
			serial/parallel, serial/1e6, parallel/1e6, runtime.GOMAXPROCS(0))
	}
}

// parallelPrefetchStats runs the parallel benchmark workload once outside
// the timing harness and returns the prefetcher's counters, so a parallel
// slowdown in the numbers above is attributable to prefetch misses (or
// not) straight from tlsbench output.
func parallelPrefetchStats() sim.ParallelStats {
	prof := repro.Bdna().Scale(0.25, 0.25, 0.25)
	s := repro.NewSimulator(repro.NUMA16(), repro.MultiTMVLazy, prof, 1)
	s.SetParallel(runtime.GOMAXPROCS(0))
	s.Run()
	return s.ParallelStats()
}

func printPrefetchStats(st sim.ParallelStats) {
	taken := st.PrefetchHits + st.PrefetchMisses
	if taken == 0 {
		return
	}
	fmt.Printf("prefetch: %.1f%% hit (%d hit / %d miss), peak depth %d\n",
		100*float64(st.PrefetchHits)/float64(taken), st.PrefetchHits, st.PrefetchMisses,
		st.PrefetchDepthHighWater)
}

// HistoryRecord is one tlsbench run appended to the -history JSONL trend
// file: everything a later plot needs to chart this host's performance over
// time, including the prefetcher counters of the parallel core.
type HistoryRecord struct {
	Unix       int64             `json:"unix"`
	Go         string            `json:"go"`
	MaxProcs   int               `json:"maxprocs"`
	Benchmarks []Measurement     `json:"benchmarks"`
	Prefetch   sim.ParallelStats `json:"prefetch"`
}

// appendHistory appends rec as one JSONL line through the iofault
// atomic-publish seam: the whole file is republished under a temp name and
// renamed, so a crash mid-append can never leave a torn trend file.
func appendHistory(path string, rec HistoryRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	prev, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	data := append(prev, append(line, '\n')...)
	return iofault.WriteFileAtomic(iofault.Real, path, data, 0o644)
}

// printDelta prints the one-line trend summary against the baseline: the
// geometric-mean ns/op ratio across benchmarks both runs have, and the total
// allocs/op difference. Informational, like all timing output.
func printDelta(basePath string, baseline Baseline, cur []Measurement) {
	byName := map[string]Measurement{}
	for _, m := range baseline.Benchmarks {
		byName[m.Name] = m
	}
	var logSum, allocDelta float64
	n := 0
	for _, m := range cur {
		base, ok := byName[m.Name]
		if !ok {
			continue
		}
		if base.NsPerOp > 0 && m.NsPerOp > 0 {
			logSum += math.Log(m.NsPerOp / base.NsPerOp)
			n++
		}
		allocDelta += m.AllocsPerOp - base.AllocsPerOp
	}
	if n == 0 {
		return
	}
	geo := math.Exp(logSum / float64(n))
	fmt.Printf("delta vs %s: ns/op %+.1f%% (geomean over %d benchmarks), allocs/op %+.1f total\n",
		basePath, 100*(geo-1), n, allocDelta)
}

// compare gates current allocs/op against the baseline. Returns the number
// of violations.
func compare(baseline Baseline, cur []Measurement, band float64) int {
	byName := map[string]Measurement{}
	for _, m := range baseline.Benchmarks {
		byName[m.Name] = m
	}
	bad := 0
	var names []string
	for _, m := range cur {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	curByName := map[string]Measurement{}
	for _, m := range cur {
		curByName[m.Name] = m
	}
	for _, name := range names {
		m := curByName[name]
		base, ok := byName[name]
		if !ok {
			fmt.Printf("compare: %-28s NEW (no baseline entry)\n", name)
			continue
		}
		// Absolute floor of 0.5 allocs lets 0-alloc baselines absorb
		// measurement jitter while still catching a real new allocation.
		tol := band * base.AllocsPerOp
		if tol < 0.5 {
			tol = 0.5
		}
		switch {
		case m.AllocsPerOp > base.AllocsPerOp+tol:
			fmt.Printf("compare: %-28s FAIL allocs/op %.1f exceeds baseline %.1f (+%.0f%% band)\n",
				name, m.AllocsPerOp, base.AllocsPerOp, 100*band)
			bad++
		case m.AllocsPerOp < base.AllocsPerOp-tol:
			fmt.Printf("compare: %-28s improved: allocs/op %.1f below baseline %.1f — consider refreshing the baseline\n",
				name, m.AllocsPerOp, base.AllocsPerOp)
		default:
			fmt.Printf("compare: %-28s ok (allocs/op %.1f vs %.1f)\n", name, m.AllocsPerOp, base.AllocsPerOp)
		}
		if base.NsPerOp > 0 {
			drift := 100 * (m.NsPerOp - base.NsPerOp) / base.NsPerOp
			if drift > 100*band || drift < -100*band {
				fmt.Printf("compare: %-28s note: ns/op drifted %+.0f%% (informational; timing never gates)\n", name, drift)
			}
		}
	}
	return bad
}

func main() {
	var (
		basePath = flag.String("baseline", "BENCH_30.json", "path of the JSON benchmark baseline (-out writes it, -compare reads it)")
		out      = flag.Bool("out", false, "write measurements to the -baseline file")
		against  = flag.Bool("compare", false, "compare against the -baseline file; exit 1 outside the band")
		band     = flag.Float64("band", 0.30, "guard band for the allocs/op comparison")
		note     = flag.String("note", "", "note stored in the baseline file")
		history  = flag.String("history", "", "append this run (timestamped, with the parallel-core prefetch stats) to this JSONL trend file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	cur := measure()
	prefetch := parallelPrefetchStats()
	printPrefetchStats(prefetch)

	// Trend line: printed whenever the baseline is readable, gating or not.
	if data, err := os.ReadFile(*basePath); err == nil {
		var baseline Baseline
		if json.Unmarshal(data, &baseline) == nil {
			printDelta(*basePath, baseline, cur)
		}
	}

	if *history != "" {
		rec := HistoryRecord{
			Unix:       time.Now().Unix(),
			Go:         runtime.Version(),
			MaxProcs:   runtime.GOMAXPROCS(0),
			Benchmarks: cur,
			Prefetch:   prefetch,
		}
		if err := appendHistory(*history, rec); err != nil {
			fmt.Fprintf(os.Stderr, "tlsbench: history: %v\n", err)
			stopProf()
			os.Exit(1)
		}
		fmt.Printf("history appended to %s\n", *history)
	}

	if *out {
		doc := Baseline{
			Note:       *note,
			Go:         runtime.Version(),
			Benchmarks: cur,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlsbench: %v\n", err)
			stopProf()
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := iofault.WriteFileAtomic(iofault.Real, *basePath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tlsbench: %v\n", err)
			stopProf()
			os.Exit(1)
		}
		fmt.Printf("baseline written to %s\n", *basePath)
	}

	if *against {
		data, err := os.ReadFile(*basePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlsbench: %v\n", err)
			stopProf()
			os.Exit(1)
		}
		var baseline Baseline
		if err := json.Unmarshal(data, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "tlsbench: bad baseline %s: %v\n", *basePath, err)
			stopProf()
			os.Exit(1)
		}
		if bad := compare(baseline, cur, *band); bad > 0 {
			fmt.Fprintf(os.Stderr, "tlsbench: %d benchmark(s) outside the allocation band\n", bad)
			stopProf()
			os.Exit(1)
		}
		fmt.Println("all benchmarks within the allocation band")
	}
}
