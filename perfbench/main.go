// Command perfbench is the repository's benchmark. It runs one workload —
// campaign, full-bdna or squash-par (see workloads.go) — for a fixed time,
// checks every operation's simulated results, and prints the end-to-end
// metrics. With --trace 1 it instead runs one untraced and one traced
// operation and prints the per-layer metrics of the traced one.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 2, "failed": 0, "metrics": {"wall_s": {"value": 5.9, "unit": "s"}, ...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload full-bdna --seed 1 --seconds 40 --trace 0
//
// Scratch files (result caches, journals, the traced run's Perfetto file)
// live under .bench_build in the working directory.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes, relative to the
// directory it runs in.
const buildDir = ".bench_build"

// A run starts setupWarmups set-up-only processes and discards their
// times: the first process starts after a build, on cold caches. Before
// each operation it starts setupPerOp more, and those and every
// operation's own process give the set-up samples, so the samples spread
// over the whole run instead of one moment of a shared host. setup_s is
// their median.
const (
	setupWarmups = 5
	setupPerOp   = 7
)

// readyLine is what a child process prints when its set-up is done and
// its operation's timer is about to start.
const readyLine = "ready"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is what every workload's set-up receives.
type config struct {
	seed    uint64
	workers int    // worker goroutines: the campaign pool and the parallel core
	dir     string // scratch directory, removed when the run ends
	out     string // where the traced run leaves its Perfetto file
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 = print per-layer metrics from a separate traced operation")
	child := fs.String("child", "", "internal: set up (\"setup\") or also run one operation (\"op\") and report it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *traced)
		return 2
	}
	if *child != "" && *child != "setup" && *child != "op" {
		fmt.Fprintf(stderr, "perfbench: --child must be setup or op, not %q\n", *child)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := config{seed: *seed, workers: runtime.NumCPU(), dir: dir, out: buildDir}
	if *child != "" {
		if err := runChild(wl, cfg, *child == "op", stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "perfbench %s seed %d workers %d trace %d\n", wl.name, cfg.seed, cfg.workers, *traced)
	var rep *summary
	if *traced == 1 {
		rep, err = measureTraced(wl, cfg, stdout)
	} else {
		rep, err = measure(wl, cfg, time.Duration(*seconds*float64(time.Second)), stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// note is a metric printed for people but left out of the JSON line.
type note struct {
	name string
	metric
}

// summary is a run's verdict and metrics.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []note
}

func (s *summary) note(name string, value float64, unit string) {
	s.notes = append(s.notes, note{name, metric{value, unit}})
}

// print writes every metric as a "name value unit" line, then the JSON
// object as the last line.
func (s *summary) print(w io.Writer) error {
	names := make([]string, 0, len(s.Metrics))
	for n := range s.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, s.Metrics[n].Value, s.Metrics[n].Unit)
	}
	for _, n := range s.notes {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n.name, n.Value, n.Unit)
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// opSample is what one untraced operation measured.
type opSample struct {
	Wall, CPU  time.Duration
	AllocMB    float64
	PeakRSSMB  float64 // the process's resident high-water mark when the operation ended
	Events     uint64
	Sims       int
	Failed     int
	Failures   []string
	Digest     string
	Fidelity   *fidelity     `json:",omitempty"`
	SetupReady time.Duration `json:"-"` // process start to the operation's first timed instant
}

// measure runs each untraced operation in a process of its own, as
// `tlssim -full` or `tlsreport` would, so no operation inherits another's
// heap and each has its own resident high-water mark. It runs operations
// until the next one would end after the budget, and reports the medians.
func measure(wl bench, cfg config, budget time.Duration, log io.Writer) (*summary, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", wl.name, "-seed", strconv.FormatUint(cfg.seed, 10)}
	var setups []float64
	setUp := func(n int, record bool) error {
		for i := 0; i < n; i++ {
			s, err := spawn(exe, append(args, "-child", "setup"), false)
			if err != nil {
				return fmt.Errorf("%s: set-up: %w", wl.name, err)
			}
			if record {
				setups = append(setups, s.SetupReady.Seconds())
			}
		}
		return nil
	}
	if err := setUp(setupWarmups, false); err != nil {
		return nil, err
	}

	rep := &summary{Correct: true, Metrics: map[string]metric{}}
	var samples []opSample
	loopStart := time.Now()
	for {
		if err := setUp(setupPerOp, true); err != nil {
			return nil, err
		}
		s, err := spawn(exe, append(args, "-child", "op"), true)
		if err != nil {
			return nil, fmt.Errorf("%s: operation %d: %w", wl.name, len(samples)+1, err)
		}
		setups = append(setups, s.SetupReady.Seconds())
		samples = append(samples, s)
		fmt.Fprintf(log, "op %d: set-up %.4f s, wall %.4f s, cpu %.4f s, alloc %.1f MB, peak rss %.1f MB, %d events, %d/%d simulations failed, digest %s\n",
			len(samples), s.SetupReady.Seconds(), s.Wall.Seconds(), s.CPU.Seconds(), s.AllocMB, s.PeakRSSMB, s.Events, s.Failed, s.Sims, s.Digest)
		for _, f := range s.Failures {
			fmt.Fprintf(log, "  failure: %s\n", f)
		}
		rep.Attempted += s.Sims
		rep.Failed += s.Failed
		if s.Digest != samples[0].Digest {
			fmt.Fprintf(log, "  digest differs from the first operation's %s\n", samples[0].Digest)
			rep.Correct = false
		}
		elapsed := time.Since(loopStart)
		if elapsed+elapsed/time.Duration(len(samples)) > budget {
			break
		}
	}
	rep.Correct = rep.Correct && rep.Failed == 0

	var walls, cpus, allocs, rss, rates []float64
	for _, s := range samples {
		walls = append(walls, s.Wall.Seconds())
		cpus = append(cpus, s.CPU.Seconds())
		allocs = append(allocs, s.AllocMB)
		rss = append(rss, s.PeakRSSMB)
		rates = append(rates, float64(s.Events)/s.Wall.Seconds())
	}
	values := map[string]float64{
		"wall_s":       median(walls),
		"events_per_s": median(rates),
		"cpu_s":        median(cpus),
		"alloc_mb":     median(allocs),
		"peak_rss_mb":  median(rss),
		"setup_s":      median(setups),
	}
	for _, d := range endToEnd {
		rep.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	rep.note("failed_frac", float64(rep.Failed)/float64(rep.Attempted), "ratio")
	if fid := samples[0].Fidelity; fid != nil {
		rep.note("paper_err_pp", fid.PaperErrPP, "pp")
		rep.note("claims_held", float64(fid.ClaimsHeld), "count")
	}
	fmt.Fprintf(log, "%d operations, %d set-ups; medians:\n", len(samples), len(setups))
	return rep, nil
}

// spawn starts exe with args as a child process and waits for it. The
// child's set-up time is taken from its start to its ready line; with op,
// the child's operation report follows.
func spawn(exe string, args []string, op bool) (opSample, error) {
	var s opSample
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return s, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return s, err
	}
	r := bufio.NewReader(out)
	line, readErr := r.ReadString('\n')
	s.SetupReady = time.Since(start)
	if readErr == nil && strings.TrimSpace(line) != readyLine {
		readErr = fmt.Errorf("child printed %q, want %q", line, readyLine)
	}
	if readErr == nil && op {
		readErr = json.NewDecoder(r).Decode(&s)
	}
	// Drain whatever is left so the child never blocks on a full pipe.
	_, _ = io.Copy(io.Discard, r)
	waitErr := cmd.Wait()
	if err := errors.Join(readErr, waitErr); err != nil {
		return s, fmt.Errorf("child process %v: %w", args, err)
	}
	return s, nil
}

// runChild is a child process's part: set up, say so, and with op run one
// operation and print its sample as JSON.
func runChild(wl bench, cfg config, op bool, stdout io.Writer) error {
	o, err := wl.setup(cfg, nil)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	defer o.close()
	if _, err := fmt.Fprintln(stdout, readyLine); err != nil || !op {
		return err
	}
	s, _ := timeOp(o)
	return json.NewEncoder(stdout).Encode(s)
}

// timeOp runs one untraced operation on a freshly collected heap, then its
// correctness checks outside the timed region.
func timeOp(op operation) (opSample, outcome) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	op.run(0)
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	peak := peakRSSMB()
	runtime.ReadMemStats(&after)
	oc := op.check(wall)
	return opSample{
		Wall:      wall,
		CPU:       cpu,
		AllocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		PeakRSSMB: peak,
		Events:    oc.events,
		Sims:      oc.sims,
		Failed:    oc.failed,
		Failures:  oc.failures,
		Digest:    oc.digest,
		Fidelity:  oc.fidelity,
	}, oc
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
