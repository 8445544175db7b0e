// tlstrace renders a Gantt-style timeline of one simulation run — the tool
// behind the concept figures (5 and 6): per-processor lanes of task
// execution, commit merges, and squashes — and exports deep-observability
// artifacts: raw trace CSV, per-word squash hotspots, and Chrome/Perfetto
// trace-event JSON for ui.perfetto.dev.
//
// Usage:
//
//	tlstrace -app Euler -machine cmp -scheme "MultiT&MV FMM" -width 120
//	tlstrace -app Euler -perfetto trace.json
//	tlstrace -validate trace.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/internal/iofault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/report"
)

// validApps returns the application names tlstrace accepts, sorted, with
// the synthetic concept workload first.
func validApps() []string {
	names := []string{"micro"}
	var apps []string
	for _, p := range repro.Apps() {
		apps = append(apps, p.Name)
	}
	sort.Strings(apps)
	return append(names, apps...)
}

// resolveProfile maps an -app value to a workload profile. An unknown name
// returns an error listing the valid applications.
func resolveProfile(name string, tasks float64) (repro.Profile, error) {
	if name == "micro" {
		return report.MicroWorkload(12), nil
	}
	p, ok := repro.AppByName(name)
	if !ok {
		return repro.Profile{}, fmt.Errorf("unknown application %q (valid: %s)",
			name, strings.Join(validApps(), ", "))
	}
	return p.Scale(tasks, 0.1, 0.25), nil
}

// validateFile checks an existing trace-event JSON file and reports its
// statistics.
func validateFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := report.ValidatePerfetto(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: valid trace-event JSON: %d events (%d processes, %d slices on %d exec lanes, %d counter events on %d tracks, %d flows, %d span IDs)\n",
		path, st.Events, st.Processes, st.Slices, st.ExecLanes, st.CounterEvents, st.CounterTracks, st.FlowStarts, st.SpanIDs)
	return nil
}

func main() {
	var (
		appName  = flag.String("app", "micro", "application, or 'micro' for the concept workload")
		machName = flag.String("machine", "numa", "machine: numa, cmp")
		schName  = flag.String("scheme", "MultiT&MV Eager AMM", "buffering scheme")
		seed     = flag.Uint64("seed", 1, "workload seed")
		width    = flag.Int("width", 120, "timeline width in characters")
		asCSV    = flag.Bool("csv", false, "emit the raw trace events as CSV instead of a chart")
		hotspots = flag.Bool("hotspots", false, "emit the per-word squash hotspot table as CSV instead of a chart")
		perfetto = flag.String("perfetto", "", "write Chrome/Perfetto trace-event JSON to this file ('-' = stdout)")
		validate = flag.String("validate", "", "validate an existing trace-event JSON file and exit")
		tasks    = flag.Float64("tasks", 0.05, "task-count scale for named applications")
	)
	flag.Parse()

	if *validate != "" {
		if err := validateFile(os.Stdout, *validate); err != nil {
			fmt.Fprintf(os.Stderr, "tlstrace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	scheme, found := repro.SchemeFromString(*schName)
	if !found {
		fmt.Fprintf(os.Stderr, "tlstrace: unknown scheme %q\n", *schName)
		os.Exit(2)
	}
	prof, err := resolveProfile(*appName, *tasks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstrace: %v\n", err)
		os.Exit(2)
	}
	mach, err := machine.ByName(*machName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstrace: %v\n", err)
		os.Exit(2)
	}

	s := repro.NewSimulator(mach, scheme, prof, *seed)
	s.EnableTrace()
	if *perfetto != "" {
		// The Perfetto export includes the obs counter tracks.
		s.Observe(obs.Config{Registry: obs.NewRegistry()})
	}
	r := s.Run()

	switch {
	case *perfetto != "":
		if *perfetto == "-" {
			if err := report.ExportPerfetto(os.Stdout, r, s.Sampled()); err != nil {
				fmt.Fprintf(os.Stderr, "tlstrace: %v\n", err)
				os.Exit(1)
			}
			break
		}
		// Render in memory and publish atomically (temp, fsync, rename,
		// dir fsync): a crash or full disk mid-export can never leave a
		// truncated trace under the final name.
		var buf bytes.Buffer
		if err := report.ExportPerfetto(&buf, r, s.Sampled()); err != nil {
			fmt.Fprintf(os.Stderr, "tlstrace: %v\n", err)
			os.Exit(1)
		}
		if err := iofault.WriteFileAtomic(iofault.Real, *perfetto, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tlstrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: open it at https://ui.perfetto.dev or chrome://tracing\n", *perfetto)
	case *asCSV:
		if err := report.ExportTraceCSV(os.Stdout, r); err != nil {
			fmt.Fprintf(os.Stderr, "tlstrace: %v\n", err)
			os.Exit(1)
		}
	case *hotspots:
		if err := report.ExportSquashHotspotsCSV(os.Stdout, r); err != nil {
			fmt.Fprintf(os.Stderr, "tlstrace: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Printf("%s on %s under %s: %d tasks, %d cycles, %d squash events\n\n",
			prof.Name, mach.Name, scheme, r.Tasks, r.ExecCycles, r.SquashEvents)
		report.Timeline(os.Stdout, r, mach.Procs, *width)
	}
}
