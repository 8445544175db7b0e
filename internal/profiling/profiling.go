// Package profiling wires the standard runtime/pprof CPU and heap profiles
// into tlssim and tlsreport behind -cpuprofile/-memprofile flags, so a slow
// invocation can be profiled without recompiling. Benchmarks take the same
// flags from go test.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath (when non-empty) and returns a stop
// function that ends the CPU profile and writes a heap profile to memPath
// (when non-empty). The stop function must run before the process exits —
// deferred in the normal path and called explicitly before os.Exit.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mem profile: %v\n", err)
				return
			}
			runtime.GC() // materialize the final live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mem profile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}
