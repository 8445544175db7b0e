package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/machine"
)

// renderFig9Equivalent regenerates the Figure 9 artifact exactly as
// cmd/tlsreport does — grid, averages, claim checks, summary — and returns
// the full report text.
func renderFig9Equivalent(t *testing.T, opt Options) string {
	t.Helper()
	g := RunGrid(machine.CMP8(), Figure9Schemes(), opt)
	if len(g.Errors) > 0 {
		t.Fatalf("grid errors: %v", g.Errors)
	}
	var buf bytes.Buffer
	RenderGrid(&buf, g, "Figure 9 (determinism golden)")
	RenderAverages(&buf, g)
	RenderChecks(&buf, CheckFigure9Claims(g))
	RenderSummary(&buf, Summarize(g), 32, 30, 24)
	return buf.String()
}

// TestGoldenParallelMatchesSerial is the orchestrator's core guarantee: a
// 4-worker run produces report text byte-identical to a 1-worker run.
func TestGoldenParallelMatchesSerial(t *testing.T) {
	apps := fastApps()[:2]
	serial := renderFig9Equivalent(t, Options{Apps: apps, Seed: 21, Jobs: 1})
	parallel := renderFig9Equivalent(t, Options{Apps: apps, Seed: 21, Jobs: 4})
	if serial != parallel {
		t.Fatalf("parallel report text differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if len(serial) == 0 {
		t.Fatal("empty report")
	}
}

// TestGoldenWarmCacheRerun asserts that a warm-cache rerun executes zero
// simulations and still produces byte-identical report text.
func TestGoldenWarmCacheRerun(t *testing.T) {
	dir := t.TempDir()
	apps := fastApps()[:2]

	var cold jobTally
	first := renderFig9Equivalent(t, Options{Apps: apps, Seed: 22, Jobs: 4, CacheDir: dir, JobObserver: cold.observe})
	if cold.executed == 0 || cold.cached != 0 || cold.errors != 0 {
		t.Fatalf("cold run: %d executed, %d cached, %d errors", cold.executed, cold.cached, cold.errors)
	}

	var warm jobTally
	second := renderFig9Equivalent(t, Options{Apps: apps, Seed: 22, Jobs: 4, CacheDir: dir, JobObserver: warm.observe})
	if warm.executed != 0 {
		t.Fatalf("warm rerun executed %d simulations, want 0", warm.executed)
	}
	if warm.cached != warm.total || warm.total == 0 {
		t.Fatalf("warm rerun: %d/%d cache hits", warm.cached, warm.total)
	}
	if first != second {
		t.Fatal("warm-cache report text differs from cold run")
	}
}

// jobTally counts finished jobs by outcome through Options.JobObserver.
type jobTally struct {
	mu                                       sync.Mutex
	total, cached, deduped, executed, errors int
}

func (t *jobTally) observe(jr exp.JobResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	switch {
	case jr.Err != nil:
		t.errors++
	case jr.Cached:
		t.cached++
	case jr.Deduped:
		t.deduped++
	default:
		t.executed++
	}
}

// TestUnusableCacheDirFailsTheBatch: a CacheDir that cannot be opened (here
// a regular file) must not run silently uncached; every job of the batch
// fails with the open error, so it lands in the grid's failure manifest.
func TestUnusableCacheDirFailsTheBatch(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := RunGrid(machine.CMP8(), Figure9Schemes(), Options{Apps: fastApps()[:1], Seed: 22, Jobs: 1, CacheDir: file})
	if len(g.Failures) == 0 || len(g.Failures) != len(g.Errors) {
		t.Fatalf("failures %d, errors %d: want every job failed", len(g.Failures), len(g.Errors))
	}
	for _, f := range g.Failures {
		if !strings.Contains(f.Err, "cache") {
			t.Fatalf("failure does not name the cache error: %s", f.Err)
		}
	}
}
