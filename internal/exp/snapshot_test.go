package exp

import (
	"strings"
	"testing"
	"time"
)

// TestMetricsETA: the -metrics line's remainder and ETA derive from the
// counts and the elapsed time alone.
func TestMetricsETA(t *testing.T) {
	s := Snapshot{Total: 10, Done: 1, Executed: 1, Elapsed: time.Second}
	if s.Remaining() != 9 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
	if s.ETA() != 9*time.Second {
		t.Fatalf("ETA = %v, want 9s at one job per second", s.ETA())
	}
	var empty Snapshot
	if empty.ETA() != 0 || empty.CyclesPerSecond() != 0 {
		t.Fatal("empty snapshot must report zeros")
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{Total: 49, Done: 37, CacheHits: 12, Executed: 25,
		Elapsed: 2 * time.Second, SimCycles: 1_850_000_000}
	line := s.String()
	for _, want := range []string{"37/49 jobs", "12 cached", "25 simulated", "Gcycles", "remaining"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary line %q missing %q", line, want)
		}
	}
	done := Snapshot{Total: 5, Done: 5, Executed: 5, Elapsed: time.Second, SimCycles: 500}
	if strings.Contains(done.String(), "remaining") {
		t.Error("finished snapshot must not print a remainder")
	}
}

func TestSICycles(t *testing.T) {
	cases := map[float64]string{
		12:            "12 cycles",
		4_500:         "4.50 Kcycles",
		2_300_000:     "2.30 Mcycles",
		7_800_000_000: "7.80 Gcycles",
	}
	for v, want := range cases {
		if got := siCycles(v); got != want {
			t.Errorf("siCycles(%g) = %q, want %q", v, got, want)
		}
	}
}

// TestSnapshotZeroValueString is the regression for the first progress
// line: a zero snapshot (no jobs, no elapsed time) must not print NaN or Inf
// anywhere.
func TestSnapshotZeroValueString(t *testing.T) {
	var s Snapshot
	line := s.String()
	for _, banned := range []string{"NaN", "Inf"} {
		if strings.Contains(line, banned) {
			t.Errorf("zero snapshot prints %s: %q", banned, line)
		}
	}
	if s.ETA() != 0 {
		t.Errorf("zero snapshot ETA = %v, want 0", s.ETA())
	}
	if s.CyclesPerSecond() != 0 {
		t.Errorf("zero snapshot cycles/s = %v, want 0", s.CyclesPerSecond())
	}
	// One done job with zero elapsed time (a fast cache hit on a coarse
	// clock) must also stay finite.
	s = Snapshot{Total: 10, Done: 1, CacheHits: 1}
	if eta := s.ETA(); eta < 0 {
		t.Errorf("eta = %v, want >= 0", eta)
	}
	if strings.Contains(s.String(), "NaN") || strings.Contains(s.String(), "Inf") {
		t.Errorf("snapshot prints non-finite values: %q", s.String())
	}
}
