package exp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestMetricsAccounting(t *testing.T) {
	m := &Metrics{}
	m.Queue(4)
	m.Observe(JobResult{Cached: true})
	m.Observe(JobResult{Attempts: 1, Wall: 10 * time.Millisecond,
		Result: sim.Result{ExecCycles: 1000}})
	m.Observe(JobResult{Attempts: 2, Wall: 30 * time.Millisecond,
		Result: sim.Result{ExecCycles: 3000}})
	m.Observe(JobResult{Attempts: 2, Err: errors.New("boom")})

	s := m.Snapshot()
	if s.Total != 4 || s.Done != 4 || s.Remaining() != 0 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.CacheHits != 1 || s.Executed != 2 || s.Errors != 1 || s.Retries != 2 {
		t.Fatalf("classification wrong: %+v", s)
	}
	if s.SimCycles != 4000 {
		t.Fatalf("sim cycles = %d, want 4000", s.SimCycles)
	}
	if s.JobWallMean != 20*time.Millisecond || s.JobWallMax != 30*time.Millisecond {
		t.Fatalf("wall tally wrong: mean %s max %s", s.JobWallMean, s.JobWallMax)
	}
	if s.Elapsed <= 0 || s.CyclesPerSecond() <= 0 {
		t.Fatalf("throughput not measured: %+v", s)
	}
}

func TestMetricsETA(t *testing.T) {
	m := &Metrics{}
	m.Queue(10)
	m.Observe(JobResult{Attempts: 1})
	s := m.Snapshot()
	if s.Remaining() != 9 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
	if s.ETA() <= 0 {
		t.Fatal("ETA must be positive with work remaining")
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
