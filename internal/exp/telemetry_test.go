package exp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestTelemetryServesCampaignState runs a tiny observed sweep with the
// telemetry server attached and scrapes both endpoints.
func TestTelemetryServesCampaignState(t *testing.T) {
	m := new(Metrics)
	tel := &Telemetry{Name: "test-campaign", Metrics: m}
	tel.AddGauge("custom_pool_depth", func() float64 { return 7 })
	addr, err := tel.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Stop()

	prof := workload.Euler().Scale(0.02, 0.05, 0.25)
	reg := obs.NewRegistry()
	jobs := []Job{
		{Machine: machine.NUMA16(), Scheme: core.MultiTMVEager, Profile: prof, Seed: 1,
			Obs: &obs.Config{Registry: reg}},
		{Machine: machine.NUMA16(), Profile: prof, Seed: 1, Sequential: true},
	}
	m.Queue(len(jobs))
	var r Runner
	for _, j := range jobs {
		jr := r.Run(context.Background(), j, Attempt{N: 1})
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
		m.Observe(jr)
		tel.ObserveJob(jr)
	}

	metrics := scrape(t, "http://"+addr+"/metrics")
	for _, want := range []string{
		"# TYPE tls_jobs_done gauge", "tls_jobs_done 2",
		"tls_jobs_total 2", "tls_jobs_remaining 0",
		"tls_custom_pool_depth 7",
		"# TYPE tls_run_sim_commits counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	for _, banned := range []string{"NaN", "+Inf", "-Inf"} {
		if strings.Contains(metrics, banned) {
			t.Errorf("/metrics contains %s:\n%s", banned, metrics)
		}
	}

	var view progressView
	if err := json.Unmarshal([]byte(scrape(t, "http://"+addr+"/progress")), &view); err != nil {
		t.Fatalf("/progress is not valid JSON: %v", err)
	}
	if view.Campaign != "test-campaign" || view.Done != 2 || view.Remaining != 0 {
		t.Errorf("progress view = %+v", view)
	}
	if len(view.Recent) != 2 {
		t.Errorf("recent jobs = %d, want 2", len(view.Recent))
	}
	for _, rj := range view.Recent {
		if rj.Label == "" {
			t.Errorf("recent job without label: %+v", rj)
		}
	}

	if !strings.Contains(scrape(t, "http://"+addr+"/"), "campaign telemetry") {
		t.Error("index page missing")
	}
}

// TestTelemetryZeroStateHasNoNaN covers the first-scrape race: a server
// whose Metrics has seen no batches (and one with no Metrics at all) must
// still render finite values everywhere.
func TestTelemetryZeroStateHasNoNaN(t *testing.T) {
	for name, tel := range map[string]*Telemetry{
		"zero metrics": {Name: "idle", Metrics: new(Metrics)},
		"nil metrics":  {Name: "idle"},
	} {
		addr, err := tel.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		metrics := scrape(t, "http://"+addr+"/metrics")
		progress := scrape(t, "http://"+addr+"/progress")
		tel.Stop()
		for _, banned := range []string{"NaN", "Inf"} {
			if strings.Contains(metrics, banned) {
				t.Errorf("%s: /metrics contains %s:\n%s", name, banned, metrics)
			}
			if strings.Contains(progress, banned) {
				t.Errorf("%s: /progress contains %s:\n%s", name, banned, progress)
			}
		}
		if !strings.Contains(metrics, "tls_jobs_done 0") {
			t.Errorf("%s: missing zero jobs_done:\n%s", name, metrics)
		}
		var view progressView
		if err := json.Unmarshal([]byte(progress), &view); err != nil {
			t.Errorf("%s: /progress is not valid JSON: %v", name, err)
		}
	}
}

// TestTelemetryRecentRing checks the /progress ring keeps only the newest
// entries, oldest first.
func TestTelemetryRecentRing(t *testing.T) {
	tel := &Telemetry{Name: "ring"}
	for i := 0; i < telemetryRecent+5; i++ {
		tel.ObserveJob(JobResult{Job: Job{Seed: uint64(i)}, Wall: time.Duration(i)})
	}
	tel.mu.Lock()
	n, seen := len(tel.recent), tel.seen
	tel.mu.Unlock()
	if n != telemetryRecent {
		t.Errorf("ring size = %d, want %d", n, telemetryRecent)
	}
	if seen != telemetryRecent+5 {
		t.Errorf("seen = %d, want %d", seen, telemetryRecent+5)
	}
}

// TestSnapshotZeroValueString is the satellite regression for the first
// progress line: a zero snapshot (no jobs, no elapsed time) must not print
// NaN or Inf anywhere.
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
