package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/iofault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// get fetches path from the handler and returns the status and body.
func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// scrapeDashboard returns /metrics and the decoded /progress of h.
func scrapeDashboard(t *testing.T, h http.Handler) (string, fleetProgress) {
	t.Helper()
	code, metrics := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	code, progress := get(t, h, "/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress: status %d", code)
	}
	// Every sample value is finite ("+Inf" only appears as a histogram
	// bucket bound, inside the label set).
	for _, line := range strings.Split(strings.TrimSpace(metrics), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if v := fields[len(fields)-1]; strings.Contains(v, "NaN") || strings.Contains(v, "Inf") {
			t.Errorf("/metrics sample is not finite: %s", line)
		}
	}
	for _, banned := range []string{"NaN", "Inf"} {
		if strings.Contains(progress, banned) {
			t.Errorf("/progress contains %s:\n%s", banned, progress)
		}
	}
	var view fleetProgress
	if err := json.Unmarshal([]byte(progress), &view); err != nil {
		t.Fatalf("/progress is not valid JSON: %v\n%s", err, progress)
	}
	return metrics, view
}

// metricValue returns the value of one unlabelled metric line.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		var v float64
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, metrics)
	return 0
}

// TestDashboardZeroStateHasNoNaN covers the first-scrape race: a bare
// coordinator and a local executor that has run no batch yet must render
// finite values everywhere and valid JSON.
func TestDashboardZeroStateHasNoNaN(t *testing.T) {
	for name, h := range map[string]http.Handler{
		"coordinator": NewCoordinator(Config{Name: "idle"}).Handler(),
		"local":       new(Local).Dashboard("idle"),
	} {
		metrics, view := scrapeDashboard(t, h)
		if metricValue(t, metrics, "tls_fleet_jobs_done") != 0 || metricValue(t, metrics, "tls_fleet_sim_cycles") != 0 {
			t.Errorf("%s: nonzero idle counts:\n%s", name, metrics)
		}
		if view.Campaign != "idle" || view.Summary == "" || view.Recent == nil {
			t.Errorf("%s: progress view = %+v", name, view)
		}
	}
}

// TestDashboardRecentRing checks the /progress ring keeps only the newest
// settled jobs, oldest first.
func TestDashboardRecentRing(t *testing.T) {
	co := NewCoordinator(Config{})
	for i := 0; i < recentRing+5; i++ {
		e := &jobEntry{job: exp.Job{Profile: tinyProfile(), Seed: uint64(i)}}
		co.noteRecentLocked(e, Outcome{WallMS: int64(i)})
	}
	_, view := scrapeDashboard(t, co.Handler())
	if len(view.Recent) != recentRing {
		t.Fatalf("ring size = %d, want %d", len(view.Recent), recentRing)
	}
	for i, rj := range view.Recent {
		if want := int64(i + 5); rj.WallMS != want {
			t.Fatalf("recent[%d] is job %d, want %d (oldest first)", i, rj.WallMS, want)
		}
	}
}

// TestLocalDashboardServesCampaignState runs two batches with overlapping
// keys and caller-attached obs registries on one Local, scraping its
// dashboard. The counts add up across batches, the repeated keys are
// deduped instead of executed, and tls_run_* holds both batches' registries:
// the coordinator merges each settling run's counters, so the dashboard
// spans every batch of the Local.
func TestLocalDashboardServesCampaignState(t *testing.T) {
	prof := tinyProfile()
	cfg := machine.CMP8()
	job := func(sch core.Scheme, seed uint64) exp.Job {
		return exp.Job{Machine: cfg, Scheme: sch, Profile: prof, Seed: seed,
			Obs: &obs.Config{Registry: obs.NewRegistry()}}
	}
	first := []exp.Job{job(core.SingleTEager, 1), job(core.MultiTMVLazy, 1), job(core.MultiTMVLazy, 1)}
	second := []exp.Job{job(core.MultiTMVLazy, 1), job(core.MultiTSVLazy, 1)}

	l := &Local{Workers: 2}
	l.AddGauge("custom_pool_depth", func() float64 { return 7 })
	h := l.Dashboard("test-campaign")
	var commits uint64
	for _, batch := range [][]exp.Job{first, second} {
		results, err := l.RunBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range results {
			if jr.Err != nil {
				t.Fatal(jr.Err)
			}
		}
	}
	// Each distinct key executed once, with the registry of its first
	// submission.
	for _, j := range []exp.Job{first[0], first[1], second[1]} {
		commits += j.Obs.Registry.CounterValue("sim_commits")
	}
	if commits == 0 {
		t.Fatal("observed runs recorded no commits")
	}

	s := l.Snapshot()
	if s.Total != 5 || s.Done != 5 || s.Executed != 3 || s.Deduped != 2 || s.CacheHits != 0 || s.Errors != 0 {
		t.Fatalf("snapshot across two batches: %+v", s)
	}
	metrics, view := scrapeDashboard(t, h)
	for name, want := range map[string]float64{
		"tls_fleet_jobs_total":       3,
		"tls_fleet_jobs_done":        3,
		"tls_fleet_jobs_executed":    3,
		"tls_fleet_dedupe_hits":      2,
		"tls_custom_pool_depth":      7,
		"tls_run_sim_commits":        float64(commits),
		"tls_fleet_sim_cycles":       float64(s.SimCycles),
		"tls_fleet_job_timeouts":     0,
		"tls_fleet_cache_put_errors": 0,
	} {
		if got := metricValue(t, metrics, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if view.Campaign != "test-campaign" || view.Executed != 3 || len(view.Recent) != 3 {
		t.Errorf("progress view = %+v", view)
	}
	if !strings.Contains(view.Summary, "5/5 jobs") || !strings.Contains(view.Summary, "2 deduped") {
		t.Errorf("progress summary = %q", view.Summary)
	}
	for _, rj := range view.Recent {
		if rj.Label == "" || rj.ExecCycles == 0 {
			t.Errorf("recent job without label or cycles: %+v", rj)
		}
	}
	if _, index := get(t, h, "/"); !strings.Contains(index, "test-campaign campaign dashboard") {
		t.Errorf("index page = %q", index)
	}
}

// TestLocalDashboardHidesFabricAPI: serving a local campaign's dashboard
// must not make it joinable, so the /v1 fabric API is not routed.
func TestLocalDashboardHidesFabricAPI(t *testing.T) {
	h := new(Local).Dashboard("local")
	for _, path := range []string{"/v1/submit", "/v1/lease", "/v1/results"} {
		if code, _ := get(t, h, path); code != http.StatusNotFound {
			t.Errorf("GET %s on the local dashboard: status %d, want 404", path, code)
		}
	}
}

// failHealFS refuses to rename or remove one cache file, so its heal scan
// can neither quarantine nor delete it.
type failHealFS struct {
	iofault.FS
	stuck string
}

func (f failHealFS) Rename(oldpath, newpath string) error {
	if filepath.Base(oldpath) == f.stuck {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrPermission}
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f failHealFS) Remove(name string) error {
	if filepath.Base(name) == f.stuck {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrPermission}
	}
	return f.FS.Remove(name)
}

// TestDashboardHealInSummary: the cache's startup heal scan reaches the
// -metrics line and /metrics. One torn entry is quarantined; one can be
// neither renamed aside nor removed (two quarantine errors).
func TestDashboardHealInSummary(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"torn.json", "stuck.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"check":1,"payl`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := exp.NewCacheFS(failHealFS{FS: iofault.Real, stuck: "stuck.json"}, dir)
	if err != nil {
		t.Fatal(err)
	}
	l := &Local{Cache: cache}
	s := l.Snapshot()
	if s.CacheQuarantined != 1 || s.CacheQuarantineErrors != 2 {
		t.Fatalf("heal counts: %+v", s)
	}
	line := s.String()
	if !strings.Contains(line, "1 cache entries quarantined") || !strings.Contains(line, "2 cache quarantine errors") {
		t.Fatalf("metrics line missing heal counters: %s", line)
	}
	metrics, _ := scrapeDashboard(t, l.Dashboard("heal"))
	if metricValue(t, metrics, "tls_fleet_cache_quarantined") != 1 || metricValue(t, metrics, "tls_fleet_cache_quarantine_errors") != 2 {
		t.Fatalf("/metrics missing heal counters:\n%s", metrics)
	}
}

// TestRunCountersCountSettlingRunOnly: tls_run_* merges the counters of the
// one execution that settles a job. A CRC-rejected body, a failed
// execution, a losing duplicate and a permanent failure add nothing, and
// neither does a job settled from the result cache or the resumed journal.
func TestRunCountersCountSettlingRunOnly(t *testing.T) {
	cache, err := exp.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := &fixedClock{t: time.Unix(1000, 0)}
	co := NewCoordinator(Config{Cache: cache, LeaseTTL: time.Minute, StealAfter: 5 * time.Second})
	co.now = clk.now
	run := map[string]uint64{"sim_commits": 7}
	commits := func(co *Coordinator) uint64 {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.runCounters["sim_commits"]
	}
	lease := func(worker string) Lease {
		t.Helper()
		lr := co.LeaseJobs(LeaseRequest{Worker: worker, Max: 1})
		if len(lr.Leases) != 1 {
			t.Fatalf("%s: no lease: %+v", worker, lr)
		}
		return lr.Leases[0]
	}
	complete := func(worker string, l Lease, o Outcome) CompleteResponse {
		o.Key, o.Worker, o.Counters = l.Spec.Key, worker, run
		return co.Complete(CompleteRequest{Worker: worker, Lease: l.ID, Key: l.Spec.Key, Env: sealOutcome(t, o)})
	}

	spec := submitOne(t, co, 1)
	env := sealOutcome(t, Outcome{Key: spec.Key, Worker: "w1", Counters: run})
	env.Payload[2] ^= 0x40
	if resp := co.Complete(CompleteRequest{Worker: "w1", Lease: lease("w1").ID, Key: spec.Key, Env: env}); resp.Accepted {
		t.Fatal("corrupt envelope accepted")
	}
	if resp := complete("w1", lease("w1"), Outcome{Err: "panic"}); !resp.Accepted || resp.Failed {
		t.Fatalf("failed execution: %+v", resp)
	}
	if n := commits(co); n != 0 {
		t.Fatalf("after a CRC reject and a failed run: sim_commits %d, want 0", n)
	}
	slow := lease("slow")
	clk.advance(6 * time.Second)
	stolen := lease("idle")
	if resp := complete("idle", stolen, Outcome{}); !resp.Accepted || resp.Duplicate {
		t.Fatalf("settling run: %+v", resp)
	}
	if resp := complete("slow", slow, Outcome{}); !resp.Duplicate {
		t.Fatalf("losing run: %+v", resp)
	}
	if n := commits(co); n != 7 {
		t.Fatalf("after the settling run and its duplicate: sim_commits %d, want 7", n)
	}
	submitOne(t, co, 2)
	if resp := complete("w1", lease("w1"), Outcome{Err: "job hung", TimedOut: true}); !resp.Failed {
		t.Fatalf("timeout: %+v", resp)
	}
	if n := commits(co); n != 7 {
		t.Fatalf("after a permanent failure: sim_commits %d, want 7", n)
	}

	// A fresh coordinator answers the settled job from the cache, and the
	// journaled outcome of another from its resumed state: no run, no count.
	journaled := SpecOf(exp.Job{Machine: machine.CMP8(), Scheme: core.MultiTMVLazy, Profile: tinyProfile(), Seed: 3})
	data, err := json.Marshal(sealOutcome(t, Outcome{Key: journaled.Key, Counters: run}))
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewCoordinator(Config{Cache: cache, State: exp.CampaignState{
		Outcomes: map[string]json.RawMessage{journaled.Key: data},
	}})
	resp, err := resumed.Submit(SubmitRequest{Jobs: []JobSpec{spec, journaled}})
	if err != nil || resp.Done != 2 {
		t.Fatalf("cache and journal settles: %+v %v", resp, err)
	}
	if resumed.ctr.cacheHits != 1 || resumed.ctr.resumeHits != 1 {
		t.Fatalf("settle counters: %+v", resumed.ctr)
	}
	if n := commits(resumed); n != 0 {
		t.Fatalf("after cache and journal settles: sim_commits %d, want 0", n)
	}
}

// TestStolenDuplicateCountsOnce runs one standard-scale job on a loopback
// fleet of two observing workers that steal after 1 ms: one worker runs the
// job and the other steals a duplicate. Both runs finish, and the duplicate
// result is discarded, so tls_run_* must hold exactly one run's counters.
func TestStolenDuplicateCountsOnce(t *testing.T) {
	job := exp.Job{Machine: machine.NUMA16(), Scheme: core.MultiTMVLazy,
		Profile: workload.StandardScale(workload.Tree()), Seed: 1}
	ref := job
	ref.Obs = &obs.Config{Registry: obs.NewRegistry()}
	runJob(ref)
	one := ref.Obs.Registry.CounterValue("sim_commits")
	if one == 0 {
		t.Fatal("observed run recorded no commits")
	}

	co, url, stop := startFabric(t, Config{Name: "steal-once", LeaseTTL: 30 * time.Second, StealAfter: time.Millisecond},
		2, WorkerConfig{Observe: true, Poll: 2 * time.Millisecond})
	defer stop()
	client := &Client{URL: url, Poll: 2 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := client.RunBatch(ctx, []exp.Job{job})
	if err != nil || res[0].Err != nil {
		t.Fatalf("batch: %v %v", err, res[0].Err)
	}
	// The losing run finishes too: its heartbeat (every 5 s at this TTL)
	// comes too late to cancel it, so it delivers a duplicate result.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		co.mu.Lock()
		steals, dups := co.ctr.steals, co.ctr.dupResults
		co.mu.Unlock()
		if steals >= 1 && dups >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("steals %d, duplicate results %d: want a stolen duplicate that finished", steals, dups)
		}
	}
	metrics, _ := scrapeDashboard(t, co.Handler())
	if got := metricValue(t, metrics, "tls_fleet_jobs_executed"); got != 1 {
		t.Fatalf("tls_fleet_jobs_executed = %v, want 1", got)
	}
	if got := metricValue(t, metrics, "tls_run_sim_commits"); got != float64(one) {
		t.Fatalf("tls_run_sim_commits = %v, want one run's %d", got, one)
	}
}
