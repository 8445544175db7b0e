package cluster_test

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs/trace"
	"repro/internal/report"
	"repro/internal/workload"
)

// This file is an external test package: it validates the fleet trace with
// report.ValidatePerfetto, and report imports cluster.

// TestFleetTraceLoopback runs a batch on a traced loopback fleet (traced
// coordinator, two tracing workers) and checks the whole observability
// chain: results stay DeepEqual-identical to an untraced serial run, the
// merged Perfetto export validates with one pid per fleet process and
// lease→attempt→complete flow arrows, every span carries the campaign ID,
// and the phase-latency histograms show up on /metrics.
func TestFleetTraceLoopback(t *testing.T) {
	prof := workload.Tree().Scale(0.05, 0.05, 0.25)
	cfg := machine.CMP8()
	fc := fault.CampaignConfig(3)
	jobs := []exp.Job{
		{Machine: cfg, Profile: prof, Seed: 1, Sequential: true},
		{Machine: cfg, Scheme: core.SingleTEager, Profile: prof, Seed: 1},
		{Machine: cfg, Scheme: core.MultiTMVLazy, Profile: prof, Seed: 1},
		{Machine: cfg, Scheme: core.MultiTMVLazy, Profile: prof, Seed: 2},
		{Machine: cfg, Scheme: core.MultiTSVLazy, Profile: prof, Seed: 1, Faults: &fc, Invariants: true},
	}

	co := cluster.NewCoordinator(cluster.Config{
		Name:     "loopback",
		LeaseTTL: 5 * time.Second,
		Tracer:   trace.New("coordinator"),
	})
	addr, err := co.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		// Each tracing worker ships its runner's retained spans home.
		runner := &exp.Runner{Tracer: trace.New(name)}
		runner.Tracer.Retain()
		w := cluster.NewWorker(cluster.WorkerConfig{
			Name: name, Coordinator: url, Poll: 20 * time.Millisecond, Runner: runner,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	stop := func() {
		cancel()
		wg.Wait()
		co.Stop()
	}
	client := &cluster.Client{URL: url, Name: "trace-client", Poll: 20 * time.Millisecond}
	got, err := client.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("job %d: %v", i, got[i].Err)
		}
		if !reflect.DeepEqual((&exp.Runner{}).Run(context.Background(), jobs[i], exp.Attempt{N: 1}).Result, got[i].Result) {
			t.Errorf("job %d: traced fleet result diverged from untraced serial run", i)
		}
	}

	campaign := co.Campaign()
	if campaign == "" {
		t.Fatal("coordinator minted no campaign ID")
	}

	// Phase-latency histograms on /metrics.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, m := range []string{
		"tls_fleet_queue_wait_ms", "tls_fleet_lease_hold_ms",
		"tls_fleet_attempt_wall_ms", "tls_fleet_result_delivery_ms",
		"tls_fleet_spans_collected",
	} {
		if !strings.Contains(metrics, m) {
			t.Errorf("/metrics missing %s", m)
		}
	}

	// The merged fleet trace: coordinator lanes plus worker lanes.
	spans := co.FleetSpans()
	if len(spans) == 0 {
		t.Fatal("no fleet spans collected")
	}
	byProc := map[string]int{}
	withCampaign := 0
	for _, sp := range spans {
		byProc[sp.Proc]++
		if sp.Campaign == campaign {
			withCampaign++
		}
	}
	if byProc["coordinator"] == 0 {
		t.Error("no coordinator spans")
	}
	workerProcs := 0
	for p := range byProc {
		if p != "coordinator" {
			workerProcs++
		}
	}
	if workerProcs == 0 {
		t.Errorf("no worker spans shipped home; procs: %v", byProc)
	}
	if withCampaign == 0 {
		t.Error("no span carries the campaign ID")
	}

	kinds := map[string]bool{}
	for _, sp := range spans {
		kinds[sp.Kind] = true
	}
	for _, k := range []string{trace.KindQueue, trace.KindLease, trace.KindAttempt, trace.KindComplete} {
		if !kinds[k] {
			t.Errorf("fleet spans missing kind %q", k)
		}
	}

	path := filepath.Join(t.TempDir(), "fleet.trace.json")
	if err := co.WriteFleetTrace(nil, path); err != nil {
		t.Fatal(err)
	}
	stop()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := report.ValidatePerfetto(f)
	if err != nil {
		t.Fatalf("fleet trace does not validate: %v", err)
	}
	if st.Processes < 2 {
		t.Errorf("fleet trace has %d processes, want coordinator + workers", st.Processes)
	}
	if st.FlowStarts == 0 {
		t.Error("fleet trace has no lease→attempt→complete flow arrows")
	}
	if st.SpanIDs == 0 {
		t.Error("fleet trace events carry no span correlation IDs")
	}
}

// TestFleetTraceWithoutTracerErrors locks the no-tracer diagnostics: a
// coordinator without a Tracer must refuse to write an empty fleet trace
// rather than produce a file that validates but shows nothing.
func TestFleetTraceWithoutTracerErrors(t *testing.T) {
	co := cluster.NewCoordinator(cluster.Config{Name: "untraced"})
	if err := co.WriteFleetTrace(nil, filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Fatal("WriteFleetTrace succeeded with no spans")
	}
}
