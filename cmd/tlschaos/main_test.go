package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
)

// flipCampaign runs a 2-seed flip-tag campaign through the local runner,
// as `tlschaos -seeds 2 -faults flip-tag` does.
func flipCampaign(t *testing.T) []outcome {
	t.Helper()
	selection, flips, err := parseFaults("flip-tag")
	if err != nil || !flips {
		t.Fatalf("parseFaults(flip-tag) = flips %v, err %v", flips, err)
	}
	cfg := machine.NUMA16()
	var cases []chaosCase
	var jobs []exp.Job
	for seed := uint64(1); seed <= 2; seed++ {
		for _, sch := range []core.Scheme{core.MultiTMVEager, core.MultiTMVLazy, core.MultiTMVFMM} {
			c := chaosCase{Seed: seed, Scheme: sch}
			cases = append(cases, c)
			jobs = append(jobs, caseJob(c, cfg, selection))
		}
	}
	local := &cluster.Local{FailLimit: 1, Runner: exp.Runner{JobTimeout: 20 * time.Second}}
	return runBatch(context.Background(), local, cases, jobs)
}

// captureStdout runs f and returns what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	f()
	os.Stdout = saved
	w.Close()
	return <-out
}

// TestFlipTagCampaignRecordReplay locks the -record/-replay contract: a
// flip-tag campaign's corruption is detected, its records round-trip, and
// replaying them reproduces every verdict with the campaign exit codes.
func TestFlipTagCampaignRecordReplay(t *testing.T) {
	outcomes := flipCampaign(t)
	selection, _, _ := parseFaults("flip-tag")
	var recs []record
	for _, o := range outcomes {
		if o.failed(true) {
			t.Fatalf("seed %d %v: flip-tag case crashed or hung: %s", o.Case.Seed, o.Case.Scheme, verdict(o))
		}
		if o.detected() {
			recs = append(recs, toRecord(o, "NUMA16", "numa16", "flip-tag", selection))
		}
	}
	if len(recs) == 0 {
		t.Fatal("flip-tag campaign injected corruption the checker never detected")
	}

	path := filepath.Join(t.TempDir(), "failures.json")
	if err := writeRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("records do not round-trip:\ngot  %+v\nwant %+v", got, recs)
	}

	// Replay reproduces each recorded run exactly. Detected corruption is
	// the drill's success, not a failure, so a clean replay exits 0.
	var code int
	printed := captureStdout(t, func() { code = replayRecords(path, 20*time.Second) })
	if code != 0 {
		t.Fatalf("replaying detected flip-tag cases exited %d, want 0", code)
	}
	for _, rec := range recs {
		want := fmt.Sprintf("cycles %d, faults injected: %s", rec.Cycles, rec.Injected)
		if !strings.Contains(printed, want) {
			t.Fatalf("replay of seed %d %s did not reproduce %q:\n%s", rec.Seed, rec.Scheme, want, printed)
		}
	}
	// A replay whose cases still fail exits 1: here every case outruns a
	// watchdog deadline too short for any simulation to finish.
	captureStdout(t, func() { code = replayRecords(path, time.Nanosecond) })
	if code != 1 {
		t.Fatalf("replay with every case failing exited %d, want 1", code)
	}
	if code := replayRecords(filepath.Join(t.TempDir(), "missing.json"), time.Second); code != 2 {
		t.Fatalf("replay of a missing recording exited %d, want 2", code)
	}
}
