package exp_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFlightRecorderDumpOnPanic is the panic post-mortem lock: a job that
// panics on every execution must leave a quarantine manifest containing the
// runner's flight-recorder dump — the attempt spans of every execution, with
// campaign and attempt correlation — in the post-mortem directory, with no
// tracer configured (the always-on internal ring, shared by every lease of
// the batch, must cover the uninstrumented case).
func TestFlightRecorderDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	jobs := []exp.Job{{Machine: nil, Profile: exp.TinyProfile(), Seed: 1}} // nil machine panics
	l := &cluster.Local{Workers: 1, Runner: exp.Runner{PostMortemDir: dir}}
	results, err := l.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || results[0].Attempts != 2 {
		t.Fatalf("crashing job: err %v after %d attempts, want an error after 2", results[0].Err, results[0].Attempts)
	}

	path := filepath.Join(dir, jobs[0].Key()+".quarantine.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("quarantine manifest not written: %v", err)
	}
	var m exp.QuarantineManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Key != jobs[0].Key() || m.Campaign == "" || m.Err == "" {
		t.Fatalf("manifest header wrong: %+v", m)
	}
	if len(m.FlightRecorder) == 0 {
		t.Fatal("manifest carries no flight-recorder spans")
	}
	attempts := map[int]bool{}
	for _, sp := range m.FlightRecorder {
		if sp.ID == 0 {
			t.Fatal("flight-recorder span has no ID")
		}
		if sp.Campaign != m.Campaign {
			t.Fatalf("span %s carries campaign %q, manifest %q", sp.Kind, sp.Campaign, m.Campaign)
		}
		if sp.Kind == trace.KindAttempt && sp.Key == m.Key {
			if sp.Err == "" || sp.Flow == 0 {
				t.Fatalf("attempt span lacks its error or lease flow: %+v", sp)
			}
			attempts[sp.Attempt] = true
		}
	}
	if !attempts[1] || !attempts[2] {
		t.Fatalf("flight recorder holds attempts %v, want both executions 1 and 2", attempts)
	}
}

// TestQuarantineManifestOnlyOnFirst checks the manifest is written once per
// key: re-running the same failing job must not rewrite (and so not truncate
// or clobber) the original post-mortem.
func TestQuarantineManifestOnlyOnFirst(t *testing.T) {
	dir := t.TempDir()
	jobs := []exp.Job{{Machine: nil, Profile: exp.TinyProfile(), Seed: 2}}
	l := &cluster.Local{Workers: 1, Runner: exp.Runner{PostMortemDir: dir}}
	if _, err := l.RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, jobs[0].Key()+".quarantine.json")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A repeat on the same executor is answered from its coordinator: the
	// failure is reported again without executing.
	again, err := l.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s := l.Snapshot(); again[0].Err == nil || s.Total != 2 || s.Errors != 2 || s.Retries != 1 {
		t.Fatalf("repeat on the same executor: err %v, snapshot %+v", again[0].Err, s)
	}
	// A fresh executor over the same post-mortem directory executes the job
	// again, and the first manifest survives.
	l = &cluster.Local{Workers: 1, Runner: exp.Runner{PostMortemDir: dir}}
	if _, err := l.RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if s := l.Snapshot(); s.Errors != 1 || s.Retries != 1 {
		t.Fatalf("fresh executor did not re-execute the failing job: %+v", s)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("quarantine manifest rewritten on a repeat failure")
	}
}

// TestWatchdogProgressPostMortem is the watchdog post-mortem lock: a real
// job that outlives its deadline is halted at its next commit, and the
// halted run leaves <key>.progress.json in the post-mortem directory —
// where the run was, plus both flight recorders — and nothing that looks
// like a checkpoint. The runner's flight recorder in the dump holds the
// timed-out attempt.
func TestWatchdogProgressPostMortem(t *testing.T) {
	dir := t.TempDir()
	jobs := []exp.Job{{Machine: machine.NUMA16(), Scheme: core.MultiTMVLazy, Profile: workload.Euler(), Seed: 1}}
	l := &cluster.Local{Workers: 1, Runner: exp.Runner{JobTimeout: 20 * time.Millisecond, PostMortemDir: dir}}
	results, err := l.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].TimedOut {
		t.Fatalf("job was not stopped by the watchdog: %+v", results[0])
	}
	path := filepath.Join(dir, jobs[0].Key()+".progress.json")
	var rep struct {
		Progress          sim.ProgressReport `json:"progress"`
		Campaign          string             `json:"campaign"`
		FlightRecorder    []trace.Span       `json:"flight_recorder"`
		SimFlightRecorder []sim.FlightEntry  `json:"sim_flight_recorder"`
	}
	// The dump is written by the halted simulation's goroutine, which may
	// still be on its way to its next commit.
	var data []byte
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress report at %s: %v", path, err)
		}
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("progress report is not valid JSON: %v", err)
	}
	if rep.Progress.Cycle == 0 || rep.Progress.App != "Euler" || len(rep.Progress.Procs) != 16 {
		t.Fatalf("progress report does not place the run: %+v", rep.Progress)
	}
	if rep.Campaign == "" || len(rep.SimFlightRecorder) == 0 {
		t.Fatalf("post-mortem lacks its campaign (%q) or the simulator's flight recorder (%d entries)",
			rep.Campaign, len(rep.SimFlightRecorder))
	}
	attempt := false
	for _, sp := range rep.FlightRecorder {
		attempt = attempt || sp.Kind == trace.KindAttempt && sp.Key == jobs[0].Key() && sp.Err != ""
	}
	if !attempt {
		t.Fatalf("runner flight recorder does not hold the timed-out attempt: %+v", rep.FlightRecorder)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(ckpts) != 0 {
		t.Fatalf("post-mortem directory holds checkpoint files %v (err %v)", ckpts, err)
	}
}
