package exp_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/obs/trace"
)

// TestFlightRecorderDumpOnPanic is the panic post-mortem lock: a job that
// panics on every execution must leave a quarantine manifest containing the
// runner's flight-recorder dump — the attempt spans of every execution, with
// campaign and attempt correlation — next to the checkpoints, with no tracer
// configured (the always-on internal ring, shared by every lease of the
// batch, must cover the uninstrumented case).
func TestFlightRecorderDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	jobs := []exp.Job{{Machine: nil, Profile: exp.TinyProfile(), Seed: 1}} // nil machine panics
	l := &cluster.Local{Workers: 1, Runner: exp.Runner{CheckpointDir: dir}}
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
	l := &cluster.Local{Workers: 1, Runner: exp.Runner{CheckpointDir: dir}}
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
	// A fresh executor over the same checkpoint directory executes the job
	// again, and the first manifest survives.
	l = &cluster.Local{Workers: 1, Runner: exp.Runner{CheckpointDir: dir}}
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
