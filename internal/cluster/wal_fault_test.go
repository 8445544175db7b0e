package cluster

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/iofault"
)

// Crash-consistency of the coordinator WAL: replay a coordinator-shaped
// record stream (campaign header, leases, completions, lease returns)
// through the crash-state enumerator and require that -resume reconstructs
// a safe state from every possible crash: every acknowledged completion is
// Done, and every acknowledged-but-unresolved lease is either re-queued
// (still in Leases) or already Done — never silently dropped as if the job
// had never been handed out.
func TestCoordinatorWALCrashConsistency(t *testing.T) {
	root := t.TempDir()
	rec := iofault.NewRecorder(root)
	path := filepath.Join(root, "wal.jsonl")
	j, err := exp.OpenJournalFS(rec, path)
	if err != nil {
		t.Fatal(err)
	}
	appendRec := func(r exp.JournalRecord, note string) {
		t.Helper()
		if err := j.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
		rec.Note(note)
	}
	appendRec(exp.JournalRecord{T: exp.RecCampaign, Name: "fleet"}, "campaign")
	// job-a: leased and completed.
	appendRec(exp.JournalRecord{T: exp.RecLease, Key: "job-a", Worker: "w1", Lease: 1}, "lease:job-a")
	appendRec(exp.JournalRecord{T: exp.RecJobDone, Key: "job-a", Worker: "w1"}, "done:job-a")
	// job-b: leased, lease voided (worker died), re-leased to another worker.
	appendRec(exp.JournalRecord{T: exp.RecLease, Key: "job-b", Worker: "w2", Lease: 2}, "lease:job-b")
	appendRec(exp.JournalRecord{T: exp.RecLeaseReturn, Key: "job-b", Worker: "w2", Lease: 2}, "return:job-b")
	appendRec(exp.JournalRecord{T: exp.RecLease, Key: "job-b", Worker: "w3", Lease: 3}, "release:job-b")
	// job-c: leased and still in flight at the crash.
	appendRec(exp.JournalRecord{T: exp.RecLease, Key: "job-c", Worker: "w1", Lease: 4}, "lease:job-c")
	appendRec(exp.JournalRecord{T: exp.RecJobDone, Key: "job-b", Worker: "w3"}, "done:job-b")
	j.Close()

	err = iofault.ForEachCrashState(rec.Trace(), t.TempDir(), func(s iofault.CrashState, dir string) error {
		jp := filepath.Join(dir, "wal.jsonl")
		acked := map[string]bool{}
		for _, n := range s.Acked {
			acked[n] = true
		}
		// The coordinator's -resume path: reopen (truncating any torn tail)
		// then replay.
		j2, err := exp.OpenJournal(jp)
		if err != nil {
			if len(s.Acked) == 0 {
				return nil // nothing was promised yet; a missing WAL is legal
			}
			return fmt.Errorf("reopen WAL: %v", err)
		}
		j2.Close()
		st, err := exp.LoadCampaign(jp)
		if err != nil {
			return fmt.Errorf("replay WAL: %v", err)
		}
		// Acked completions are never lost.
		for _, key := range []string{"job-a", "job-b"} {
			if acked["done:"+key] && !st.Done[key] {
				return fmt.Errorf("acked completion of %s lost (done=%v)", key, st.Done)
			}
		}
		// An acked, unresolved lease must surface at resume: the job is
		// either still leased (re-queued by the coordinator) or done.
		if acked["lease:job-c"] && !st.Done["job-c"] {
			if _, leased := st.Leases["job-c"]; !leased {
				return fmt.Errorf("acked in-flight lease for job-c dropped (leases=%v)", st.Leases)
			}
		}
		// A voided lease stays voided until the re-lease lands: job-b must
		// not resurrect lease L2/w2 once the return is durable and the
		// re-lease is not.
		if acked["return:job-b"] && !acked["release:job-b"] && !acked["done:job-b"] {
			if w := st.Leases["job-b"]; w == "w2" {
				return fmt.Errorf("voided lease for job-b resurrected on worker %s", w)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A completed result the cache cannot persist (here: the directory sync
// behind the entry's rename fails) must not fail the job, but it must be
// counted — on /metrics and in the local executor's -metrics line — rather
// than silently stop caching fleet results.
func TestCompleteCountsCachePutFailure(t *testing.T) {
	inj := iofault.NewInjector(iofault.Plan{Seed: 21})
	cache, err := exp.NewCacheFS(inj, filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(Config{Cache: cache, StealAfter: -1})
	spec := submitOne(t, co, 1)
	lr := co.LeaseJobs(LeaseRequest{Worker: "w1", Max: 1})
	inj.SetSyncFailures(1)
	resp := co.Complete(CompleteRequest{
		Worker: "w1", Lease: lr.Leases[0].ID, Key: spec.Key,
		Env: sealOutcome(t, Outcome{Key: spec.Key, Worker: "w1", Attempts: 1}),
	})
	if !resp.Accepted || co.Counts().Done != 1 {
		t.Fatalf("a failed cache write must not fail the job: %+v", resp)
	}
	if put := co.Snapshot().CachePutErrors; put != 1 {
		t.Fatalf("cache-put errors = %d, want 1", put)
	}
	rec := httptest.NewRecorder()
	co.serveMetrics(rec, nil)
	if !strings.Contains(rec.Body.String(), "tls_fleet_cache_put_errors 1") {
		t.Fatalf("/metrics omits the cache-put failure:\n%s", rec.Body.String())
	}
}
