package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/iofault"
)

// Crash-consistency of the journal WAL: record a realistic append sequence
// through the iofault recorder, enumerate every durable state a power cut
// could leave, and require that recovery (OpenJournal's torn-tail
// truncation + ReplayJournal) loses no acknowledged record and accepts no
// torn partial line.
func TestJournalCrashConsistency(t *testing.T) {
	root := t.TempDir()
	rec := iofault.NewRecorder(root)
	path := filepath.Join(root, "journal.jsonl")
	j, err := OpenJournalFS(rec, path)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"job-a", "job-b", "job-c"}
	appendRec := func(r JournalRecord, note string) {
		t.Helper()
		if err := j.Append(r); err != nil {
			t.Fatalf("append %v: %v", r, err)
		}
		rec.Note(note)
	}
	appendRec(JournalRecord{T: RecCampaign, Name: "drill"}, "campaign")
	for _, k := range keys {
		appendRec(JournalRecord{T: RecLease, Key: k, Worker: "local"}, "lease:"+k)
		appendRec(JournalRecord{T: RecJobDone, Key: k}, "done:"+k)
	}
	j.Close()

	err = iofault.ForEachCrashState(rec.Trace(), t.TempDir(), func(s iofault.CrashState, dir string) error {
		jp := filepath.Join(dir, "journal.jsonl")
		// Recovery step 1: reopen (truncates any torn tail), as -resume does.
		if _, err := os.Stat(jp); err == nil {
			j2, err := OpenJournal(jp)
			if err != nil {
				return fmt.Errorf("reopen: %v", err)
			}
			j2.Close()
		}
		// Recovery step 2: replay.
		var st CampaignState
		if _, err := os.Stat(jp); err == nil {
			st, err = LoadCampaign(jp)
			if err != nil {
				return fmt.Errorf("replay: %v", err)
			}
		} else if len(s.Acked) > 0 {
			return fmt.Errorf("journal file lost after %d acked appends", len(s.Acked))
		}
		// Invariant 1: every acknowledged record is visible in the replay.
		for _, note := range s.Acked {
			kind, key, ok := strings.Cut(note, ":")
			if !ok {
				continue
			}
			switch kind {
			case "done":
				if !st.Done[key] {
					return fmt.Errorf("acked done record for %s lost (done=%v)", key, st.Done)
				}
			case "lease":
				// A later done record legitimately clears the lease.
				if _, inflight := st.Leases[key]; !inflight && !st.Done[key] {
					return fmt.Errorf("acked lease for %s lost", key)
				}
			}
		}
		// Invariant 2: nothing invented — replayed keys all come from the
		// recorded campaign.
		for k := range st.Done {
			if k != "job-a" && k != "job-b" && k != "job-c" {
				return fmt.Errorf("replay invented done key %q", k)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A zero-length journal file — the lax crash state of a journal created but
// never appended to — must open and replay as an empty campaign.
func TestJournalZeroLengthFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open zero-length journal: %v", err)
	}
	defer j.Close()
	st, err := LoadCampaign(path)
	if err != nil {
		t.Fatalf("replay zero-length journal: %v", err)
	}
	if len(st.Done) != 0 || len(st.Leases) != 0 {
		t.Fatalf("zero-length journal replayed state %+v", st)
	}
	// And it must still be appendable.
	if err := j.Append(JournalRecord{T: RecCampaign, Name: "x"}); err != nil {
		t.Fatal(err)
	}
}

// ENOSPC mid-append: the record must not be acknowledged, the journal must
// poison itself (no retry-and-report-success), and a reopen must recover
// every previously acknowledged record.
func TestJournalENOSPCMidAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	inj := iofault.NewInjector(iofault.Plan{Seed: 11})
	j, err := OpenJournalFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{T: RecJobDone, Key: "ok-1"}); err != nil {
		t.Fatal(err)
	}
	// Every write from here on is short (ENOSPC after a prefix).
	inj.SetShortWrites(1)
	err = j.Append(JournalRecord{T: RecJobDone, Key: "lost"})
	if err == nil {
		t.Fatal("append with ENOSPC mid-write acknowledged")
	}
	// Poisoned: a retry must fail fast, not corrupt the log.
	if err := j.Append(JournalRecord{T: RecJobDone, Key: "retry"}); err == nil {
		t.Fatal("append on poisoned journal acknowledged")
	}
	if j.Broken() == nil {
		t.Fatal("journal not marked broken")
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen after ENOSPC: %v", err)
	}
	j2.Close()
	st, err := LoadCampaign(path)
	if err != nil {
		t.Fatalf("replay after ENOSPC: %v", err)
	}
	if !st.Done["ok-1"] {
		t.Fatal("acked record ok-1 lost")
	}
	if st.Done["lost"] || st.Done["retry"] {
		t.Fatalf("unacknowledged record survived: %v", st.Done)
	}
}

// A journal whose final fsync failed: the unsynced line is dropped (fsyncgate
// drops the pages), the append was not acknowledged, and replay after reboot
// yields exactly the acknowledged prefix.
func TestJournalFailedFinalFsync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	inj := iofault.NewInjector(iofault.Plan{Seed: 12})
	j, err := OpenJournalFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(JournalRecord{T: RecJobDone, Key: fmt.Sprintf("ok-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	inj.SetSyncFailures(1) // the next fsync fails
	err = j.Append(JournalRecord{T: RecJobDone, Key: "unsynced"})
	if err == nil {
		t.Fatal("append with failed fsync acknowledged")
	}
	if j.Broken() == nil {
		t.Fatal("journal not poisoned after failed fsync")
	}
	j.Close()

	st, err := LoadCampaign(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for i := 0; i < 3; i++ {
		if !st.Done[fmt.Sprintf("ok-%d", i)] {
			t.Fatalf("acked record ok-%d lost", i)
		}
	}
	if st.Done["unsynced"] {
		t.Fatal("record whose fsync failed was replayed as durable")
	}
}
