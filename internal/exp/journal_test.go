package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []JournalRecord{
		{T: RecCampaign, Name: "test"},
		{T: RecJobStart, Key: "k1", Label: "job one"},
		{T: RecLease, Key: "k1", Worker: "local", Lease: 1},
		{T: RecJobDone, Key: "k1"},
		{T: RecJobDone, Key: "k2", Err: "boom"},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Wall == "" {
			t.Fatalf("record %d: Wall not stamped", i)
		}
		got[i].Wall = ""
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestJournalTornTailForgivenAndTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(JournalRecord{T: RecJobStart, Key: "k1"})
	j.Append(JournalRecord{T: RecJobDone, Key: "k1"})
	j.Close()

	// Simulate a crash mid-append: a partial, unterminated JSON line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"job-start","key":"to`)
	f.Close()

	// Readers forgive the torn tail.
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn tail not forgiven: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}

	// Reopening for append truncates it so the log stays well-formed.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(JournalRecord{T: RecJobStart, Key: "k2"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	recs, err = ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Key != "k2" {
		t.Fatalf("after reopen+append: %+v", recs)
	}
	data, _ := os.ReadFile(path)
	if strings.Contains(string(data), `"to`) {
		t.Fatal("torn tail survived OpenJournal")
	}
}

func TestJournalInteriorCorruptionErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	content := `{"t":"job-start","key":"k1"}
not json at all
{"t":"job-done","key":"k1"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("interior corruption read without error")
	}
}

// TestReplayJournal folds a local campaign's log, and the same log as an
// older runner wrote it: its job-start and mid-run "checkpoint" records
// (with their ckpt and commits fields) replay as ignored.
func TestReplayJournal(t *testing.T) {
	current := []string{
		`{"t":"campaign","name":"sweep"}`,
		`{"t":"lease","key":"a","worker":"local","lease":1}`,
		`{"t":"lease","key":"b","worker":"local","lease":2}`,
		`{"t":"job-done","key":"b"}`,
		`{"t":"job-done","key":"c","err":"panic"}`,
		`{"t":"job-done","key":"c"}`, // a later success clears the failure
	}
	legacy := []string{
		`{"t":"campaign","name":"sweep"}`,
		`{"t":"job-start","key":"a"}`,
		`{"t":"lease","key":"a","worker":"local","lease":1}`,
		`{"t":"checkpoint","key":"a","ckpt":"a1.ckpt","commits":50}`,
		`{"t":"checkpoint","key":"a","ckpt":"a2.ckpt","commits":100}`,
		`{"t":"job-start","key":"b"}`,
		`{"t":"lease","key":"b","worker":"local","lease":2}`,
		`{"t":"checkpoint","key":"b","ckpt":"b.ckpt","commits":50}`,
		`{"t":"job-done","key":"b"}`,
		`{"t":"job-done","key":"c","err":"panic"}`,
		`{"t":"job-done","key":"c"}`,
	}
	load := func(lines []string) CampaignState {
		t.Helper()
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := LoadCampaign(path)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := load(current)
	if st.Name != "sweep" {
		t.Fatalf("campaign name %q", st.Name)
	}
	if !st.Done["b"] || !st.Done["c"] || st.Done["a"] {
		t.Fatalf("done set: %+v", st.Done)
	}
	if len(st.Leases) != 1 || st.Leases["a"] != "local" {
		t.Fatalf("leases: %+v, want only a, in flight", st.Leases)
	}
	if len(st.Failed) != 0 {
		t.Fatalf("failed set: %+v", st.Failed)
	}
	if old := load(legacy); !reflect.DeepEqual(old, st) {
		t.Fatalf("legacy journal replays to\n%+v\nwant\n%+v", old, st)
	}
}

// TestReplayJournalClusterRecords replays a fleet campaign's log: leases
// interleaved across workers, completions racing speculative re-issues, and
// lease returns from a drained worker.
func TestReplayJournalClusterRecords(t *testing.T) {
	st := ReplayJournal([]JournalRecord{
		{T: RecCampaign, Name: "fleet"},
		{T: RecLease, Key: "a", Worker: "w1", Lease: 1},
		{T: RecLease, Key: "b", Worker: "w2", Lease: 2},
		{T: RecLease, Key: "c", Worker: "w1", Lease: 3},
		// a completes on w1; the idle w1 steals a duplicate of b, and the
		// duplicate wins there.
		{T: RecJobDone, Key: "a", Worker: "w1"},
		{T: RecLease, Key: "b", Worker: "w1", Lease: 4},
		{T: RecJobDone, Key: "b", Worker: "w1"},
		// w2 drains and returns nothing further; c's lease is returned
		// (expiry) and re-granted to w2, which completes it with a payload.
		{T: RecLeaseReturn, Key: "c", Worker: "w1", Lease: 3},
		{T: RecLease, Key: "c", Worker: "w2", Lease: 5},
		{T: RecJobDone, Key: "c", Worker: "w2", Data: []byte(`{"n":1}`)},
		// d was leased and never heard from again: the resume must requeue it.
		{T: RecLease, Key: "d", Worker: "w2", Lease: 6},
	})
	if !st.Done["a"] || !st.Done["b"] || !st.Done["c"] {
		t.Fatalf("done set: %+v", st.Done)
	}
	if len(st.Leases) != 1 || st.Leases["d"] != "w2" {
		t.Fatalf("leases: %+v, want only d held by w2", st.Leases)
	}
	if string(st.Outcomes["c"]) != `{"n":1}` {
		t.Fatalf("outcome payload for c: %q", st.Outcomes["c"])
	}
	if len(st.Outcomes) != 1 {
		t.Fatalf("outcomes: %+v, want only c", st.Outcomes)
	}
}

// TestJournalTornTailMidLease crashes a coordinator mid-append of a lease
// record: readers forgive the torn tail, the replayed state does not contain
// the half-written lease, and reopening truncates it away.
func TestJournalTornTailMidLease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(JournalRecord{T: RecCampaign, Name: "fleet"})
	j.Append(JournalRecord{T: RecLease, Key: "a", Worker: "w1", Lease: 1})
	j.Append(JournalRecord{T: RecJobDone, Key: "a", Worker: "w1"})
	j.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"lease","key":"b","worker":"w2torn","leas`)
	f.Close()

	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn mid-lease tail not forgiven: %v", err)
	}
	st := ReplayJournal(recs)
	if !st.Done["a"] {
		t.Fatalf("done set: %+v", st.Done)
	}
	if len(st.Leases) != 0 {
		t.Fatalf("torn lease leaked into state: %+v", st.Leases)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(JournalRecord{T: RecLease, Key: "b", Worker: "w2", Lease: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	recs, err = ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	st = ReplayJournal(recs)
	if st.Leases["b"] != "w2" {
		t.Fatalf("re-appended lease lost: %+v", st.Leases)
	}
	data, _ := os.ReadFile(path)
	if strings.Contains(string(data), "w2torn") {
		t.Fatal("torn lease tail survived OpenJournal")
	}
}

func TestLoadCampaignMissingFile(t *testing.T) {
	if _, err := LoadCampaign(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("missing journal loaded without error")
	}
}

// Wall is operational context only: two runs of the same campaign under
// different wall clocks must replay to the same state, and with a fixed
// injected clock the journal bytes themselves are run-to-run identical.
func TestJournalWallIndependence(t *testing.T) {
	recs := []JournalRecord{
		{T: RecCampaign, Name: "wall"},
		{T: RecJobStart, Key: "k1"},
		{T: RecLease, Key: "k1", Worker: "local", Lease: 7},
		{T: RecJobDone, Key: "k1"},
		{T: RecJobDone, Key: "k2", Err: "boom"},
	}
	write := func(epoch int64) string {
		path := filepath.Join(t.TempDir(), "campaign.jsonl")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		tick := epoch
		j.SetClock(func() time.Time { tick++; return time.Unix(tick, 0) })
		for _, rec := range recs {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		return path
	}

	a, b := write(1_000_000), write(2_000_000)
	ra, err := ReadJournal(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ReadJournal(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra[0].Wall == rb[0].Wall {
		t.Fatal("clocks were injected but stamps agree; the test is vacuous")
	}
	if !reflect.DeepEqual(ReplayJournal(ra), ReplayJournal(rb)) {
		t.Error("replayed state depends on the Wall stamp")
	}

	// Identical injected clocks → byte-identical journals.
	da, _ := os.ReadFile(write(42))
	db, _ := os.ReadFile(write(42))
	if !reflect.DeepEqual(da, db) {
		t.Error("fixed clock did not make journal bytes reproducible")
	}
}
