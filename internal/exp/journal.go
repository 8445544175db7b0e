package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/iofault"
)

// The campaign journal is an append-only JSONL write-ahead log of a sweep's
// progress: one record per line, fsync'd as written, so after any crash the
// journal tells a resuming process which jobs completed (their results are
// in the cache) and which were in flight (a resume re-runs those from their
// start). The log is the source of truth for -resume on the campaign CLIs.
//
// Crash consistency: a record is appended (and synced) strictly AFTER the
// state it describes is durable — job-done after the cache Put returned.
// A torn final line (the process died mid-append) therefore never points at
// missing state; readers tolerate and discard it, and OpenJournal truncates
// it before appending so the log stays well-formed.

// Journal record types. Every campaign — local (`-jobs N` runs an
// in-process coordinator) or on a fleet — writes the same stream: the
// coordinator journals lease, lease-return and job-done records. Replay
// ignores any other type, such as the "checkpoint" records of older runners.
const (
	RecCampaign = "campaign"  // header: campaign name and metadata
	RecJobStart = "job-start" // written by older local runners; replay ignores it
	RecJobDone  = "job-done"  // the job finished (result cached, or Err)

	// A lease grants a job to a named worker; a lease-return voids the grant
	// without an outcome (worker drain, lease expiry, or a duplicate issue
	// losing the race). Job completion is RecJobDone, carrying the worker.
	RecLease       = "lease"        // job leased to a worker
	RecLeaseReturn = "lease-return" // lease voided without an outcome
)

// JournalRecord is one line of the campaign journal.
type JournalRecord struct {
	T string `json:"t"`
	// Wall is the wall-clock append time (operational context only; nothing
	// replays it).
	Wall string `json:"wall,omitempty"`
	// Name labels the campaign (RecCampaign).
	Name string `json:"name,omitempty"`
	// Campaign is the campaign correlation ID (trace.MintCampaign) that ties
	// this record to fleet spans, structured logs and fsck reports. Journals
	// opened through SetCampaign stamp it on every record.
	Campaign string `json:"campaign,omitempty"`
	// Key is the job's content hash — the join key against the result cache.
	Key   string `json:"key,omitempty"`
	Label string `json:"label,omitempty"`
	// Cached marks a job-done served from the cache without executing.
	Cached bool `json:"cached,omitempty"`
	// Worker names the fleet worker holding (RecLease, RecLeaseReturn) or
	// having produced (RecJobDone) the record, for cluster campaigns.
	Worker string `json:"worker,omitempty"`
	// Lease is the coordinator's lease ID (RecLease, RecLeaseReturn).
	Lease uint64 `json:"lease,omitempty"`
	// Err records a permanent failure (RecJobDone).
	Err string `json:"err,omitempty"`
	// Data carries the outcome of a completed chaotic job on its job-done
	// record: the coordinator's CRC-sealed envelope. The result cache never
	// holds chaotic jobs, so this is what lets a resume serve them without
	// re-running.
	Data json.RawMessage `json:"data,omitempty"`
}

// Journal is an open campaign journal. Appends are serialized and each is
// fsync'd before returning, so an acknowledged record survives kill -9.
//
// The journal enforces the fsyncgate rule: after the first failed write or
// fsync it is poisoned — every later Append fails with the original error
// instead of retrying, because the kernel may have dropped the dirty pages
// and a "successful" retry would acknowledge a record that is not on disk.
type Journal struct {
	mu       sync.Mutex
	fs       iofault.FS
	f        iofault.File
	path     string
	campaign string           // correlation ID stamped on every record
	broken   error            // sticky first append failure (fsyncgate poisoning)
	now      func() time.Time // clock behind the Wall stamp (tests, replay drills)
}

// OpenJournal opens (creating if necessary) the journal at path for
// appending. If the existing log ends in a torn line from a crashed writer,
// the tail is truncated away first so the log stays one valid record per
// line.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalFS(iofault.Real, path)
}

// OpenJournalFS is OpenJournal writing through an explicit filesystem seam
// (fault drills and crash-consistency tests inject one; nil means the real
// OS).
func OpenJournalFS(fsys iofault.FS, path string) (*Journal, error) {
	if fsys == nil {
		fsys = iofault.Real
	}
	dir := filepath.Dir(path)
	if dir != "." {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// Make the journal file itself durable: creating it is a directory
	// mutation, and an acknowledged record in a file whose name never
	// reached disk is still lost.
	if err := fsys.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: directory sync: %w", path, err)
	}
	end, err := completePrefixLen(fsys, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{fs: fsys, f: f, path: path, now: time.Now}, nil
}

// completePrefixLen returns the byte length of the file's longest prefix of
// complete ('\n'-terminated) lines.
func completePrefixLen(fsys iofault.FS, path string) (int64, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		return int64(i + 1), nil
	}
	return 0, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// SetClock replaces the clock behind the Wall stamp. Wall is operational
// context only — replay never reads it — but deterministic drills that
// byte-compare journals across runs inject a fixed clock here so the stamp
// stops being the one nondeterministic field on the line.
func (j *Journal) SetClock(now func() time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.now = now
}

// SetCampaign sets the campaign correlation ID stamped on every record
// appended from now on (records that already carry one keep theirs).
func (j *Journal) SetCampaign(id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.campaign = id
}

// Campaign returns the correlation ID set by SetCampaign.
func (j *Journal) Campaign() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.campaign
}

// Append durably writes one record: marshal, write the line, fsync. The
// record is on disk when Append returns nil; after any write or sync error
// the journal is poisoned and every later Append fails fast (see Broken).
func (j *Journal) Append(rec JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return fmt.Errorf("journal %s poisoned by earlier failure: %w", j.path, j.broken)
	}
	if rec.Wall == "" {
		rec.Wall = j.now().UTC().Format(time.RFC3339)
	}
	if rec.Campaign == "" {
		rec.Campaign = j.campaign
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := j.f.Write(data); err != nil {
		// A partial line may be on disk; appending more would corrupt an
		// interior line, and the torn-tail forgiveness only covers the
		// final one. Poison the journal.
		j.broken = err
		return err
	}
	if err := j.f.Sync(); err != nil {
		// fsyncgate: the kernel may have dropped the dirty pages while
		// marking them clean. Retrying the fsync could report success for
		// data that never reached disk, so the journal must never retry.
		j.broken = err
		return err
	}
	return nil
}

// Broken returns the sticky error that poisoned the journal, or nil while
// it is healthy.
func (j *Journal) Broken() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.broken
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ReadJournal reads every complete record in the journal at path. A torn
// final line (crash mid-append) is silently discarded; a malformed interior
// line is an error, because it means something other than a crashed
// appender wrote the file.
func ReadJournal(path string) ([]JournalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []JournalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var pendingErr error
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			// The malformed line was interior after all.
			return nil, pendingErr
		}
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Hold the error: if this turns out to be the last line, it is a
			// torn tail and is forgiven.
			pendingErr = fmt.Errorf("journal %s line %d: %w", path, lineNo, err)
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return recs, nil
}

// CampaignState is the resume-relevant digest of a journal: which jobs
// completed successfully, which failed, and which were still leased out.
type CampaignState struct {
	// Name is the campaign label from the header record, if any.
	Name string
	// Campaign is the correlation ID recovered from the journal's records,
	// so tools (tlsfsck) can name the campaign they verified.
	Campaign string
	// Done holds the keys of jobs whose job-done record reported success;
	// their results are in the cache (resume re-submits them and the cache
	// answers instantly).
	Done map[string]bool
	// Failed maps job keys to the recorded error of a permanent failure.
	Failed map[string]string
	// Leases maps job keys that were leased out (and neither completed nor
	// returned) to the worker last holding them. A resuming coordinator
	// re-queues these: the lease died with the previous process.
	Leases map[string]string
	// Outcomes maps completed job keys to the Data payload of their job-done
	// record: the outcomes of chaotic jobs (every tlschaos case, local or on
	// a fleet), which are not reconstructible from the result cache.
	Outcomes map[string]json.RawMessage
}

// ReplayJournal folds records into the state a resume needs.
func ReplayJournal(recs []JournalRecord) CampaignState {
	st := CampaignState{
		Done:     make(map[string]bool),
		Failed:   make(map[string]string),
		Leases:   make(map[string]string),
		Outcomes: make(map[string]json.RawMessage),
	}
	for _, rec := range recs {
		if st.Campaign == "" && rec.Campaign != "" {
			st.Campaign = rec.Campaign
		}
		switch rec.T {
		case RecCampaign:
			st.Name = rec.Name
		case RecLease:
			if rec.Key != "" {
				st.Leases[rec.Key] = rec.Worker
			}
		case RecLeaseReturn:
			delete(st.Leases, rec.Key)
		case RecJobDone:
			if rec.Key == "" {
				break
			}
			if rec.Err == "" {
				st.Done[rec.Key] = true
				delete(st.Failed, rec.Key)
				if rec.Data != nil {
					st.Outcomes[rec.Key] = rec.Data
				}
			} else {
				st.Failed[rec.Key] = rec.Err
			}
			delete(st.Leases, rec.Key)
		}
	}
	return st
}

// LoadCampaign reads and replays the journal at path.
func LoadCampaign(path string) (CampaignState, error) {
	recs, err := ReadJournal(path)
	if err != nil {
		return CampaignState{}, err
	}
	return ReplayJournal(recs), nil
}
