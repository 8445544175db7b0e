// Package fsck verifies — and optionally repairs — the durable state of a
// campaign offline: the append-only journal (WAL) and the content-addressed
// result cache. It is the recovery tool to run after a crash, power loss, or
// suspected disk trouble, before resuming a campaign.
//
// Verification applies the same durability rules the online recovery paths
// use (torn journal tails are forgivable, interior corruption is not; cache
// entries must carry a valid CRC), so a state directory that fscks clean
// will resume cleanly. Repair mode performs the
// same actions online recovery would — truncate the torn tail, quarantine
// corrupt entries with exp.QuarantineSuffix, remove temp litter — but does
// them eagerly and reports each one.
package fsck

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/exp"
	"repro/internal/iofault"
)

// Options selects what to check. Zero-value fields are skipped, so a
// journal-only or cache-only check is possible.
type Options struct {
	// Journal is the path of the campaign journal (WAL) to verify.
	Journal string
	// CacheDir is the result-cache directory to verify.
	CacheDir string
	// Repair applies fixes (truncate torn tail, quarantine corrupt files,
	// remove temp litter) instead of only reporting.
	Repair bool
	// FS is the filesystem seam; nil means the real OS.
	FS iofault.FS
	// Logf, when non-nil, receives one line per finding.
	Logf func(format string, args ...any)
}

// Report is the outcome of one fsck run.
type Report struct {
	// Campaign names the campaign this state belongs to: the correlation ID
	// stamped into the journal's records, with the header's human label in
	// parentheses when both are present.
	Campaign string `json:"campaign,omitempty"`
	// JournalRecords counts well-formed records replayed from the journal.
	JournalRecords int `json:"journal_records"`
	// JournalTornBytes is the length of the incomplete tail line, if any.
	JournalTornBytes int64 `json:"journal_torn_bytes"`
	// DoneJobs and LeasedJobs summarize the replayed campaign state.
	DoneJobs   int `json:"done_jobs"`
	LeasedJobs int `json:"leased_jobs"`

	// CacheScanned/Valid/Temps/Corrupt break down the cache directory.
	CacheScanned int `json:"cache_scanned"`
	CacheValid   int `json:"cache_valid"`
	CacheTemps   int `json:"cache_temps"`
	CacheCorrupt int `json:"cache_corrupt"`

	// Problems are integrity violations that block a clean resume (or would
	// have, before Repair fixed them). Repairs lists the fixes applied.
	// Warnings are advisory findings a resume tolerates by itself.
	Problems []string `json:"problems"`
	Repairs  []string `json:"repairs"`
	Warnings []string `json:"warnings"`
}

// Clean reports whether the state verified with no problems.
func (r *Report) Clean() bool { return len(r.Problems) == 0 }

// Summary renders the one-line outcome.
func (r *Report) Summary() string {
	status := "clean"
	if !r.Clean() {
		status = fmt.Sprintf("%d problems", len(r.Problems))
	}
	who := ""
	if r.Campaign != "" {
		who = fmt.Sprintf(" campaign %s:", r.Campaign)
	}
	return fmt.Sprintf("fsck:%s %s (%d journal records, %d torn bytes, cache %d/%d valid, %d repairs, %d warnings)",
		who, status, r.JournalRecords, r.JournalTornBytes, r.CacheValid, r.CacheScanned,
		len(r.Repairs), len(r.Warnings))
}

type checker struct {
	opts Options
	fs   iofault.FS
	rep  Report
}

func (c *checker) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

func (c *checker) problem(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	c.rep.Problems = append(c.rep.Problems, line)
	c.logf("fsck: problem: %s", line)
}

func (c *checker) repair(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	c.rep.Repairs = append(c.rep.Repairs, line)
	c.logf("fsck: repaired: %s", line)
}

func (c *checker) warn(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	c.rep.Warnings = append(c.rep.Warnings, line)
	c.logf("fsck: warning: %s", line)
}

// Run verifies (and with opts.Repair, repairs) the selected state.
func Run(opts Options) (*Report, error) {
	c := &checker{opts: opts, fs: opts.FS}
	if c.fs == nil {
		c.fs = iofault.Real
	}
	var state exp.CampaignState
	if opts.Journal != "" {
		st, err := c.checkJournal()
		if err != nil {
			return &c.rep, err
		}
		state = st
	}
	if opts.CacheDir != "" {
		if err := c.checkCache(state); err != nil {
			return &c.rep, err
		}
	}
	return &c.rep, nil
}

// checkJournal verifies the WAL: a torn (unterminated) tail line is a
// problem repairable by truncation — exactly what reopening the journal
// would do — while a malformed interior line is unrepairable corruption.
func (c *checker) checkJournal() (exp.CampaignState, error) {
	path := c.opts.Journal
	data, err := c.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			c.warn("journal %s does not exist (campaign never started, or state moved)", path)
			return exp.CampaignState{}, nil
		}
		return exp.CampaignState{}, fmt.Errorf("journal %s: %w", path, err)
	}
	complete := int64(0)
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		complete = int64(i + 1)
	}
	if torn := int64(len(data)) - complete; torn > 0 {
		c.rep.JournalTornBytes = torn
		c.problem("journal %s: torn tail (%d bytes past last complete record)", path, torn)
		if c.opts.Repair {
			if err := c.truncate(path, complete); err != nil {
				return exp.CampaignState{}, fmt.Errorf("truncating torn tail of %s: %w", path, err)
			}
			c.repair("journal %s truncated to %d bytes (dropped torn tail)", path, complete)
			data = data[:complete]
		}
	}
	recs, err := exp.ReadJournal(path)
	if err != nil {
		// ReadJournal forgives only a torn final line; any other parse error
		// is interior corruption that replay cannot skip safely.
		c.problem("journal %s: interior corruption: %v", path, err)
		return exp.CampaignState{}, nil
	}
	c.rep.JournalRecords = len(recs)
	state := exp.ReplayJournal(recs)
	switch {
	case state.Campaign != "":
		c.rep.Campaign = state.Campaign
	case state.Name != "":
		c.rep.Campaign = state.Name
	}
	c.rep.DoneJobs = len(state.Done)
	c.rep.LeasedJobs = len(state.Leases)
	for key, w := range state.Leases {
		c.warn("journal %s: job %s still leased to %s; resume will re-queue it", path, key, w)
	}
	return state, nil
}

// checkCache verifies every entry in the cache directory and cross-checks
// the journal's completed jobs against the keys the entries actually store.
func (c *checker) checkCache(state exp.CampaignState) error {
	dir := c.opts.CacheDir
	entries, err := c.fs.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			c.warn("cache directory %s does not exist", dir)
			return nil
		}
		return fmt.Errorf("cache %s: %w", dir, err)
	}
	keys := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(dir, name)
		c.rep.CacheScanned++
		switch {
		case strings.HasSuffix(name, ".tmp"):
			c.rep.CacheTemps++
			c.problem("cache %s: stale temp file %s (writer died mid-publish)", dir, name)
			if c.opts.Repair {
				if err := c.fs.Remove(path); err != nil {
					c.problem("cache %s: removing stale temp %s: %v", dir, name, err)
				} else {
					c.repair("cache %s: removed stale temp %s", dir, name)
				}
			}
		case strings.HasSuffix(name, ".json"):
			data, err := c.fs.ReadFile(path)
			if err != nil {
				c.problem("cache %s: unreadable entry %s: %v", dir, name, err)
				continue
			}
			key, ok := exp.DecodeCacheEntry(data)
			if !ok {
				c.rep.CacheCorrupt++
				c.problem("cache %s: corrupt entry %s (bad checksum or malformed payload)", dir, name)
				c.quarantine(path, "cache entry")
				continue
			}
			c.rep.CacheValid++
			keys[key] = true
		case strings.HasSuffix(name, exp.QuarantineSuffix):
			c.warn("cache %s: previously quarantined file %s (inspect or delete)", dir, name)
		}
	}
	// Cross-check: a completed job whose cache entry is gone forces a
	// re-execution at resume. Advisory only — a version bump between runs
	// legitimately orphans entries, which is indistinguishable offline.
	for key := range state.Done {
		if len(keys) > 0 && !keys[key] {
			c.warn("cache %s: no entry stores completed job %q; resume will re-execute it", dir, key)
		}
	}
	return nil
}

// quarantine renames a corrupt file aside (Repair mode only), mirroring the
// cache's online heal scan.
func (c *checker) quarantine(path, what string) {
	if !c.opts.Repair {
		return
	}
	if err := c.fs.Rename(path, path+exp.QuarantineSuffix); err != nil {
		c.problem("quarantining corrupt %s %s: %v", what, path, err)
		return
	}
	c.repair("quarantined corrupt %s %s", what, path)
}

// truncate shortens path to size through the seam.
func (c *checker) truncate(path string, size int64) error {
	f, err := c.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}
