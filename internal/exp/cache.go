package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"log/slog"
	"path/filepath"
	"runtime/debug"
	"strings"

	"repro/internal/iofault"
	"repro/internal/sim"
)

// cacheSchemaVersion invalidates every on-disk entry when the serialized
// format — or the meaning of any Job input — changes incompatibly. Bump it
// whenever sim.Result or the simulation semantics change.
// v2: checksummed entries (Check over the payload bytes).
const cacheSchemaVersion = "exp-cache-v2"

// QuarantineSuffix is appended to the name of a corrupt cache file when the
// heal scan (or tlsfsck) sets it aside: the file stays inspectable but can
// never serve a hit.
const QuarantineSuffix = ".quarantined"

// cacheVersion combines the schema version with the module's build version
// so a rebuilt binary with different simulation code never serves stale
// results.
func cacheVersion() string {
	v := cacheSchemaVersion
	if info, ok := debug.ReadBuildInfo(); ok {
		v += "/" + info.Main.Version
		if info.Main.Sum != "" {
			v += "@" + info.Main.Sum
		}
	}
	return v
}

// Cache is a persistent on-disk result cache: one JSON file per completed
// job, keyed by the job's content hash plus the cache version. Entries for
// jobs whose inputs change are simply never looked up again; delete the
// directory to reclaim the space.
//
// The cache self-heals: every entry carries a CRC over its payload, and the
// startup scan (NewCache) quarantines files that are truncated or corrupt —
// the torn writes a kill -9 or power cut mid-campaign can leave — instead
// of erroring or silently serving them.
type Cache struct {
	dir     string
	version string
	fs      iofault.FS
	// Logf receives heal-scan failure lines (a torn entry that could not
	// even be quarantined must be visible, or the scan finds it again every
	// startup). Defaults to the standard logger.
	Logf func(format string, args ...any)

	lastHeal HealReport
}

// HealReport summarizes one self-healing scan of the cache directory.
type HealReport struct {
	// Scanned counts directory entries examined.
	Scanned int
	// RemovedTemps counts stale temp files deleted (a writer died between
	// CreateTemp and rename; the entry was never published).
	RemovedTemps int
	// Quarantined counts corrupt entries renamed aside with
	// QuarantineSuffix.
	Quarantined int
	// QuarantineFailures counts corrupt entries whose quarantine rename
	// failed. Each is logged; without the count a heal scan that cannot
	// quarantine would rediscover the same torn file forever.
	QuarantineFailures int
	// RemoveFailures counts files that could be neither quarantined nor
	// removed (the fallback when the rename fails).
	RemoveFailures int
}

// Dirty reports whether the scan changed or failed to change anything.
func (h HealReport) Dirty() bool {
	return h.RemovedTemps+h.Quarantined+h.QuarantineFailures+h.RemoveFailures > 0
}

// String renders the one-line operator summary.
func (h HealReport) String() string {
	return fmt.Sprintf("cache heal: %d scanned, %d temps removed, %d quarantined, %d quarantine failures, %d remove failures",
		h.Scanned, h.RemovedTemps, h.Quarantined, h.QuarantineFailures, h.RemoveFailures)
}

// NewCache opens (creating if necessary) a cache rooted at dir and runs the
// self-healing scan: stale temp files are removed and unreadable entries
// are renamed aside with QuarantineSuffix so they are inspectable but can
// never serve a hit.
func NewCache(dir string) (*Cache, error) {
	return NewCacheFS(iofault.Real, dir)
}

// NewCacheFS is NewCache writing through an explicit filesystem seam (fault
// drills and crash-consistency tests inject one; nil means the real OS).
func NewCacheFS(fsys iofault.FS, dir string) (*Cache, error) {
	if fsys == nil {
		fsys = iofault.Real
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Cache{dir: dir, version: cacheVersion(), fs: fsys}
	c.lastHeal = c.Heal()
	return c, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// fsys returns the cache's filesystem seam, defaulting to the real OS so a
// zero-value or literal-constructed Cache still works.
func (c *Cache) fsys() iofault.FS {
	if c.fs != nil {
		return c.fs
	}
	return iofault.Real
}

// LastHeal returns the report of the most recent self-healing scan.
func (c *Cache) LastHeal() HealReport { return c.lastHeal }

func (c *Cache) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
		return
	}
	slog.Info(fmt.Sprintf(format, args...), "component", "cache")
}

// Heal runs the self-healing scan and returns its report. Scan failures are
// deliberately tolerated: a cache that cannot be healed still works as a
// cache (corrupt entries read as misses); healing only keeps the directory
// tidy and observable. Failures to quarantine, however, are counted and
// logged — silently ignoring them would hide a wedged directory behind an
// eternally-rediscovered torn file.
func (c *Cache) Heal() HealReport {
	var rep HealReport
	entries, err := c.fsys().ReadDir(c.dir)
	if err != nil {
		return rep
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(c.dir, name)
		rep.Scanned++
		switch {
		case e.IsDir():
		case strings.HasSuffix(name, ".tmp"):
			// A writer died between CreateTemp and rename; the entry it was
			// building was never published, so the temp is pure litter.
			if err := c.fsys().Remove(path); err == nil {
				rep.RemovedTemps++
			} else {
				rep.RemoveFailures++
				c.logf("exp cache: heal: removing stale temp %s: %v", path, err)
			}
		case strings.HasSuffix(name, ".json"):
			data, err := c.fsys().ReadFile(path)
			if err == nil && validEntryBytes(data) {
				continue
			}
			if qerr := c.fsys().Rename(path, path+QuarantineSuffix); qerr != nil {
				rep.QuarantineFailures++
				c.logf("exp cache: heal: quarantining corrupt entry %s: %v", path, qerr)
				// Last resort: a corrupt entry that can be neither renamed
				// nor removed would be rediscovered by every future scan.
				if rerr := c.fsys().Remove(path); rerr != nil {
					rep.RemoveFailures++
					c.logf("exp cache: heal: removing unquarantinable entry %s: %v", path, rerr)
				}
			} else {
				rep.Quarantined++
			}
		}
	}
	c.lastHeal = rep
	return rep
}

// cacheEntry is the on-disk record: the payload's raw JSON plus a CRC-32C
// over exactly those bytes, so truncation and bit rot are detected without
// trusting the JSON decoder to notice.
type cacheEntry struct {
	Check   uint32          `json:"check"`
	Payload json.RawMessage `json:"payload"`
}

// cachePayload is the checksummed content. Key and Version are stored so a
// hash collision or a stale file can never masquerade as a hit.
type cachePayload struct {
	Key     string
	Version string
	Result  sim.Result
}

var cacheCRC = crc32.MakeTable(crc32.Castagnoli)

// validEntryBytes reports whether data parses as a well-formed, checksummed
// entry (regardless of which job or cache version it belongs to).
func validEntryBytes(data []byte) bool {
	_, ok := DecodeCacheEntry(data)
	return ok
}

// DecodeCacheEntry validates data as a checksummed cache entry and returns
// the job key it stores. It is the integrity check tlsfsck runs offline:
// the CRC must match and the payload must parse, but the entry may belong
// to any job or cache version.
func DecodeCacheEntry(data []byte) (key string, ok bool) {
	var e cacheEntry
	if json.Unmarshal(data, &e) != nil || e.Payload == nil {
		return "", false
	}
	if crc32.Checksum(e.Payload, cacheCRC) != e.Check {
		return "", false
	}
	var p cachePayload
	if json.Unmarshal(e.Payload, &p) != nil {
		return "", false
	}
	return p.Key, true
}

// path derives the entry filename from the job hash and the cache version.
func (c *Cache) path(j Job) string {
	sum := sha256.Sum256([]byte(j.Key() + "\n" + c.version))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16])+".json")
}

// Get returns the cached result for j, if a valid entry exists. Corrupt,
// checksum-failing, or mismatched entries are treated as misses.
func (c *Cache) Get(j Job) (sim.Result, bool) {
	data, err := c.fsys().ReadFile(c.path(j))
	if err != nil {
		return sim.Result{}, false
	}
	var e cacheEntry
	if json.Unmarshal(data, &e) != nil || e.Payload == nil {
		return sim.Result{}, false
	}
	if crc32.Checksum(e.Payload, cacheCRC) != e.Check {
		return sim.Result{}, false
	}
	var p cachePayload
	if json.Unmarshal(e.Payload, &p) != nil || p.Key != j.Key() || p.Version != c.version {
		return sim.Result{}, false
	}
	return p.Result, true
}

// Put stores the result for j durably and atomically: the entry is written
// to a temp file, fsync'd, renamed over the final name, and the directory
// is fsync'd — so after Put returns nil, a crash (even kill -9 or power
// loss) leaves either no entry or the complete entry, never a torn one. A
// failed directory sync is an error: the rename may not survive a power
// cut, so the entry cannot be reported durable.
func (c *Cache) Put(j Job, r sim.Result) error {
	payload, err := json.Marshal(cachePayload{Key: j.Key(), Version: c.version, Result: r})
	if err != nil {
		return err
	}
	data, err := json.Marshal(cacheEntry{Check: crc32.Checksum(payload, cacheCRC), Payload: payload})
	if err != nil {
		return err
	}
	tmp, err := c.fsys().CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		c.fsys().Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		c.fsys().Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		c.fsys().Remove(tmp.Name())
		return err
	}
	if err := c.fsys().Rename(tmp.Name(), c.path(j)); err != nil {
		c.fsys().Remove(tmp.Name())
		return err
	}
	if err := c.fsys().SyncDir(c.dir); err != nil {
		return fmt.Errorf("cache %s: directory sync after publishing %s: %w", c.dir, j.Key(), err)
	}
	return nil
}
