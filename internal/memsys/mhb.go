package memsys

import (
	"slices"

	"repro/internal/ids"
)

// LogEntry is one record of the memory-system history buffer: before task
// Overwriter generated its own version of line Tag, the most recent local
// version (produced by Producer, possibly None for architectural data) was
// saved. Both IDs are required for recovery: the producer ID "cannot be
// deduced from the task that overwrites the version" (Section 3.3.4,
// Figure 7-(c)).
type LogEntry struct {
	Tag        LineAddr
	Producer   ids.TaskID // task that produced the saved version; None = architectural
	Overwriter ids.TaskID // task whose write caused the save
}

// MHB is the per-processor, sequentially-accessed undo log (ULOG) that
// implements the memory-system history buffer of FMM schemes. Entries are
// appended in program order of the local tasks; recovery walks them in
// strict reverse order.
type MHB struct {
	entries []LogEntry

	// Statistics.
	appends  uint64
	restored uint64
	peak     int
}

// NewMHB returns an empty log.
func NewMHB() *MHB {
	return &MHB{}
}

// Append records that overwriter saved producer's version of tag before
// overwriting it. A processor executes its tasks in increasing task-ID
// order (and recovery pops the squashed suffix before re-execution), so the
// log is append-only in non-decreasing overwriter order; Append panics if a
// caller violates that, since reverse-order recovery depends on it.
func (m *MHB) Append(tag LineAddr, producer, overwriter ids.TaskID) {
	if n := len(m.entries); n > 0 && overwriter.Before(m.entries[n-1].Overwriter) {
		panic("memsys: MHB append out of local program order")
	}
	m.entries = append(m.entries, LogEntry{Tag: tag, Producer: producer, Overwriter: overwriter})
	m.appends++
	if len(m.entries) > m.peak {
		m.peak = len(m.entries)
	}
}

// Len returns the number of live entries.
func (m *MHB) Len() int { return len(m.entries) }

// EntriesOverwrittenBy returns how many live entries were created by the
// given overwriting task; recovery cost is proportional to this.
func (m *MHB) EntriesOverwrittenBy(task ids.TaskID) int {
	n := 0
	for _, e := range m.entries {
		if e.Overwriter == task {
			n++
		}
	}
	return n
}

// PopForRecovery removes every entry whose overwriter is at or after
// firstSquashed and appends them to dst in the order they must be undone
// (youngest first, the reverse of insertion order), returning the extended
// slice. This is FMM recovery: "copying all the versions overwritten by the
// offending task and successors from the MHB to main memory, in strict
// reverse task order". Passing a reused dst[:0] keeps recovery
// allocation-free.
func (m *MHB) PopForRecovery(dst []LogEntry, firstSquashed ids.TaskID) []LogEntry {
	start := len(dst)
	kept := m.entries[:0]
	for _, e := range m.entries {
		if e.Overwriter == firstSquashed || e.Overwriter.After(firstSquashed) {
			dst = append(dst, e)
		} else {
			kept = append(kept, e)
		}
	}
	m.entries = kept
	slices.Reverse(dst[start:])
	m.restored += uint64(len(dst) - start)
	return dst
}

// ReleaseCommitted frees entries whose overwriter has committed: once the
// overwriting task is safe, the saved older version can never be needed
// again (the analogue of freeing a history-buffer entry at instruction
// commit in Smith & Pleszkun). Returns the number freed.
func (m *MHB) ReleaseCommitted(committedThrough ids.TaskID) int {
	kept := m.entries[:0]
	freed := 0
	for _, e := range m.entries {
		if e.Overwriter == committedThrough || e.Overwriter.Before(committedThrough) {
			freed++
		} else {
			kept = append(kept, e)
		}
	}
	m.entries = kept
	return freed
}

// Stats returns cumulative (appends, entries restored by recovery, peak
// live size).
func (m *MHB) Stats() (appends, restored uint64, peak int) {
	return m.appends, m.restored, m.peak
}

// Reset empties the log and zeroes its statistics, keeping its array.
func (m *MHB) Reset() {
	*m = MHB{entries: m.entries[:0]}
}
