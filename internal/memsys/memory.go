package memsys

import "repro/internal/ids"

// Memory models main memory's version state. Under AMM it holds only
// architectural (safe) data; under FMM it holds the latest future state and
// uses the memory task-ID (MTID) support to selectively reject write-backs
// of versions older than the one it already has, keeping memory updated "in
// increasing task-ID order for any given variable" without the VCL.
type Memory struct {
	mtidEnabled bool
	version     PageTable[LineAddr, ids.TaskID] // latest producer merged per line; None = absent

	// Statistics.
	writebacks uint64
	rejected   uint64
}

// NewMemory returns an empty memory. When mtid is true the memory carries
// task-ID tags per line and filters stale write-backs; when false every
// write-back is accepted (the caller — an AMM scheme using the VCL — must
// itself guarantee in-order merging).
func NewMemory(mtid bool) *Memory {
	return &Memory{mtidEnabled: mtid}
}

// Reset makes m the memory NewMemory(mtid) returns, keeping its tag pages
// for reuse: every line back to its architectural data and statistics
// zeroed.
func (m *Memory) Reset(mtid bool) {
	m.version.Reset()
	*m = Memory{mtidEnabled: mtid, version: m.version}
}

// MTIDEnabled reports whether the memory filters stale write-backs.
func (m *Memory) MTIDEnabled() bool { return m.mtidEnabled }

// Version returns the producer of the version currently in memory for tag
// (None when only the pre-section architectural data is there).
func (m *Memory) Version(tag LineAddr) ids.TaskID { return m.version.Get(tag) }

// WriteBack merges a version into memory. With MTID, the write-back is
// discarded if memory already holds a version from the same or a later
// task; it returns whether the write-back was accepted. Without MTID every
// write-back is accepted in arrival order. Only task versions are written
// back: producer None (the architectural data) panics.
func (m *Memory) WriteBack(tag LineAddr, producer ids.TaskID) bool {
	if producer == ids.None {
		panic("memsys: write-back of the architectural version")
	}
	m.writebacks++
	if m.mtidEnabled && !m.version.Get(tag).Before(producer) {
		m.rejected++
		return false
	}
	m.version.Put(tag, producer)
	return true
}

// Restore forces a version into memory, bypassing the MTID filter. FMM
// recovery uses it: the undo walk writes strictly older versions back over
// squashed future state, in reverse task order. Restoring None returns the
// line to its architectural data.
func (m *Memory) Restore(tag LineAddr, producer ids.TaskID) {
	m.version.Put(tag, producer)
}

// Stats returns cumulative (write-backs attempted, write-backs rejected by
// MTID).
func (m *Memory) Stats() (writebacks, rejected uint64) {
	return m.writebacks, m.rejected
}
