package sim

import "repro/internal/memsys"

// Ablation knobs. These are not part of any paper scheme; they let the
// benchmark harness quantify design decisions DESIGN.md calls out.

// SetLineGranularityConflicts makes violation detection operate at cache-
// line granularity instead of the baseline protocol's word granularity
// ("triggers squashes only on out-of-order RAWs to the same word"). With
// line granularity, false sharing between tasks triggers spurious squashes;
// the ablation benchmark measures how much the word-level support buys.
// Call before Run.
func (s *Simulator) SetLineGranularityConflicts(on bool) {
	s.lineGranularity = on
}

// ForceMTID replaces the version-combining logic with the Zhang99&T
// alternative for in-order lazy merging (Section 3.3.3): main memory gains
// the task-ID filter and committed versions are written back without VCL
// combining/invalidation — memory itself rejects the stale ones. The two
// supports are functionally interchangeable for Lazy AMM; the ablation
// benchmark compares their behaviour and counts MTID's rejections. Call
// before Run.
func (s *Simulator) ForceMTID() {
	s.mem.Reset(true)
	s.forceMTID = true
}

// SetORBCommit switches eager merging from write-backs to ORB-style
// ownership requests (Steffan et al., discussed in Section 4.1's footnote):
// at commit, the task's modified non-owned lines are upgraded to owned with
// coherence requests instead of being written back; the data itself merges
// later, on displacement. Commit holds the token for less time, at the cost
// of the ORB table and a compatible protocol. Only meaningful for Eager AMM
// schemes. Call before Run.
func (s *Simulator) SetORBCommit(on bool) {
	s.orbCommit = on
}

// dirAddr maps an address to its conflict-detection granule.
func (s *Simulator) dirAddr(a memsys.Addr) memsys.Addr {
	if s.lineGranularity {
		return a.Line().Word(0)
	}
	return a
}
