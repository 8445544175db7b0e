package memsys

import (
	"fmt"
	"sort"

	"repro/internal/ids"
)

// This file is the checkpoint surface of the memory system. Every state
// struct is fully exported (the checkpoint codec is encoding/gob, which
// skips unexported fields) and serializes in a canonical order so identical
// simulator states produce identical checkpoint bytes.
//
// Byte-exactness of a restored run leans on two subtleties here:
//   - Cache lines restore into their exact way slots with their exact
//     lastUse ticks, because LRU victim selection and the way-order walks
//     (ForVersionsOf, BestVersionFor ties) depend on both.
//   - Overflow per-task index lists restore verbatim, including entries
//     whose version has been retrieved: the re-spill duplicate check and the
//     commit-time drain order read the raw list.

// CacheLineState is one valid cache way in a checkpoint.
type CacheLineState struct {
	Way      int32 // index into the cache's lines slice
	Tag      LineAddr
	Producer ids.TaskID
	Kind     LineKind
	Written  WordMask
	LastUse  uint64
}

// CacheState is the serializable state of a Cache.
type CacheState struct {
	Sets    int
	Ways    int
	Lines   []CacheLineState // valid lines in way order
	UseTick uint64

	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// State captures the cache for a checkpoint.
func (c *Cache) State() CacheState {
	s := CacheState{
		Sets: c.sets, Ways: c.ways, UseTick: c.useTick,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
	for i := range c.lines {
		l := &c.lines[i]
		if !l.Valid() {
			continue
		}
		s.Lines = append(s.Lines, CacheLineState{
			Way: int32(i), Tag: l.Tag, Producer: l.Producer,
			Kind: l.Kind, Written: l.Written, LastUse: l.lastUse,
		})
	}
	return s
}

// RestoreState reinstates a checkpointed cache. The geometry must match the
// machine configuration the cache was built with.
func (c *Cache) RestoreState(s CacheState) error {
	if s.Sets != c.sets || s.Ways != c.ways {
		return fmt.Errorf("memsys: cache %s geometry mismatch: checkpoint %dx%d, machine %dx%d",
			c.cfg.Name, s.Sets, s.Ways, c.sets, c.ways)
	}
	c.Flush()
	for _, ls := range s.Lines {
		if int(ls.Way) < 0 || int(ls.Way) >= len(c.lines) {
			return fmt.Errorf("memsys: cache %s way %d out of range", c.cfg.Name, ls.Way)
		}
		c.unlist(int(ls.Way)) // a repeated way: the last record wins
		c.lines[ls.Way] = Line{
			Tag: ls.Tag, Producer: ls.Producer, Kind: ls.Kind,
			Written: ls.Written, lastUse: ls.LastUse,
		}
		if ls.Kind == KindOwnVersion {
			// The producer index is derived state; rebuild it.
			c.list(int(ls.Way))
		}
	}
	c.useTick = s.UseTick
	c.hits, c.misses, c.evictions = s.Hits, s.Misses, s.Evictions
	return nil
}

// OverflowEntryState is one spilled version in a checkpoint.
type OverflowEntryState struct {
	Tag      LineAddr
	Producer ids.TaskID
	Written  WordMask
}

// OverflowTaskState is one task's spill-order index list, verbatim.
type OverflowTaskState struct {
	Task ids.TaskID
	Tags []LineAddr
}

// OverflowState is the serializable state of an Overflow area.
type OverflowState struct {
	Entries []OverflowEntryState // sorted by (tag, producer)
	ByTask  []OverflowTaskState  // sorted by task; lists verbatim

	Spills     uint64
	Retrievals uint64
	Peak       int
}

// State captures the overflow area for a checkpoint.
func (o *Overflow) State() OverflowState {
	s := OverflowState{Spills: o.spills, Retrievals: o.retrievals, Peak: o.peak}
	for k, w := range o.entries {
		s.Entries = append(s.Entries, OverflowEntryState{Tag: k.tag, Producer: k.producer, Written: w})
	}
	sort.Slice(s.Entries, func(i, j int) bool {
		if s.Entries[i].Tag != s.Entries[j].Tag {
			return s.Entries[i].Tag < s.Entries[j].Tag
		}
		return s.Entries[i].Producer < s.Entries[j].Producer
	})
	for task, list := range o.byTask {
		s.ByTask = append(s.ByTask, OverflowTaskState{
			Task: task, Tags: append([]LineAddr(nil), list...),
		})
	}
	sort.Slice(s.ByTask, func(i, j int) bool { return s.ByTask[i].Task < s.ByTask[j].Task })
	return s
}

// RestoreState reinstates a checkpointed overflow area.
func (o *Overflow) RestoreState(s OverflowState) {
	o.entries = make(map[versionKey]WordMask, len(s.Entries))
	for _, e := range s.Entries {
		o.entries[versionKey{e.Tag, e.Producer}] = e.Written
	}
	o.byTask = make(map[ids.TaskID][]LineAddr, len(s.ByTask))
	for _, t := range s.ByTask {
		o.byTask[t.Task] = append([]LineAddr(nil), t.Tags...)
	}
	o.listFree = nil
	o.spills, o.retrievals, o.peak = s.Spills, s.Retrievals, s.Peak
}

// MHBState is the serializable state of an MHB undo log.
type MHBState struct {
	Entries []LogEntry // live entries in append order

	Appends  uint64
	Restored uint64
	Peak     int
}

// State captures the undo log for a checkpoint.
func (m *MHB) State() MHBState {
	return MHBState{
		Entries: append([]LogEntry(nil), m.entries...),
		Appends: m.appends, Restored: m.restored, Peak: m.peak,
	}
}

// RestoreState reinstates a checkpointed undo log.
func (m *MHB) RestoreState(s MHBState) {
	m.entries = append(m.entries[:0], s.Entries...)
	m.appends, m.restored, m.peak = s.Appends, s.Restored, s.Peak
}

// MemoryVersionState is one line's merged version in a checkpoint.
type MemoryVersionState struct {
	Tag      LineAddr
	Producer ids.TaskID
}

// MemoryState is the serializable state of a Memory.
type MemoryState struct {
	MTIDEnabled bool
	Versions    []MemoryVersionState // sorted by tag

	Writebacks uint64
	Rejected   uint64
}

// State captures main memory for a checkpoint.
func (m *Memory) State() MemoryState {
	s := MemoryState{MTIDEnabled: m.mtidEnabled, Writebacks: m.writebacks, Rejected: m.rejected}
	m.version.Ascend(func(tag LineAddr, producer ids.TaskID) {
		s.Versions = append(s.Versions, MemoryVersionState{Tag: tag, Producer: producer})
	})
	return s
}

// RestoreState reinstates checkpointed main memory, including whether the
// MTID filter is armed.
func (m *Memory) RestoreState(s MemoryState) {
	m.mtidEnabled = s.MTIDEnabled
	m.version = PageTable[LineAddr, ids.TaskID]{}
	for _, v := range s.Versions {
		m.version.Put(v.Tag, v.Producer)
	}
	m.writebacks, m.rejected = s.Writebacks, s.Rejected
}
