package sim

import (
	"sync"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// Recycling (DESIGN.md §10). A campaign builds one simulator per job, and
// each one grows the same per-simulation storage: every processor's L1 and
// L2 line arrays with their producer index, overflow area, undo log and
// op buffer, the version directory's chunks, slabs, index pages and task
// marks, main memory's tag pages and the section-end merge buffer. Release
// parks a finished simulation's storage as the process's spare set, and
// New builds the next simulation on it instead of allocating. Every part
// is reset to the state its constructor returns, so results are
// bit-identical. What is parked is live heap, which the collector's heap
// goal doubles, so a set never carries storage its next simulation will
// not fill: storage sized by the machine (caches) is reused only at
// exactly its geometry, storage sized by the workload's footprint (the
// directory, memory, op buffers) only by the same workload, processors
// beyond the machine's count are dropped, and each part keeps only what
// its last simulation used.

// parts is one simulation's reusable storage.
type parts struct {
	dir       *coherence.Directory
	mem       *memsys.Memory
	procs     []*processor
	lingering []lingering // finishSection's gather buffer
	// workload names the workload whose footprint sized dir, mem and the
	// op buffers.
	workload string
}

// spare is the parked set. There is only one: a set waits between one
// simulation's end and the next one's start, two simulations rarely end
// at the same moment, and a second set would mostly wait out a batch's
// tail, live heap that the collector's heap goal doubles. Unlike a
// sync.Pool entry, the set survives garbage collections, which a campaign
// triggers between most simulations.
var spare struct {
	sync.Mutex
	set *parts
}

// takeParts returns the storage a simulation of workload on cfg builds
// on: the spare set, trimmed to both, or an empty set when there is none.
func takeParts(cfg *machine.Config, workload string) *parts {
	spare.Lock()
	pt := spare.set
	spare.set = nil
	spare.Unlock()
	if pt == nil {
		return &parts{workload: workload}
	}
	if pt.workload != workload {
		pt.dir, pt.mem, pt.workload = nil, nil, workload
		for _, p := range pt.procs {
			p.opBuf = nil
		}
	}
	if len(pt.procs) > cfg.Procs {
		clear(pt.procs[cfg.Procs:])
		pt.procs = pt.procs[:cfg.Procs]
	}
	for _, p := range pt.procs {
		if p.l1.Config() != cfg.L1 {
			p.l1 = nil
		}
		if p.l2.Config() != cfg.L2 {
			p.l2 = nil
		}
	}
	return pt
}

// directory returns the set's version directory, reset.
func (pt *parts) directory() *coherence.Directory {
	if pt.dir == nil {
		pt.dir = coherence.NewDirectory()
	} else {
		pt.dir.Reset()
	}
	return pt.dir
}

// memory returns the set's main memory, reset.
func (pt *parts) memory(mtid bool) *memsys.Memory {
	if pt.mem == nil {
		pt.mem = memsys.NewMemory(mtid)
	} else {
		pt.mem.Reset(mtid)
	}
	return pt.mem
}

// processor returns processor i of a machine cfg, reset; the caller sets
// its continuation.
func (pt *parts) processor(i int, cfg *machine.Config) *processor {
	if i == len(pt.procs) {
		pt.procs = append(pt.procs, &processor{ovf: memsys.NewOverflow(), mhb: memsys.NewMHB()})
	}
	p := pt.procs[i]
	p.ovf.Reset()
	p.mhb.Reset()
	*p = processor{
		id: ids.ProcID(i), l1: cacheOf(p.l1, cfg.L1), l2: cacheOf(p.l2, cfg.L2),
		ovf: p.ovf, mhb: p.mhb,
		local: p.local[:0], redo: p.redo[:0], opBuf: p.opBuf[:0],
	}
	return p
}

// cacheOf returns c reset, or a new cache when there is none.
func cacheOf(c *memsys.Cache, cfg memsys.Config) *memsys.Cache {
	if c == nil {
		return memsys.NewCache(cfg)
	}
	c.Reset()
	return c
}

// Release parks the simulator's storage as the spare set the next
// simulation built in this process starts from (unless a set is parked
// already; then this one goes to the garbage collector). The simulator
// must not be used afterwards: call Release once the Result, any verdict
// derived from the final state and any progress report have been taken.
// A halted or crashed run may be released too; its storage is reset like
// any other.
func (s *Simulator) Release() {
	pt := s.parts
	if pt == nil {
		return
	}
	// A parked set must not keep the run alive: drop the processors'
	// tasks and continuation closures (which hold the simulator) and,
	// unless the workload generates into the buffers it is given, the op
	// buffers (a workload.Trace hands out streams it owns).
	_, ownBufs := s.gen.(*workload.Generator)
	for _, p := range s.procs {
		clear(p.local[:cap(p.local)])
		clear(p.redo[:cap(p.redo)])
		p.cur, p.cont = nil, nil
		if !ownBufs {
			p.opBuf = nil
		}
	}
	s.parts, s.dir, s.mem, s.procs = nil, nil, nil, nil
	spare.Lock()
	if spare.set == nil {
		spare.set = pt
	}
	spare.Unlock()
}

// DropSpare hands the parked set, if any, to the garbage collector. A
// worker with no job to start calls it, so a slot that is waiting out the
// end of a batch holds no simulation's storage while the others finish.
func DropSpare() {
	spare.Lock()
	spare.set = nil
	spare.Unlock()
}
