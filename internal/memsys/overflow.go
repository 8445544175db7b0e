package memsys

import "repro/internal/ids"

// versionKey identifies one version of one line.
type versionKey struct {
	tag      LineAddr
	producer ids.TaskID
}

// Overflow is the per-processor special memory area into which speculative
// versions displaced from the cache hierarchy safely overflow under AMM
// schemes ([16], modelled in Section 4.1 of the paper). It prevents
// processor stalls on cache conflicts, but "such an overflow area is slow
// when asked to return versions, which especially hurts when committing a
// task" — the timing model charges OverflowAccess cycles for every retrieval
// from here.
//
// Besides the version store itself, the area keeps a per-task index in
// spill order so that commit-time drains visit lines deterministically (map
// iteration order must never reach the timing model) and without
// allocating. Index lists may lag behind individual retrievals — entries
// are checked against the store when the index is read — and are recycled
// once their task drains or is dropped.
type Overflow struct {
	entries map[versionKey]WordMask
	// byTask lists each task's spilled line addresses in first-spill order;
	// a listed address whose entry has been retrieved is skipped on read.
	byTask map[ids.TaskID][]LineAddr
	// listFree pools the per-task lists of drained/dropped tasks.
	listFree [][]LineAddr

	// Statistics.
	spills     uint64
	retrievals uint64
	peak       int
}

// NewOverflow returns an empty overflow area.
func NewOverflow() *Overflow {
	return &Overflow{
		entries: make(map[versionKey]WordMask),
		byTask:  make(map[ids.TaskID][]LineAddr),
	}
}

// Spill stores a displaced speculative version.
func (o *Overflow) Spill(tag LineAddr, producer ids.TaskID, written WordMask) {
	k := versionKey{tag, producer}
	if _, ok := o.entries[k]; !ok {
		l, exists := o.byTask[producer]
		if !exists && len(o.listFree) > 0 {
			n := len(o.listFree)
			l = o.listFree[n-1]
			o.listFree = o.listFree[:n-1]
		}
		// A spill-retrieve-respill cycle leaves the tag listed; don't list it
		// twice or TaskCount would overcount.
		dup := false
		for _, t := range l {
			if t == tag {
				dup = true
				break
			}
		}
		if !dup {
			l = append(l, tag)
		}
		o.byTask[producer] = l
	}
	o.entries[k] |= written
	o.spills++
	if len(o.entries) > o.peak {
		o.peak = len(o.entries)
	}
}

// Has reports whether the exact version is in the overflow area.
func (o *Overflow) Has(tag LineAddr, producer ids.TaskID) bool {
	_, ok := o.entries[versionKey{tag, producer}]
	return ok
}

// Retrieve removes and returns the version, recording the (slow) access.
// The task's index entry is left to lazy cleanup.
func (o *Overflow) Retrieve(tag LineAddr, producer ids.TaskID) (WordMask, bool) {
	k := versionKey{tag, producer}
	w, ok := o.entries[k]
	if ok {
		delete(o.entries, k)
		o.retrievals++
	}
	return w, ok
}

// TaskCount returns how many versions owned by task are currently
// overflowed, without allocating.
func (o *Overflow) TaskCount(task ids.TaskID) int {
	n := 0
	for _, tag := range o.byTask[task] {
		if _, ok := o.entries[versionKey{tag, task}]; ok {
			n++
		}
	}
	return n
}

// DrainTask retrieves every version owned by task in first-spill order,
// calling visit for each, then releases the task's index. It is the
// allocation-free, deterministic commit-time drain ("especially hurts when
// committing a task" — the caller charges the per-line retrieval cost).
func (o *Overflow) DrainTask(task ids.TaskID, visit func(tag LineAddr, written WordMask)) {
	list, ok := o.byTask[task]
	if !ok {
		return
	}
	for _, tag := range list {
		k := versionKey{tag, task}
		w, live := o.entries[k]
		if !live {
			continue // retrieved individually earlier
		}
		delete(o.entries, k)
		o.retrievals++
		visit(tag, w)
	}
	delete(o.byTask, task)
	o.listFree = append(o.listFree, list[:0])
}

// TaskLines returns the line addresses of versions owned by task, in
// first-spill order. Commit of a task with overflowed state must visit all
// of them; prefer TaskCount/DrainTask on hot paths (this form allocates).
func (o *Overflow) TaskLines(task ids.TaskID) []LineAddr {
	var out []LineAddr
	for _, tag := range o.byTask[task] {
		if _, ok := o.entries[versionKey{tag, task}]; ok {
			out = append(out, tag)
		}
	}
	return out
}

// DropTask removes every version owned by task (squash recovery) and
// returns how many were dropped.
func (o *Overflow) DropTask(task ids.TaskID) int {
	n := 0
	list, ok := o.byTask[task]
	if !ok {
		return 0
	}
	for _, tag := range list {
		k := versionKey{tag, task}
		if _, live := o.entries[k]; live {
			delete(o.entries, k)
			n++
		}
	}
	delete(o.byTask, task)
	o.listFree = append(o.listFree, list[:0])
	return n
}

// Len returns the number of versions currently overflowed.
func (o *Overflow) Len() int { return len(o.entries) }

// Stats returns cumulative (spills, retrievals, peak occupancy).
func (o *Overflow) Stats() (spills, retrievals uint64, peak int) {
	return o.spills, o.retrievals, o.peak
}

// Reset empties the area and zeroes its statistics, keeping its maps and
// per-task lists for reuse, whatever they held.
func (o *Overflow) Reset() {
	for _, l := range o.byTask {
		o.listFree = append(o.listFree, l[:0])
	}
	clear(o.entries)
	clear(o.byTask)
	o.spills, o.retrievals, o.peak = 0, 0, 0
}
