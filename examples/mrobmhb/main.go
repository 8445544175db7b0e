// Mrobmhb: reproduce Figure 7 — how the same program fragment lands in the
// memory-system reorder buffer (AMM) versus the memory-system history
// buffer (FMM).
//
// Two tasks run on the same processor; both write variable X at 0x400
// (task i writes 2, task i+j writes 10, in the paper's example). Under AMM
// the cache ends up holding both speculative versions, tagged with their
// producer task IDs — the local slice of the distributed MROB. Under FMM
// the newest version takes X's place and the older version is saved in the
// MHB, tagged with both the producer and the overwriter, because the
// producer "cannot be deduced from the task that overwrites the version".
package main

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/memsys"
)

func main() {
	const x = memsys.Addr(0x400)
	taskI := ids.TaskID(4)  // "task i"
	taskIJ := ids.TaskID(7) // "task i+j"

	fmt.Println("Figure 7. Implementing the MROB and the MHB")
	fmt.Println()
	fmt.Printf("Task %v writes 2 to %v; task %v writes 10 to %v (same processor)\n\n",
		taskI, x, taskIJ, x)

	// (b) AMM: the cache is the local MROB — one line per version, tagged
	// with the producer task ID (CTID).
	cache := memsys.NewCache(memsys.Config{Name: "L2", SizeBytes: 4 * memsys.LineBytes, Ways: 4})
	cache.Insert(x.Line(), taskI, memsys.KindOwnVersion)
	cache.Insert(x.Line(), taskIJ, memsys.KindOwnVersion)

	fmt.Println("(b) AMM cache = local MROB:")
	fmt.Printf("    %-8s %-10s %-6s\n", "TaskID", "Tag", "Kind")
	cache.ForEach(func(l *memsys.Line) {
		fmt.Printf("    %-8v %-10v %-6v\n", l.Producer, l.Tag, l.Kind)
	})
	fmt.Println()

	// The CRL: an external read by a later task selects the highest
	// producer at or below the reader.
	for _, reader := range []ids.TaskID{5, 9} {
		best := cache.BestVersionFor(x.Line(), reader)
		fmt.Printf("    CRL: a read by %v receives %v's version\n", reader, best.Producer)
	}
	fmt.Println()

	// (c) FMM: the newest version takes X's place; the MHB saves the
	// overwritten version with producer AND overwriter IDs.
	fmmCache := memsys.NewCache(memsys.Config{Name: "L2", SizeBytes: 4 * memsys.LineBytes, Ways: 4})
	mhb := memsys.NewMHB()
	fmmCache.Insert(x.Line(), taskI, memsys.KindOwnVersion)
	// Task i+j overwrites: the most recent local version (task i's) is
	// saved in the MHB first.
	prev := fmmCache.BestVersionFor(x.Line(), taskIJ)
	mhb.Append(x.Line(), prev.Producer, taskIJ)
	fmmCache.Invalidate(x.Line(), taskI)
	fmmCache.Insert(x.Line(), taskIJ, memsys.KindOwnVersion)

	fmt.Println("(c) FMM cache (future state) + MHB:")
	fmt.Printf("    cache: %-8s %-10s\n", "TaskID", "Tag")
	fmmCache.ForEach(func(l *memsys.Line) {
		fmt.Printf("           %-8v %-10v\n", l.Producer, l.Tag)
	})
	fmt.Printf("    MHB:   %-10s %-10s %-10s\n", "Overwriter", "Producer", "Tag")
	undo := mhb.PopForRecovery(nil, ids.TaskID(1)) // drain for display
	for _, e := range undo {
		fmt.Printf("           %-10v %-10v %-10v\n", e.Overwriter, e.Producer, e.Tag)
	}
	fmt.Println()
	fmt.Println("On a squash of task i+j, recovery copies task i's version back from")
	fmt.Println("the MHB to main memory — in strict reverse task order across the")
	fmt.Println("distributed MHBs. Under AMM, recovery just invalidates the squashed")
	fmt.Println("MROB entries.")
}
