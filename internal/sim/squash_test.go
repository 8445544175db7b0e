package sim

import (
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/memsys"
	"repro/internal/rng"
)

// insertionRestoreOrder is the reference restore order: a stable insertion
// sort, youngest overwriter first, equal overwriters keeping their order in
// undo.
func insertionRestoreOrder(undo []memsys.LogEntry) {
	for i := 1; i < len(undo); i++ {
		for j := i; j > 0 && undo[j].Overwriter.After(undo[j-1].Overwriter); j-- {
			undo[j], undo[j-1] = undo[j-1], undo[j]
		}
	}
}

// TestRestoreOrderMatchesInsertionSort: over random per-processor logs,
// concatenated as recovery pops them, restoreOrder yields exactly the
// reference permutation. Overwriters come from a small range, so equal
// overwriters recur within one log and across processors, and a log is
// sometimes shuffled so that it is not monotone; restoreOrder must not lean
// on the runs it is handed.
func TestRestoreOrderMatchesInsertionSort(t *testing.T) {
	r := rng.New(24)
	for trial := 0; trial < 2000; trial++ {
		procs := 1 + r.Intn(16)
		maxTask := 1 + r.Intn(40)
		var undo []memsys.LogEntry
		for p := 0; p < procs; p++ {
			n := r.Intn(60)
			log := make([]memsys.LogEntry, n)
			for i := range log {
				log[i] = memsys.LogEntry{
					// A distinct tag per entry makes every permutation visible.
					Tag:        memsys.LineAddr(len(undo) + i),
					Producer:   ids.TaskID(r.Intn(maxTask)),
					Overwriter: ids.TaskID(1 + r.Intn(maxTask)),
				}
			}
			switch r.Intn(3) {
			case 0: // youngest first, as PopForRecovery returns a log
				slices.SortStableFunc(log, func(a, b memsys.LogEntry) int {
					return int(b.Overwriter) - int(a.Overwriter)
				})
			case 1: // ascending, as the log was appended
				slices.SortStableFunc(log, func(a, b memsys.LogEntry) int {
					return int(a.Overwriter) - int(b.Overwriter)
				})
			}
			undo = append(undo, log...)
		}
		want := slices.Clone(undo)
		insertionRestoreOrder(want)
		restoreOrder(undo)
		if !slices.Equal(undo, want) {
			t.Fatalf("trial %d (%d procs, tasks 1..%d): restore order differs from the stable insertion sort", trial, procs, maxTask)
		}
	}
}
