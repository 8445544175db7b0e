// Package machine defines the two architectures of the paper's evaluation
// (Section 4.1) — a 16-node CC-NUMA and an 8-processor CMP — as parameter
// sets: cache geometries, the published minimum round-trip latencies, and
// the derived costs of the buffering mechanisms (commit write-backs,
// overflow-area accesses, undo-log maintenance and recovery).
package machine

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/interconnect"
	"repro/internal/memsys"
)

// Kind distinguishes the two machine families.
type Kind uint8

const (
	// NUMA is the scalable CC-NUMA machine.
	NUMA Kind = iota
	// CMP is the chip multiprocessor.
	CMP
)

func (k Kind) String() string {
	switch k {
	case NUMA:
		return "NUMA"
	case CMP:
		return "CMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Config is one simulated machine. All latencies are round-trip cycles as
// in the paper; occupancies model contention.
type Config struct {
	Name  string
	Kind  Kind
	Procs int

	// Cache geometries.
	L1 memsys.Config
	L2 memsys.Config

	// Round-trip latencies (Section 4.1).
	LatL1          event.Time // processor to L1
	LatL2          event.Time // processor to L2
	LatMemLocal    event.Time // memory in the local node (NUMA) / off-chip memory (CMP)
	LatMemRemote   event.Time // memory in a remote node, 2 protocol hops (NUMA); = LatMemLocal on CMP
	LatCacheRemote event.Time // dirty data in another processor's cache: 3 protocol hops (NUMA), other L2 (CMP)
	LatL3          event.Time // shared L3 (CMP only; 0 when absent)

	// Overflow area: a per-processor region of local memory holding
	// speculative versions displaced from the cache hierarchy [16].
	LatOverflow event.Time

	// Commit machinery.
	CommitPerLine  event.Time // eager merge cost per dirty line (pipelined write-backs)
	ORBPerLine     event.Time // eager merge cost per line with ORB-style ownership requests
	TokenPass      event.Time // commit-token message between processors
	CommitFixed    event.Time // fixed per-commit bookkeeping (table walk trigger etc.)
	FinalMergeLine event.Time // per-line cost of the end-of-section lazy merge (background, per processor)

	// Squash and recovery.
	SquashMsg        event.Time // violation-to-squash notification latency
	AMMInvalidate    event.Time // per-line gang-invalidation cost (MROB recovery)
	FMMRestoreFixed  event.Time // software recovery-handler startup cost
	FMMRestoreLine   event.Time // per-log-entry restore cost (read MHB + write memory)
	DispatchOverhead event.Time // dynamic task scheduling cost per task

	// Undo-log maintenance (FMM). Hardware logging is overlapped with the
	// triggering write; software logging adds instructions on every first
	// write of a task to a line.
	LogAppendHW event.Time
	LogAppendSW event.Time

	// Processor core model: average cycles per non-memory instruction for a
	// 4-issue dynamic superscalar on numerical code.
	CPI float64

	// Network/bank contention parameters.
	Banks         int
	MsgOccupancy  event.Time
	BankOccupancy event.Time

	topo interconnect.Topology
}

// NewNetwork instantiates a fresh contention model for one simulation run.
func (c *Config) NewNetwork() *interconnect.Network {
	return interconnect.NewNetwork(c.topo, c.Banks, c.MsgOccupancy, c.BankOccupancy)
}

// LatMemory returns the round-trip latency for node proc reaching the
// memory that is home to bankKey.
func (c *Config) LatMemory(local bool) event.Time {
	if local {
		return c.LatMemLocal
	}
	return c.LatMemRemote
}

// ScalableNUMA returns the scalable CC-NUMA machine with the given number of
// nodes: 1 processor per node, 2D mesh, 2-way 32-KB L1 and 4-way 512-KB L2
// per node, 64-byte lines. The paper evaluates the 16-node point (NUMA16);
// other sizes support the scalability analysis behind the "large machines"
// claims of Section 5.4.
func ScalableNUMA(nodes int) *Config {
	cols, rows := meshDims(nodes)
	c := NUMA16()
	c.Name = fmt.Sprintf("NUMA%d", nodes)
	c.Procs = nodes
	c.Banks = nodes
	c.topo = interconnect.NewMesh2D(cols, rows)
	return c
}

// meshDims factors a node count into near-square mesh dimensions.
func meshDims(nodes int) (cols, rows int) {
	if nodes < 1 {
		panic("machine: NUMA with no nodes")
	}
	cols = 1
	for cols*cols < nodes {
		cols *= 2
	}
	rows = (nodes + cols - 1) / cols
	return cols, rows
}

// NUMA16 returns the scalable CC-NUMA machine: 16 nodes of 1 processor, 2D
// mesh, 2-way 32-KB L1 and 4-way 512-KB L2 per node, 64-byte lines.
// Latencies: 2 (L1), 12 (L2), 75 (local memory), 208 (remote, 2 hops), 291
// (remote, 3 hops).
func NUMA16() *Config {
	c := &Config{
		Name:  "NUMA16",
		Kind:  NUMA,
		Procs: 16,
		L1:    memsys.Config{Name: "L1", SizeBytes: 32 << 10, Ways: 2},
		L2:    memsys.Config{Name: "L2", SizeBytes: 512 << 10, Ways: 4},

		LatL1:          2,
		LatL2:          12,
		LatMemLocal:    75,
		LatMemRemote:   208,
		LatCacheRemote: 291,
		LatL3:          0,
		LatOverflow:    75, // the overflow area lives in local memory

		// Committed lines stream to their (mostly remote) home memories;
		// pipelining overlaps about 4 transfers, so the occupancy per line is
		// roughly the average memory round-trip divided by 4.
		CommitPerLine:  20,
		TokenPass:      100,
		CommitFixed:    60,
		FinalMergeLine: 12,

		SquashMsg:        100,
		AMMInvalidate:    2,
		FMMRestoreFixed:  500,
		FMMRestoreLine:   25,
		DispatchOverhead: 120,

		LogAppendHW: 0,
		LogAppendSW: 18,

		CPI: 0.8,

		Banks:         16,
		MsgOccupancy:  4,
		BankOccupancy: 18,

		topo: interconnect.NewMesh2D(4, 4),
	}
	return c
}

// NUMA16BigL2 is the NUMA machine with a 4-MB, 16-way L2 — the "Lazy.L2"
// configuration used in Figure 10 to show that extra capacity and
// associativity remove the AMM overflow penalty in P3m.
func NUMA16BigL2() *Config {
	c := NUMA16()
	c.Name = "NUMA16.L2"
	c.L2 = memsys.Config{Name: "L2", SizeBytes: 4 << 20, Ways: 16}
	return c
}

// CMP8 returns the chip multiprocessor: 8 processors, each with a 2-way
// 32-KB L1 and a 4-way 256-KB L2, connected by a crossbar to 8 banks of
// directory and a shared off-chip 16-MB L3. Latencies: 2 (L1), 8 (L2), 18
// (another processor's L2), 38 (L3), 102 (memory).
func CMP8() *Config {
	c := &Config{
		Name:  "CMP8",
		Kind:  CMP,
		Procs: 8,
		L1:    memsys.Config{Name: "L1", SizeBytes: 32 << 10, Ways: 2},
		L2:    memsys.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 4},

		LatL1:          2,
		LatL2:          8,
		LatMemLocal:    102,
		LatMemRemote:   102, // flat memory on chip: no NUMA distance
		LatCacheRemote: 18,
		LatL3:          38,
		LatOverflow:    102,

		// Commits mostly hit the shared L3 (38) and are heavily pipelined on
		// chip.
		CommitPerLine:  9,
		TokenPass:      20,
		CommitFixed:    25,
		FinalMergeLine: 4,

		SquashMsg:        20,
		AMMInvalidate:    2,
		FMMRestoreFixed:  250,
		FMMRestoreLine:   15,
		DispatchOverhead: 60,

		LogAppendHW: 0,
		LogAppendSW: 14,

		CPI: 0.8,

		Banks:         8,
		MsgOccupancy:  2,
		BankOccupancy: 8,

		topo: interconnect.NewCrossbar(8),
	}
	return c
}

// ByName returns the machine a name spells, ignoring case: "numa" or
// "numa16" (NUMA16), "numa-bigl2" or "numa16.l2" (NUMA16BigL2), "cmp" or
// "cmp8" (CMP8), and "numa<n>" for a scalable NUMA of n nodes (1..4096).
// The Name of every machine built here but Sequential's spells itself, so a
// name read back from a job spec or a recording resolves to the same
// machine.
func ByName(name string) (*Config, error) {
	lower := strings.ToLower(name)
	switch lower {
	case "numa", "numa16":
		return NUMA16(), nil
	case "numa-bigl2", "numa16.l2":
		return NUMA16BigL2(), nil
	case "cmp", "cmp8":
		return CMP8(), nil
	}
	if rest, ok := strings.CutPrefix(lower, "numa"); ok {
		if n, err := strconv.Atoi(rest); err == nil && n >= 1 && n <= 4096 {
			return ScalableNUMA(n), nil
		}
	}
	return nil, fmt.Errorf("unknown machine %q (valid: numa, numa-bigl2, cmp, numa<n>)", name)
}

// Sequential returns a single-processor variant of c used to measure the
// sequential-execution baseline for speedups: "sequential execution of the
// code where all data is in the local memory module".
func Sequential(c *Config) *Config {
	s := *c
	s.Name = c.Name + ".seq"
	s.Procs = 1
	s.LatMemRemote = s.LatMemLocal // all data local
	s.LatCacheRemote = s.LatMemLocal
	s.Banks = 1
	if c.Kind == NUMA {
		s.topo = interconnect.NewMesh2D(1, 1)
	} else {
		s.topo = interconnect.NewCrossbar(1)
	}
	return &s
}
