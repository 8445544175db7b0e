// Package workload models the speculatively-parallelized loops of the seven
// numerical applications of the paper's evaluation (Section 4.2, Table 3,
// Figure 1) as synthetic, deterministic task generators.
//
// We do not have the original Fortran codes or the Polaris compiler, so
// each application is characterized by the published per-task parameters —
// instructions per task, written footprint and its density, the fraction of
// the footprint with mostly-privatization behaviour, load imbalance,
// cross-task dependence (squash) intensity, and shared-read traffic — and a
// generator reproduces an access stream with those characteristics. The
// buffering results of the paper are explained entirely by these
// characteristics (Sections 2.2 and 5), which is what makes the
// substitution sound; EXPERIMENTS.md records measured-vs-paper values.
package workload

import (
	"fmt"
	"math"

	"repro/internal/memsys"
)

// Level is a qualitative magnitude used by Table 3's last columns.
type Level uint8

const (
	// Low magnitude.
	Low Level = iota
	// Med is the paper's "Medium".
	Med
	// High magnitude.
	High
	// HighMed is the paper's "High-Med".
	HighMed
)

func (l Level) String() string {
	switch l {
	case Low:
		return "Low"
	case Med:
		return "Med"
	case High:
		return "High"
	case HighMed:
		return "High-Med"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Profile describes one application's non-analyzable section.
type Profile struct {
	Name string

	// Tasks is the number of speculative tasks in the (scaled) section.
	Tasks int

	// TasksPerInvoc bounds how many tasks one invocation of the loop
	// contains (0 = a single invocation). The non-analyzable loops are
	// invoked repeatedly (Table 3's "# Invoc; # Tasks per Invoc"), and
	// speculation does not cross the enclosing barriers, which is what
	// keeps the number of co-existing speculative tasks at the 17-29 of
	// Figure 1 for most applications (P3m's single long loop is the
	// exception — 800 co-existing tasks).
	TasksPerInvoc int

	// InstrPerTask is the mean instruction count per task.
	InstrPerTask int

	// FootprintBytes is the mean written footprint per task (Figure 1).
	FootprintBytes int

	// WriteDensity is how many distinct words of each written line a task
	// writes (1 = fully sparse, 16 = dense array writes). Calibrated so the
	// Commit/Execution ratios land near Table 3.
	WriteDensity int

	// PrivFrac is the fraction of the written footprint with
	// mostly-privatization behaviour: every task creates its own version of
	// the same variables (Figure 1's "Priv (%)").
	PrivFrac float64

	// WritePhase is the fraction of the task over which writes are spread
	// from the start. Privatization applications write their privatized
	// variables "early in their execution" (Section 5.1), which is what
	// makes MultiT&SV stall immediately.
	WritePhase float64

	// ImbalanceCV is the coefficient of variation of the task-length
	// distribution (log-normal).
	ImbalanceCV float64

	// HeavyTailFrac, when positive, makes that fraction of tasks extremely
	// long (bounded-Pareto multiplier). P3m's high imbalance — hundreds of
	// speculative tasks buffered behind one long task (Figure 1's 800 tasks
	// in system) — comes from this.
	HeavyTailFrac float64
	// HeavyTailMax is the maximum length multiplier of a heavy task.
	HeavyTailMax float64

	// ReadsPerWrite is the number of reads issued per written word.
	ReadsPerWrite float64
	// SharedReadFrac is the fraction of reads that go to the read-only
	// shared region (the rest re-read the task's own writes).
	SharedReadFrac float64
	// HotReadWords sizes the application's read-only working set in words
	// (0 selects the 16K-word default). Applications with few reads per
	// task have correspondingly smaller hot sets; otherwise cold first
	// touches would dominate their memory time.
	HotReadWords int

	// DepProb is the probability that a task reads a communication word
	// recently written by a predecessor — the source of out-of-order RAWs.
	DepProb float64
	// DepReach is how many tasks back the dependence reaches (uniform in
	// [1, DepReach]).
	DepReach int

	// PackedChannels packs the communication words 16 to a cache line
	// instead of one per line. True dependences are unchanged, but tasks
	// now write different words of shared lines — false sharing that only
	// line-granularity conflict detection turns into squashes. Used by the
	// conflict-granularity ablation.
	PackedChannels bool

	// Reporting metadata (Table 3).
	PctTseq       float64 // weight of the section relative to Tseq
	QualImbalance Level
	QualPriv      Level
	QualCommit    Level
	PaperCENuma   float64 // Commit/Execution ratio (%) reported for NUMA
	PaperCECmp    float64 // Commit/Execution ratio (%) reported for CMP
	PaperSquash   float64 // squashes per committed task reported in §4.2
}

// WordsWritten returns the written footprint in words.
func (p *Profile) WordsWritten() int { return p.FootprintBytes / memsys.WordBytes }

// LinesWritten returns the number of distinct lines the footprint touches
// given the write density.
func (p *Profile) LinesWritten() int {
	d := p.WriteDensity
	if d <= 0 {
		d = 1
	}
	if d > memsys.WordsPerLine {
		d = memsys.WordsPerLine
	}
	n := (p.WordsWritten() + d - 1) / d
	if n < 1 {
		n = 1
	}
	return n
}

// maxLinesWritten is the largest footprint, in lines, whose task-private
// writes stay within MaxAddr from the last region of the pool.
const maxLinesWritten = int((MaxAddr + 1 - UniqueBase - (regionPool-1)*regionStride) / memsys.WordsPerLine)

// Validate checks internal consistency and that every operation of the
// profile's streams fits an Op.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile without name")
	case p.Tasks <= 0:
		return fmt.Errorf("workload %s: no tasks", p.Name)
	case p.InstrPerTask <= 0:
		return fmt.Errorf("workload %s: no instructions", p.Name)
	case p.FootprintBytes < memsys.WordBytes:
		return fmt.Errorf("workload %s: empty footprint", p.Name)
	case p.WriteDensity < 1 || p.WriteDensity > memsys.WordsPerLine:
		return fmt.Errorf("workload %s: write density %d out of [1,16]", p.Name, p.WriteDensity)
	// Float checks are written so that NaN, which fails every comparison,
	// fails them too.
	case !(p.PrivFrac >= 0 && p.PrivFrac <= 1):
		return fmt.Errorf("workload %s: priv fraction %v out of [0,1]", p.Name, p.PrivFrac)
	case !(p.WritePhase > 0 && p.WritePhase <= 1):
		return fmt.Errorf("workload %s: write phase %v out of (0,1]", p.Name, p.WritePhase)
	case !(p.SharedReadFrac >= 0 && p.SharedReadFrac <= 1):
		return fmt.Errorf("workload %s: shared read fraction out of [0,1]", p.Name)
	case !(p.DepProb >= 0 && p.DepProb <= 1):
		return fmt.Errorf("workload %s: dependence probability out of [0,1]", p.Name)
	case !(p.HeavyTailFrac >= 0 && p.HeavyTailFrac <= 1):
		return fmt.Errorf("workload %s: heavy-tail fraction out of [0,1]", p.Name)
	case math.IsNaN(p.ImbalanceCV) || math.IsNaN(p.HeavyTailMax) || math.IsNaN(p.ReadsPerWrite):
		return fmt.Errorf("workload %s: NaN task length or read count", p.Name)
	case math.IsNaN(p.PctTseq) || math.IsNaN(p.PaperCENuma) || math.IsNaN(p.PaperCECmp) || math.IsNaN(p.PaperSquash):
		return fmt.Errorf("workload %s: NaN paper reference value", p.Name)
	case p.DepProb > 0 && p.DepReach < 1:
		return fmt.Errorf("workload %s: dependence reach must be positive", p.Name)
	case p.TasksPerInvoc < 0:
		return fmt.Errorf("workload %s: negative tasks per invocation", p.Name)
	// An Op holds at most MaxChunk instructions before its access and
	// addresses at most MaxAddr. A task's chunks never exceed its length;
	// the bound's margin covers the heavy tail's float rounding.
	case !(float64(p.InstrPerTask)*maxLengthMultiplier(p)*(1+1e-9) <= MaxChunk):
		return fmt.Errorf("workload %s: a task may run more than %d instructions between memory operations", p.Name, MaxChunk)
	case p.LinesWritten() > maxLinesWritten:
		return fmt.Errorf("workload %s: %d written lines reach past word address %#x", p.Name, p.LinesWritten(), MaxAddr)
	case p.HotReadWords > int(MaxAddr)+1:
		return fmt.Errorf("workload %s: %d hot read words reach past word address %#x", p.Name, p.HotReadWords, MaxAddr)
	}
	return nil
}

// Scale returns a copy of p with task count, instructions, and footprint
// scaled by the given factors (simulation-time control; 1 keeps the paper's
// full-size parameters).
func (p Profile) Scale(tasks, instr, footprint float64) Profile {
	s := p
	s.Tasks = max(1, int(float64(p.Tasks)*tasks))
	s.InstrPerTask = max(1, int(float64(p.InstrPerTask)*instr))
	s.FootprintBytes = max(memsys.WordBytes, int(float64(p.FootprintBytes)*footprint))
	return s
}

// Rechunk returns a copy of p with the iteration-chunking changed by the
// given factor: factor 2 halves the task count and doubles each task
// (instructions and footprint), preserving the total work. The evaluation
// fixed per-application chunk sizes (1-32 consecutive iterations); Rechunk
// supports sweeping that choice — bigger chunks amortize dispatch and
// commit overheads but worsen load balance and deepen squash damage.
func (p Profile) Rechunk(factor float64) Profile {
	if factor <= 0 {
		return p
	}
	s := p
	s.Tasks = max(1, int(float64(p.Tasks)/factor+0.5))
	s.InstrPerTask = max(1, int(float64(p.InstrPerTask)*factor+0.5))
	s.FootprintBytes = max(4, int(float64(p.FootprintBytes)*factor+0.5))
	if p.TasksPerInvoc > 0 {
		s.TasksPerInvoc = max(1, int(float64(p.TasksPerInvoc)/factor+0.5))
	}
	// Dependence reach is measured in tasks: bigger chunks shorten it.
	if p.DepReach > 1 {
		s.DepReach = max(1, int(float64(p.DepReach)/factor+0.5))
	}
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
