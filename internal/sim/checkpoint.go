package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/coherence"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/interconnect"
	"repro/internal/iofault"
	"repro/internal/memsys"
	"repro/internal/stats"
)

// This file implements simulator checkpoint/restore: a Checkpoint captures
// the complete logical state of a run at a task-commit boundary, and Restore
// reinstates it into a freshly constructed Simulator so that resuming
// produces a Result identical to the uninterrupted run, byte for byte.
//
// Why commit boundaries: commits are strictly serialized and the commit-done
// event is the only event besides per-processor continuations that ever
// enters the queue. At the end of finishCommit, therefore, the entire
// pending schedule is describable without serializing closures — it is at
// most one continuation per processor (p.scheduled marks it, p.contHandle
// names its (when, seq)) plus at most one commit event (s.committing marks
// it). Restore rebuilds the closures against the new Simulator and re-
// inserts each occurrence with its original (when, seq); since queue firing
// order is a total order on exactly that pair, the restored run replays the
// identical event sequence.
//
// Physical layout (event free lists, directory arenas, marks rings, pooled
// buffers) is deliberately not checkpointed: it is invisible to the protocol
// and the timing model, and rebuilding it fresh keeps the format small and
// the restore validatable.

// TaskCheckpoint is one in-flight task's state.
type TaskCheckpoint struct {
	ID           ids.TaskID
	Index        int
	Proc         ids.ProcID
	State        uint8
	PC           int
	StartedAt    event.Time
	FinishedAt   event.Time
	WordsWritten int
	PrivWords    int
	Consumed     []ConsumedCheckpoint
	CommitStart  event.Time
	SquashCount  int
}

// ConsumedCheckpoint is one recorded communication-region read.
type ConsumedCheckpoint struct {
	Addr     memsys.Addr
	Producer ids.TaskID
}

// ProcCheckpoint is one processor's state.
type ProcCheckpoint struct {
	L1  memsys.CacheState
	L2  memsys.CacheState
	Ovf memsys.OverflowState
	MHB memsys.MHBState

	Cur   ids.TaskID // ids.None when idle
	Local []ids.TaskID
	Redo  []ids.TaskID

	BD           stats.Breakdown
	LastTime     event.Time
	Wait         uint8
	BlockedUntil event.Time

	// Scheduled records a pending continuation occurrence at (ContWhen,
	// ContSeq); restore re-inserts it with the same coordinates.
	Scheduled bool
	ContWhen  event.Time
	ContSeq   uint64
}

// WaiterCheckpoint is the ordered list of processors stalled on one task's
// version (MultiT&SV write stalls). Order matters: wakes assign fresh event
// sequence numbers in list order.
type WaiterCheckpoint struct {
	Task  ids.TaskID
	Procs []ids.ProcID
}

// QueueCheckpoint is the event queue's clock and counters.
type QueueCheckpoint struct {
	Now         event.Time
	NextSq      uint64
	Fired       uint64
	Compactions uint64
}

// InvariantCheckpoint is the runtime protocol checker's accumulated state.
type InvariantCheckpoint struct {
	Samples []InvariantViolation
	Total   int
	Rules   []RuleCount
}

// RuleCount is one rule's violation count.
type RuleCount struct {
	Rule  string
	Count int
}

// Checkpoint is the complete state of a simulation at a commit boundary.
// All fields are exported for the gob codec; treat the struct as opaque.
type Checkpoint struct {
	// Identity, validated by Restore: a checkpoint only restores into a
	// simulator built for the same machine, scheme, workload and length.
	Machine string
	Scheme  string
	App     string
	Total   int

	Queue QueueCheckpoint

	// CommitPending records the commit-done occurrence when a commit is in
	// flight (Committing != None).
	Committing    ids.TaskID
	CommitPending bool
	CommitWhen    event.Time
	CommitSeq     uint64

	Tasks    []TaskCheckpoint // sorted by ID
	TaskProc []ids.ProcID
	Next     int

	TokenFreeAt  event.Time
	LastCommitBy ids.ProcID
	Waiters      []WaiterCheckpoint // sorted by task

	OrderHead ids.TaskID
	OrderLast ids.TaskID

	L3 []memsys.LineAddr // CMP touched-lines filter, sorted; nil on NUMA

	OracleChecks     int
	OracleViolations int

	LiveSpec      int
	SpecSampler   stats.SamplerState
	ExecPerTask   stats.MeanState
	CommitPerTask stats.MeanState
	FootBytes     stats.MeanState
	FootPrivFrac  stats.MeanState
	SquashEvents  int
	TasksSquashed int
	Commits       int

	Tracing  bool
	TraceLog []TraceEvent

	LineGranularity bool
	ORBCommit       bool
	ForceMTID       bool

	CoarseViolated bool
	VCLMerges      uint64
	FMMWritebacks  uint64

	Procs []ProcCheckpoint

	Mem memsys.MemoryState
	Dir coherence.DirectoryState
	Net interconnect.NetworkState

	Invariants *InvariantCheckpoint

	// Injector is the opaque fault-plan state when the run has an injector
	// that supports checkpointing (see InjectorCheckpointer).
	HasInjector bool
	Injector    []byte
}

// InjectorCheckpointer is optionally implemented by fault injectors whose
// decision stream must survive a checkpoint (internal/fault.Plan does). A
// run with an injector that does not implement it cannot be checkpointed.
type InjectorCheckpointer interface {
	InjectorState() ([]byte, error)
	RestoreInjectorState([]byte) error
}

// SetCheckpointSink installs the consumer of checkpoints the simulator
// produces (auto-checkpoints and the interrupt checkpoint). The sink runs on
// the simulation's goroutine, at a commit boundary, so it may safely call
// ProgressReport. With no sink installed the run never snapshots and is
// byte-identical to a simulator built without checkpoint support.
func (s *Simulator) SetCheckpointSink(sink func(*Checkpoint)) { s.ckptSink = sink }

// SetAutoCheckpoint makes the simulator hand a checkpoint to the sink every
// `every` commits (0 disables; interrupts still checkpoint).
func (s *Simulator) SetAutoCheckpoint(every int) { s.ckptEvery = every }

// Interrupt requests a cooperative stop: at the next commit boundary the
// simulator snapshots (delivering the checkpoint to the sink, if any), halts
// the event queue, and Run returns a zero Result with Halted() true. Safe to
// call from another goroutine — this is the graceful-shutdown and watchdog-
// escalation entry point.
func (s *Simulator) Interrupt() { s.interrupt.Store(true) }

// Halted reports whether the run was stopped by Interrupt before finishing.
func (s *Simulator) Halted() bool { return s.halted }

// afterCommit runs at the very end of every mid-section finishCommit: the
// only point where the pending event set is fully described by the
// simulator's own bookkeeping. It services interrupts and auto-checkpoints.
func (s *Simulator) afterCommit() {
	if s.interrupt.Load() {
		if s.ckptSink != nil {
			s.ckptSink(s.snapshot())
		}
		s.halted = true
		s.q.Halt()
		return
	}
	if s.ckptSink != nil && s.ckptEvery > 0 && s.commits%s.ckptEvery == 0 {
		s.ckptSink(s.snapshot())
	}
}

// snapshot captures the complete simulator state. Only valid at a commit
// boundary (afterCommit).
func (s *Simulator) snapshot() *Checkpoint {
	ck := &Checkpoint{
		Machine: s.cfg.Name,
		Scheme:  s.scheme.String(),
		App:     s.gen.Name(),
		Total:   s.total,

		Queue: QueueCheckpoint{
			Now:    s.q.Now(),
			NextSq: s.q.NextSeq(),
			Fired:  s.q.Fired(),

			Compactions: s.q.Compactions(),
		},

		TaskProc: append([]ids.ProcID(nil), s.taskProc...),
		Next:     s.next,

		TokenFreeAt:  s.tokenFreeAt,
		LastCommitBy: s.lastCommitBy,

		OrderHead: s.order.Head(),
		OrderLast: s.order.Last(),

		OracleChecks:     s.oracleChecks,
		OracleViolations: s.oracleViolations,

		LiveSpec:      s.liveSpec,
		SpecSampler:   s.specSampler.State(),
		ExecPerTask:   s.execPerTask.State(),
		CommitPerTask: s.commitPerTask.State(),
		FootBytes:     s.footBytes.State(),
		FootPrivFrac:  s.footPrivFrac.State(),
		SquashEvents:  s.squashEvents,
		TasksSquashed: s.tasksSquashed,
		Commits:       s.commits,

		Tracing: s.tracing,

		LineGranularity: s.lineGranularity,
		ORBCommit:       s.orbCommit,
		ForceMTID:       s.forceMTID,

		CoarseViolated: s.coarseViolated,
		VCLMerges:      s.vclMerges,
		FMMWritebacks:  s.fmmWritebacks,

		Mem: s.mem.State(),
		Dir: s.dir.State(),
		Net: s.net.State(),
	}
	if s.tracing {
		ck.TraceLog = append([]TraceEvent(nil), s.traceLog...)
	}
	if s.committing != nil {
		ck.Committing = s.committing.id
		ck.CommitPending = true
		ck.CommitWhen = s.commitHandle.When()
		ck.CommitSeq = s.commitHandle.Seq()
	}
	for _, t := range s.tasks {
		tc := TaskCheckpoint{
			ID: t.id, Index: t.index, Proc: t.proc, State: uint8(t.state),
			PC: t.pc, StartedAt: t.startedAt, FinishedAt: t.finishedAt,
			WordsWritten: t.wordsWritten, PrivWords: t.privWords,
			CommitStart: t.commitStart, SquashCount: t.squashCount,
		}
		for _, cr := range t.consumed {
			tc.Consumed = append(tc.Consumed, ConsumedCheckpoint{Addr: cr.addr, Producer: cr.producer})
		}
		ck.Tasks = append(ck.Tasks, tc)
	}
	sort.Slice(ck.Tasks, func(i, j int) bool { return ck.Tasks[i].ID < ck.Tasks[j].ID })
	for taskID, procs := range s.waiters {
		w := WaiterCheckpoint{Task: taskID}
		for _, p := range procs {
			w.Procs = append(w.Procs, p.id)
		}
		ck.Waiters = append(ck.Waiters, w)
	}
	sort.Slice(ck.Waiters, func(i, j int) bool { return ck.Waiters[i].Task < ck.Waiters[j].Task })
	if s.l3 != nil {
		ck.L3 = make([]memsys.LineAddr, 0, len(s.l3))
		for line := range s.l3 {
			ck.L3 = append(ck.L3, line)
		}
		sort.Slice(ck.L3, func(i, j int) bool { return ck.L3[i] < ck.L3[j] })
	}
	for _, p := range s.procs {
		pc := ProcCheckpoint{
			L1: p.l1.State(), L2: p.l2.State(),
			Ovf: p.ovf.State(), MHB: p.mhb.State(),
			Cur: ids.None, BD: p.bd, LastTime: p.lastTime,
			Wait: uint8(p.wait), BlockedUntil: p.blockedUntil,
		}
		if p.cur != nil {
			pc.Cur = p.cur.id
		}
		for _, t := range p.local {
			pc.Local = append(pc.Local, t.id)
		}
		for _, t := range p.redo {
			pc.Redo = append(pc.Redo, t.id)
		}
		if p.scheduled {
			pc.Scheduled = true
			pc.ContWhen = p.contHandle.When()
			pc.ContSeq = p.contHandle.Seq()
		}
		ck.Procs = append(ck.Procs, pc)
	}
	if s.inv != nil {
		inv := &InvariantCheckpoint{
			Samples: append([]InvariantViolation(nil), s.inv.samples...),
			Total:   s.inv.total,
		}
		for rule, n := range s.inv.byRule {
			inv.Rules = append(inv.Rules, RuleCount{Rule: rule, Count: n})
		}
		sort.Slice(inv.Rules, func(i, j int) bool { return inv.Rules[i].Rule < inv.Rules[j].Rule })
		ck.Invariants = inv
	}
	if s.inject != nil {
		ck.HasInjector = true
		ic, ok := s.inject.(InjectorCheckpointer)
		if !ok {
			panic("sim: checkpointing a run whose fault injector does not implement InjectorCheckpointer")
		}
		st, err := ic.InjectorState()
		if err != nil {
			panic(fmt.Sprintf("sim: serializing injector state: %v", err))
		}
		ck.Injector = st
	}
	return ck
}

// Restore reinstates a checkpoint into s, which must be freshly built by New
// (or NewSequential) with the same machine, scheme and workload, and not yet
// run. Ablation knobs, tracing and the invariant checker are restored from
// the checkpoint; a fault injector, if the original run had one, must be
// installed with InjectFaults before calling Restore (its decision stream is
// then restored too). After Restore, Run continues the section to completion
// and returns a Result identical to the uninterrupted run's.
func (s *Simulator) Restore(ck *Checkpoint) error {
	switch {
	case s.started:
		return errors.New("sim: Restore on a simulator that has already run")
	case ck.Machine != s.cfg.Name:
		return fmt.Errorf("sim: checkpoint machine %q does not match %q", ck.Machine, s.cfg.Name)
	case ck.Scheme != s.scheme.String():
		return fmt.Errorf("sim: checkpoint scheme %q does not match %q", ck.Scheme, s.scheme)
	case ck.App != s.gen.Name():
		return fmt.Errorf("sim: checkpoint workload %q does not match %q", ck.App, s.gen.Name())
	case ck.Total != s.total:
		return fmt.Errorf("sim: checkpoint has %d tasks, workload has %d", ck.Total, s.total)
	case len(ck.Procs) != len(s.procs):
		return fmt.Errorf("sim: checkpoint has %d processors, machine has %d", len(ck.Procs), len(s.procs))
	case len(ck.TaskProc) != len(s.taskProc):
		return fmt.Errorf("sim: checkpoint task map covers %d tasks, workload has %d", len(ck.TaskProc), len(s.taskProc))
	case ck.HasInjector && s.inject == nil:
		return errors.New("sim: checkpoint was taken with fault injection; call InjectFaults before Restore")
	case !ck.HasInjector && s.inject != nil:
		return errors.New("sim: checkpoint was taken without fault injection but an injector is installed")
	}
	if ck.HasInjector {
		ic, ok := s.inject.(InjectorCheckpointer)
		if !ok {
			return errors.New("sim: installed fault injector does not implement InjectorCheckpointer")
		}
		if err := ic.RestoreInjectorState(ck.Injector); err != nil {
			return fmt.Errorf("sim: restoring injector state: %w", err)
		}
	}

	s.q.RestoreClock(ck.Queue.Now, ck.Queue.NextSq, ck.Queue.Fired, ck.Queue.Compactions)

	s.lineGranularity = ck.LineGranularity
	s.orbCommit = ck.ORBCommit
	s.forceMTID = ck.ForceMTID
	s.tracing = ck.Tracing
	s.traceLog = append([]TraceEvent(nil), ck.TraceLog...)

	s.mem.RestoreState(ck.Mem)
	s.dir.RestoreState(ck.Dir)
	if err := s.net.RestoreState(ck.Net); err != nil {
		return err
	}
	if len(ck.L3) > 0 && s.l3 == nil {
		return errors.New("sim: checkpoint has L3 filter state but the machine has no L3")
	}
	for _, line := range ck.L3 {
		s.l3[line] = true
	}

	s.tasks = make(map[ids.TaskID]*task, len(ck.Tasks))
	for _, tc := range ck.Tasks {
		t := &task{
			id: tc.ID, index: tc.Index, proc: tc.Proc, state: taskState(tc.State),
			pc: tc.PC, startedAt: tc.StartedAt, finishedAt: tc.FinishedAt,
			wordsWritten: tc.WordsWritten, privWords: tc.PrivWords,
			commitStart: tc.CommitStart, squashCount: tc.SquashCount,
		}
		for _, cr := range tc.Consumed {
			t.consumed = append(t.consumed, consumedRead{addr: cr.Addr, producer: cr.Producer})
		}
		s.tasks[t.id] = t
	}
	copy(s.taskProc, ck.TaskProc)
	s.next = ck.Next
	s.order = ids.RestoreCommitOrder(ck.OrderHead, ck.OrderLast)

	s.tokenFreeAt = ck.TokenFreeAt
	s.lastCommitBy = ck.LastCommitBy
	s.waiters = make(map[ids.TaskID][]*processor, len(ck.Waiters))
	for _, w := range ck.Waiters {
		var procs []*processor
		for _, pid := range w.Procs {
			procs = append(procs, s.procs[pid])
		}
		s.waiters[w.Task] = procs
	}

	s.oracleChecks, s.oracleViolations = ck.OracleChecks, ck.OracleViolations
	s.liveSpec = ck.LiveSpec
	s.specSampler.RestoreState(ck.SpecSampler)
	s.execPerTask.RestoreState(ck.ExecPerTask)
	s.commitPerTask.RestoreState(ck.CommitPerTask)
	s.footBytes.RestoreState(ck.FootBytes)
	s.footPrivFrac.RestoreState(ck.FootPrivFrac)
	s.squashEvents = ck.SquashEvents
	s.tasksSquashed = ck.TasksSquashed
	s.commits = ck.Commits
	s.coarseViolated = ck.CoarseViolated
	s.vclMerges = ck.VCLMerges
	s.fmmWritebacks = ck.FMMWritebacks

	for i, pc := range ck.Procs {
		p := s.procs[i]
		if err := p.l1.RestoreState(pc.L1); err != nil {
			return err
		}
		if err := p.l2.RestoreState(pc.L2); err != nil {
			return err
		}
		p.ovf.RestoreState(pc.Ovf)
		p.mhb.RestoreState(pc.MHB)
		p.cur = nil
		if pc.Cur != ids.None {
			p.cur = s.tasks[pc.Cur]
			if p.cur == nil {
				return fmt.Errorf("sim: processor %d's current task %v missing from checkpoint", i, pc.Cur)
			}
		}
		p.local = nil
		for _, id := range pc.Local {
			t := s.tasks[id]
			if t == nil {
				return fmt.Errorf("sim: processor %d's local task %v missing from checkpoint", i, id)
			}
			p.local = append(p.local, t)
		}
		p.redo = nil
		for _, id := range pc.Redo {
			t := s.tasks[id]
			if t == nil {
				return fmt.Errorf("sim: processor %d's redo task %v missing from checkpoint", i, id)
			}
			p.redo = append(p.redo, t)
		}
		p.bd = pc.BD
		p.lastTime = pc.LastTime
		p.wait = waitKind(pc.Wait)
		p.blockedUntil = pc.BlockedUntil
		if pc.Scheduled {
			p.scheduled = true
			p.contHandle = s.q.ScheduleAt(pc.ContWhen, pc.ContSeq, p.cont)
		}
		// Re-generate the running task's operation stream: Workload.Task is
		// deterministic, so the regenerated ops equal the checkpointed run's.
		if p.cur != nil && p.cur.state == taskRunning {
			p.cur.ops, _ = s.gen.Task(p.cur.index, nil)
			p.opBuf = p.cur.ops[:0]
		}
	}

	if ck.CommitPending {
		t := s.tasks[ck.Committing]
		if t == nil {
			return fmt.Errorf("sim: committing task %v missing from checkpoint", ck.Committing)
		}
		s.committing = t
		if s.commitDone == nil {
			s.commitDone = func(done event.Time) { s.finishCommit(s.committing, done) }
		}
		s.commitHandle = s.q.ScheduleAt(ck.CommitWhen, ck.CommitSeq, s.commitDone)
	}

	s.inv = nil
	if ck.Invariants != nil {
		s.inv = &invariantChecker{
			samples: append([]InvariantViolation(nil), ck.Invariants.Samples...),
			total:   ck.Invariants.Total,
			byRule:  make(map[string]int, len(ck.Invariants.Rules)),
		}
		for _, rc := range ck.Invariants.Rules {
			s.inv.byRule[rc.Rule] = rc.Count
		}
	}

	s.started = true
	return nil
}

// ProcProgress is one processor's slice of a ProgressReport.
type ProcProgress struct {
	Proc         int    `json:"proc"`
	Task         string `json:"task,omitempty"` // current task, "" when idle
	Wait         string `json:"wait"`
	LocalTasks   int    `json:"local_tasks"`
	RedoTasks    int    `json:"redo_tasks"`
	BlockedUntil uint64 `json:"blocked_until,omitempty"`
}

// ProgressReport is a human-readable snapshot of where a run is — the
// post-mortem attached to a watchdog-killed job. It must be taken from the
// simulation's goroutine (e.g. inside the checkpoint sink).
type ProgressReport struct {
	Machine    string         `json:"machine"`
	Scheme     string         `json:"scheme"`
	App        string         `json:"app"`
	Cycle      uint64         `json:"cycle"`
	QueueDepth int            `json:"queue_depth"`
	Events     uint64         `json:"events_fired"`
	Commits    int            `json:"commits"`
	Tasks      int            `json:"tasks"`
	LiveSpec   int            `json:"live_speculative"`
	Committing string         `json:"committing,omitempty"`
	Procs      []ProcProgress `json:"procs"`
}

// ProgressReport captures the run's current position.
func (s *Simulator) ProgressReport() ProgressReport {
	r := ProgressReport{
		Machine:    s.cfg.Name,
		Scheme:     s.scheme.String(),
		App:        s.gen.Name(),
		Cycle:      uint64(s.q.Now()),
		QueueDepth: s.q.Len(),
		Events:     s.q.Fired(),
		Commits:    s.commits,
		Tasks:      s.total,
		LiveSpec:   s.liveSpec,
	}
	if s.committing != nil {
		r.Committing = s.committing.id.String()
	}
	for _, p := range s.procs {
		pp := ProcProgress{
			Proc: int(p.id), Wait: p.wait.String(),
			LocalTasks: len(p.local), RedoTasks: len(p.redo),
			BlockedUntil: uint64(p.blockedUntil),
		}
		if p.cur != nil {
			pp.Task = p.cur.id.String()
		}
		r.Procs = append(r.Procs, pp)
	}
	return r
}

// Checkpoint file format: a fixed header followed by a gob payload.
//
//	offset  size  field
//	0       7     magic "TLSCKPT"
//	7       1     format version (1)
//	8       8     payload length, little-endian
//	16      4     CRC-32C (Castagnoli) of the payload, little-endian
//	20      n     gob-encoded Checkpoint
//
// The length and checksum make torn writes (kill -9 mid-write) and bit rot
// detectable before the gob decoder sees the bytes.

const checkpointMagic = "TLSCKPT"

// CheckpointVersion is the current checkpoint format version.
const CheckpointVersion = 1

// Typed checkpoint codec failures, distinguishable with errors.Is.
var (
	ErrCheckpointTruncated = errors.New("checkpoint truncated")
	ErrCheckpointCorrupt   = errors.New("checkpoint corrupt")
	ErrCheckpointVersion   = errors.New("unsupported checkpoint version")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeCheckpoint writes ck to w in the versioned, checksummed format.
func EncodeCheckpoint(w io.Writer, ck *Checkpoint) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return fmt.Errorf("sim: encoding checkpoint: %w", err)
	}
	header := make([]byte, 20)
	copy(header, checkpointMagic)
	header[7] = CheckpointVersion
	binary.LittleEndian.PutUint64(header[8:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(header[16:], crc32.Checksum(payload.Bytes(), crcTable))
	if _, err := w.Write(header); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// DecodeCheckpoint reads a checkpoint written by EncodeCheckpoint,
// distinguishing truncation, corruption and version mismatches.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	header := make([]byte, 20)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCheckpointTruncated, err)
	}
	if string(header[:7]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	if v := header[7]; v != CheckpointVersion {
		return nil, fmt.Errorf("%w: version %d (supported: %d)", ErrCheckpointVersion, v, CheckpointVersion)
	}
	n := binary.LittleEndian.Uint64(header[8:])
	want := binary.LittleEndian.Uint32(header[16:])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCheckpointTruncated, err)
	}
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCheckpointCorrupt, got, want)
	}
	ck := new(Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(ck); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrCheckpointCorrupt, err)
	}
	return ck, nil
}

// WriteCheckpointFile atomically persists ck at path: write to a temp file
// in the same directory, fsync it, rename over path, fsync the directory. A
// crash leaves either the old file or the new one, never a torn mix.
func WriteCheckpointFile(path string, ck *Checkpoint) error {
	return WriteCheckpointFileFS(iofault.Real, path, ck)
}

// WriteCheckpointFileFS is WriteCheckpointFile writing through an explicit
// filesystem seam (fault drills and crash-consistency tests inject one; nil
// means the real OS). A failed directory sync is an error: until it
// succeeds the rename is not durable, so the checkpoint must not be
// reported (or journaled) as such.
func WriteCheckpointFileFS(fsys iofault.FS, path string, ck *Checkpoint) error {
	if fsys == nil {
		fsys = iofault.Real
	}
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return err
	}
	if err := EncodeCheckpoint(tmp, ck); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("checkpoint %s: directory sync: %w", path, err)
	}
	return nil
}

// ReadCheckpointFile loads a checkpoint persisted by WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck, err := DecodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return ck, nil
}
