package sim

import (
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/workload"
)

// waitKind says what a processor is waiting for while it has no scheduled
// continuation; the gap until its next event is attributed to the matching
// stall category.
type waitKind uint8

const (
	waitNone     waitKind = iota
	waitToken             // SingleT: finished task awaiting the commit token
	waitVersion           // MultiT&SV: blocked creating a second local version
	waitCommit            // SingleT: the processor itself performs the merge
	waitRecovery          // squash recovery in progress
	waitIdle              // no tasks left to run
)

func (w waitKind) String() string {
	switch w {
	case waitNone:
		return "running"
	case waitToken:
		return "token"
	case waitVersion:
		return "version"
	case waitCommit:
		return "commit"
	case waitRecovery:
		return "recovery"
	case waitIdle:
		return "idle"
	}
	return "unknown"
}

func (w waitKind) charge(bd *stats.Breakdown, dt event.Time) {
	switch w {
	case waitToken, waitVersion:
		bd.StallTask += dt
	case waitCommit:
		bd.StallCommit += dt
	case waitRecovery:
		bd.StallRecovery += dt
	default:
		bd.StallIdle += dt
	}
}

// processor models one node: its private cache hierarchy, overflow area,
// undo log, and the task it is executing.
type processor struct {
	id  ids.ProcID
	l1  *memsys.Cache
	l2  *memsys.Cache
	ovf *memsys.Overflow
	mhb *memsys.MHB

	cur *task
	// local holds this processor's uncommitted tasks in ID order
	// (including cur). SingleT keeps at most one.
	local []*task
	// redo holds squashed local tasks awaiting re-execution, in ID order.
	redo []*task

	bd stats.Breakdown
	// lastTime is the local time through which bd is complete.
	lastTime event.Time
	wait     waitKind

	// blockedUntil delays execution during squash recovery.
	blockedUntil event.Time

	// scheduled is true while a continuation event is pending; cont is the
	// processor's single continuation closure, built once in New so the
	// per-event schedule path does not allocate.
	scheduled bool
	cont      func(now event.Time)

	opBuf []workload.Op
}

// removeLocal drops t from the local task list.
func (p *processor) removeLocal(t *task) {
	for i, lt := range p.local {
		if lt == t {
			p.local = append(p.local[:i], p.local[i+1:]...)
			return
		}
	}
}

// pushRedo inserts t into the redo queue keeping ID order.
func (p *processor) pushRedo(t *task) {
	for _, rt := range p.redo {
		if rt == t {
			return
		}
	}
	i := len(p.redo)
	for i > 0 && p.redo[i-1].id.After(t.id) {
		i--
	}
	p.redo = append(p.redo, nil)
	copy(p.redo[i+1:], p.redo[i:])
	p.redo[i] = t
}

// popRedo removes and returns the earliest squashed task, or nil.
func (p *processor) popRedo() *task {
	if len(p.redo) == 0 {
		return nil
	}
	t := p.redo[0]
	p.redo = append(p.redo[:0], p.redo[1:]...)
	return t
}

// account closes the books through now, attributing any gap to the current
// wait kind.
func (p *processor) account(now event.Time) {
	if now > p.lastTime {
		p.wait.charge(&p.bd, now-p.lastTime)
		p.lastTime = now
	}
}

// spend advances local time by dt, attributing it to the given category.
func (p *processor) spend(dt event.Time, to *event.Time) {
	*to += dt
	p.lastTime += dt
}
