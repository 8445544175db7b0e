// Package ids defines task identity and ordering for thread-level
// speculation.
//
// Under TLS, tasks have a total order given by sequential semantics. The
// lowest-ID uncommitted task is non-speculative; its successors are
// speculative and its predecessors are committed. All buffering schemes in
// the taxonomy tag cached versions with the producing task's ID (the CTID
// support of Table 1 in the paper), and both the version-combining logic
// (VCL) and the memory task-ID filter (MTID) order versions by this ID.
package ids

import "fmt"

// TaskID identifies a speculative task. IDs increase in sequential program
// order: if a.Before(b), then task a precedes task b in the original
// sequential execution. The zero value None is reserved for "no task".
type TaskID uint64

// None is the reserved "no task" identifier. Real tasks start at First.
const None TaskID = 0

// First is the identifier of the first task of a speculative section.
const First TaskID = 1

// IsNone reports whether t is the reserved empty identifier.
func (t TaskID) IsNone() bool { return t == None }

// Before reports whether t precedes u in sequential order. None precedes
// every real task, which makes the "memory holds no version yet" state in
// MTID comparisons fall out naturally.
func (t TaskID) Before(u TaskID) bool { return t < u }

// After reports whether t succeeds u in sequential order.
func (t TaskID) After(u TaskID) bool { return t > u }

// Next returns the identifier of the immediate successor task.
func (t TaskID) Next() TaskID { return t + 1 }

// Prev returns the identifier of the immediate predecessor task, or None
// when t is First or None.
func (t TaskID) Prev() TaskID {
	if t <= First {
		return None
	}
	return t - 1
}

func (t TaskID) String() string {
	if t == None {
		return "T-none"
	}
	return fmt.Sprintf("T%d", uint64(t)-1)
}

// ProcID identifies a processor (node) in the simulated machine.
type ProcID int

// NoProc is the reserved "no processor" identifier.
const NoProc ProcID = -1

func (p ProcID) String() string {
	if p == NoProc {
		return "P-none"
	}
	return fmt.Sprintf("P%d", int(p))
}

// CommitOrder tracks the strict task-ID order in which tasks must merge
// with architectural (or future) main memory. It is the bookkeeping behind
// the commit token: Head is the only task allowed to commit.
type CommitOrder struct {
	head TaskID // next task to commit
	last TaskID // last task of the section (inclusive); None if open-ended
}

// NewCommitOrder returns a CommitOrder whose head is the first task. If
// last is not None, the order is bounded and Done reports completion.
func NewCommitOrder(last TaskID) *CommitOrder {
	return &CommitOrder{head: First, last: last}
}

// Head returns the task currently holding the commit token.
func (c *CommitOrder) Head() TaskID { return c.head }

// IsNonSpeculative reports whether task t is the current non-speculative
// task (the token holder).
func (c *CommitOrder) IsNonSpeculative(t TaskID) bool { return t == c.head }

// IsCommitted reports whether task t has already committed.
func (c *CommitOrder) IsCommitted(t TaskID) bool {
	return !t.IsNone() && t.Before(c.head)
}

// IsSpeculative reports whether task t has not yet received the token.
func (c *CommitOrder) IsSpeculative(t TaskID) bool { return t.After(c.head) }

// Advance commits the head task and moves the token to its successor. It
// panics if t is not the head: out-of-order commit is a protocol bug, not
// a recoverable condition.
func (c *CommitOrder) Advance(t TaskID) {
	if t != c.head {
		panic(fmt.Sprintf("ids: out-of-order commit of %v while token is at %v", t, c.head))
	}
	c.head = c.head.Next()
}

// Done reports whether every task of a bounded section has committed.
func (c *CommitOrder) Done() bool {
	return c.last != None && c.head.After(c.last)
}
