package ids

import (
	"testing"
	"testing/quick"
)

func TestNoneOrdering(t *testing.T) {
	if !None.IsNone() {
		t.Fatal("None.IsNone() = false")
	}
	if First.IsNone() {
		t.Fatal("First.IsNone() = true")
	}
	if !None.Before(First) {
		t.Fatal("None must precede First")
	}
	if None.After(First) {
		t.Fatal("None.After(First) = true")
	}
}

func TestNextPrev(t *testing.T) {
	tests := []struct {
		in   TaskID
		next TaskID
		prev TaskID
	}{
		{First, First + 1, None},
		{None, First, None},
		{TaskID(10), TaskID(11), TaskID(9)},
	}
	for _, tt := range tests {
		if got := tt.in.Next(); got != tt.next {
			t.Errorf("%v.Next() = %v, want %v", tt.in, got, tt.next)
		}
		if got := tt.in.Prev(); got != tt.prev {
			t.Errorf("%v.Prev() = %v, want %v", tt.in, got, tt.prev)
		}
	}
}

func TestString(t *testing.T) {
	if got := None.String(); got != "T-none" {
		t.Errorf("None.String() = %q", got)
	}
	if got := First.String(); got != "T0" {
		t.Errorf("First.String() = %q, want T0 (tasks print zero-based as in the paper's figures)", got)
	}
	if got := TaskID(4).String(); got != "T3" {
		t.Errorf("TaskID(4).String() = %q", got)
	}
	if got := NoProc.String(); got != "P-none" {
		t.Errorf("NoProc.String() = %q", got)
	}
	if got := ProcID(2).String(); got != "P2" {
		t.Errorf("ProcID(2).String() = %q", got)
	}
}

// Property: Before is a strict total order consistent with After.
func TestOrderProperties(t *testing.T) {
	f := func(x, y uint64) bool {
		a, b := TaskID(x), TaskID(y)
		if a == b {
			return !a.Before(b) && !a.After(b)
		}
		return a.Before(b) != a.After(b) && a.Before(b) == b.After(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Next is monotone and Prev inverts it for real tasks.
func TestNextPrevProperties(t *testing.T) {
	f := func(x uint64) bool {
		a := TaskID(x % (1 << 62)) // keep away from overflow
		if a == None {
			a = First
		}
		return a.Before(a.Next()) && a.Next().Prev() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommitOrderSequence(t *testing.T) {
	c := NewCommitOrder(TaskID(3))
	if c.Head() != First {
		t.Fatalf("head = %v, want %v", c.Head(), First)
	}
	if c.Done() {
		t.Fatal("Done before any commit")
	}
	if !c.IsNonSpeculative(First) {
		t.Fatal("First should be non-speculative at start")
	}
	if !c.IsSpeculative(TaskID(2)) {
		t.Fatal("T1 should be speculative at start")
	}
	if c.IsCommitted(First) {
		t.Fatal("First not committed yet")
	}
	c.Advance(First)
	if !c.IsCommitted(First) {
		t.Fatal("First should be committed")
	}
	if c.Head() != TaskID(2) {
		t.Fatalf("head = %v after one commit", c.Head())
	}
	c.Advance(TaskID(2))
	c.Advance(TaskID(3))
	if !c.Done() {
		t.Fatal("section should be done after last task commits")
	}
}

func TestCommitOrderPanicsOutOfOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance out of order must panic")
		}
	}()
	c := NewCommitOrder(TaskID(5))
	c.Advance(TaskID(2)) // head is First
}

func TestCommitOrderNoneIsCommittedFalse(t *testing.T) {
	c := NewCommitOrder(TaskID(5))
	c.Advance(First)
	if c.IsCommitted(None) {
		t.Fatal("None must never report committed")
	}
}

func TestCommitOrderUnbounded(t *testing.T) {
	c := NewCommitOrder(None)
	for i := 0; i < 100; i++ {
		c.Advance(c.Head())
		if c.Done() {
			t.Fatal("unbounded order can never be done")
		}
	}
}
