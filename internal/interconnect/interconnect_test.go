package interconnect

import (
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestMeshHops(t *testing.T) {
	m := NewMesh2D(4, 4)
	tests := []struct {
		a, b ids.ProcID
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 15, 6}, // opposite corners of a 4x4
		{5, 10, 2}, // (1,1) to (2,2)
	}
	for _, tt := range tests {
		if got := m.Hops(tt.a, tt.b); got != tt.want {
			t.Errorf("Hops(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
	if m.Nodes() != 16 {
		t.Fatalf("Nodes = %d", m.Nodes())
	}
	if m.Name() != "4x4 mesh" {
		t.Fatalf("Name = %q", m.Name())
	}
}

// Property: mesh distance is a symmetric metric.
func TestMeshMetricProperty(t *testing.T) {
	m := NewMesh2D(4, 4)
	f := func(a, b, c uint8) bool {
		x, y, z := ids.ProcID(a%16), ids.ProcID(b%16), ids.ProcID(c%16)
		if m.Hops(x, y) != m.Hops(y, x) {
			return false
		}
		if x == y && m.Hops(x, y) != 0 {
			return false
		}
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossbarHops(t *testing.T) {
	c := NewCrossbar(8)
	if c.Hops(3, 3) != 0 {
		t.Fatal("self distance != 0")
	}
	if c.Hops(0, 7) != 1 {
		t.Fatal("crossbar distance != 1")
	}
	if c.Nodes() != 8 || c.Name() != "8-port crossbar" {
		t.Fatalf("Nodes/Name wrong: %d %q", c.Nodes(), c.Name())
	}
}

func TestTopologyPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMesh2D(0, 4) },
		func() { NewCrossbar(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid topology did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestNetworkTransferUncontended(t *testing.T) {
	n := NewNetwork(NewCrossbar(4), 4, 2, 8)
	done := n.Transfer(0, 0, 100, 50)
	// Interface at 100 (occupies 2), bank free at 100 (start >= interface
	// grant time 100), done = bankStart + lat.
	if done != 150 {
		t.Fatalf("done = %d, want 150", done)
	}
	if n.QueueDelay() != 0 || n.IfDelay() != 0 {
		t.Fatal("uncontended transfer queued")
	}
}

func TestNetworkBankContention(t *testing.T) {
	n := NewNetwork(NewCrossbar(4), 1, 0, 10)
	d1 := n.Transfer(0, 0, 0, 100)
	d2 := n.Transfer(1, 0, 0, 100)
	if d1 != 100 {
		t.Fatalf("first transfer done = %d", d1)
	}
	if d2 != 110 {
		t.Fatalf("second transfer must queue behind bank occupancy: done = %d, want 110", d2)
	}
	if n.QueueDelay() != 10 {
		t.Fatalf("QueueDelay = %d, want 10", n.QueueDelay())
	}
}

func TestNetworkInterfaceContention(t *testing.T) {
	n := NewNetwork(NewCrossbar(4), 8, 5, 0)
	n.Transfer(2, 0, 0, 100)
	done := n.Transfer(2, 1, 0, 100) // same node, different bank
	if done != 105 {
		t.Fatalf("second message from same node: done = %d, want 105", done)
	}
	if n.IfDelay() != 5 {
		t.Fatalf("IfDelay = %d, want 5", n.IfDelay())
	}
}

func TestNetworkHome(t *testing.T) {
	n := NewNetwork(NewMesh2D(4, 4), 16, 0, 0)
	if n.Home(0) != 0 || n.Home(17) != 1 || n.Home(31) != 15 {
		t.Fatal("home interleaving wrong")
	}
	if n.topo.Nodes() != 16 {
		t.Fatal("network lost its topology")
	}
}

func TestNetworkIgnoresInvalidNode(t *testing.T) {
	n := NewNetwork(NewCrossbar(2), 2, 5, 0)
	// NoProc (e.g. a background engine) skips interface accounting.
	done := n.Transfer(ids.NoProc, 0, 10, 40)
	if done != 50 {
		t.Fatalf("done = %d, want 50", done)
	}
}
