package machine

import (
	"reflect"
	"testing"

	"repro/internal/memsys"
)

func TestNUMA16MatchesPaper(t *testing.T) {
	c := NUMA16()
	if c.Procs != 16 {
		t.Fatalf("Procs = %d, want 16 (Section 4.1: 16 nodes of 1 processor)", c.Procs)
	}
	if c.L1.SizeBytes != 32<<10 || c.L1.Ways != 2 {
		t.Fatal("L1 must be a 2-way 32-KB cache")
	}
	if c.L2.SizeBytes != 512<<10 || c.L2.Ways != 4 {
		t.Fatal("L2 must be a 4-way 512-KB cache")
	}
	// Round-trip latencies: 2, 12, 75, 208, 291.
	if c.LatL1 != 2 || c.LatL2 != 12 || c.LatMemLocal != 75 ||
		c.LatMemRemote != 208 || c.LatCacheRemote != 291 {
		t.Fatalf("latencies = %d/%d/%d/%d/%d, want 2/12/75/208/291",
			c.LatL1, c.LatL2, c.LatMemLocal, c.LatMemRemote, c.LatCacheRemote)
	}
	if c.topo.Nodes() != 16 || c.topo.Name() != "4x4 mesh" {
		t.Fatalf("topology = %q/%d", c.topo.Name(), c.topo.Nodes())
	}
}

func TestCMP8MatchesPaper(t *testing.T) {
	c := CMP8()
	if c.Procs != 8 {
		t.Fatalf("Procs = %d, want 8", c.Procs)
	}
	if c.L2.SizeBytes != 256<<10 || c.L2.Ways != 4 {
		t.Fatal("CMP L2 must be a 4-way 256-KB cache")
	}
	// Round-trip latencies: 2, 8, 18 (other L2), 38 (L3), 102 (memory).
	if c.LatL1 != 2 || c.LatL2 != 8 || c.LatCacheRemote != 18 ||
		c.LatL3 != 38 || c.LatMemLocal != 102 {
		t.Fatalf("latencies = %d/%d/%d/%d/%d, want 2/8/18/38/102",
			c.LatL1, c.LatL2, c.LatCacheRemote, c.LatL3, c.LatMemLocal)
	}
	if c.LatMemRemote != c.LatMemLocal {
		t.Fatal("CMP memory latency must be flat")
	}
}

func TestBigL2Variant(t *testing.T) {
	c := NUMA16BigL2()
	if c.L2.SizeBytes != 4<<20 || c.L2.Ways != 16 {
		t.Fatal("Lazy.L2 variant must be a 16-way 4-MB L2 (Section 5.2)")
	}
	// Everything else inherits NUMA16.
	if c.LatMemRemote != 208 || c.Procs != 16 {
		t.Fatal("Lazy.L2 variant must only change the L2")
	}
	if (memsys.Config{SizeBytes: 4 << 20, Ways: 16}).Sets() != c.L2.Sets() {
		t.Fatal("sets mismatch")
	}
}

func TestSequentialVariant(t *testing.T) {
	for _, base := range []*Config{NUMA16(), CMP8()} {
		s := Sequential(base)
		if s.Procs != 1 {
			t.Fatalf("%s: sequential Procs = %d", base.Name, s.Procs)
		}
		if s.LatMemRemote != s.LatMemLocal || s.LatCacheRemote != s.LatMemLocal {
			t.Fatalf("%s: sequential baseline must have all data local", base.Name)
		}
		if s.topo.Nodes() != 1 {
			t.Fatalf("%s: sequential topology has %d nodes", base.Name, s.topo.Nodes())
		}
		// The original must be untouched.
		if base.Procs == 1 {
			t.Fatal("Sequential mutated its argument")
		}
	}
}

func TestCommitCostOrdering(t *testing.T) {
	n, c := NUMA16(), CMP8()
	// The NUMA commit streams to distributed memories and must be several
	// times costlier per line than the on-chip CMP commit; this is what
	// halves the Commit/Execution ratios in Table 3 on the CMP.
	if n.CommitPerLine < 2*c.CommitPerLine {
		t.Fatalf("NUMA CommitPerLine (%d) should be well above CMP (%d)", n.CommitPerLine, c.CommitPerLine)
	}
	if n.TokenPass <= c.TokenPass {
		t.Fatal("token passing must be cheaper on chip")
	}
	if n.FMMRestoreLine <= c.FMMRestoreLine {
		t.Fatal("FMM recovery per line must be cheaper on chip")
	}
}

func TestNewNetworkIsFresh(t *testing.T) {
	c := CMP8()
	n1 := c.NewNetwork()
	n1.Transfer(0, 0, 0, 10)
	n2 := c.NewNetwork()
	if n2.QueueDelay() != 0 || n2.IfDelay() != 0 {
		t.Fatal("NewNetwork shared state across instances")
	}
}

func TestLatMemoryHelper(t *testing.T) {
	c := NUMA16()
	if c.LatMemory(true) != 75 || c.LatMemory(false) != 208 {
		t.Fatal("LatMemory helper wrong")
	}
}

func TestKindString(t *testing.T) {
	if NUMA.String() != "NUMA" || CMP.String() != "CMP" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestNUMASizes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		c := ScalableNUMA(n)
		if c.Procs != n || c.Banks != n {
			t.Errorf("NUMA(%d): procs %d banks %d", n, c.Procs, c.Banks)
		}
		if c.topo.Nodes() < n {
			t.Errorf("NUMA(%d): topology has %d nodes", n, c.topo.Nodes())
		}
		if c.L2.SizeBytes != 512<<10 {
			t.Errorf("NUMA(%d): per-node caches must not change", n)
		}
	}
	if ScalableNUMA(16).topo.Name() != "4x4 mesh" {
		t.Errorf("ScalableNUMA(16) mesh = %q", ScalableNUMA(16).topo.Name())
	}
}

func TestMeshDims(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 8: {4, 2}, 16: {4, 4}, 32: {8, 4}, 64: {8, 8}, 12: {4, 3}}
	for n, want := range cases {
		c, r := meshDims(n)
		if c != want[0] || r != want[1] {
			t.Errorf("meshDims(%d) = (%d,%d), want %v", n, c, r, want)
		}
		if c*r < n {
			t.Errorf("meshDims(%d) too small", n)
		}
	}
}

func TestMeshDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("meshDims(0) must panic")
		}
	}()
	meshDims(0)
}

// TestByName covers every spelling a command line, a job spec or a chaos
// recording uses, in any case, and rejects the rest.
func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want *Config
	}{
		{"numa", NUMA16()},
		{"NUMA", NUMA16()},
		{"numa16", NUMA16()},
		{"NUMA16", NUMA16()},
		{"numa-bigl2", NUMA16BigL2()},
		{"NUMA16.L2", NUMA16BigL2()},
		{"numa16.l2", NUMA16BigL2()},
		{"cmp", CMP8()},
		{"cmp8", CMP8()},
		{"CMP8", CMP8()},
		{"NUMA4", ScalableNUMA(4)},
		{"numa64", ScalableNUMA(64)},
		{"NUMA4096", ScalableNUMA(4096)},
	} {
		got, err := ByName(tc.name)
		if err != nil {
			t.Errorf("ByName(%q): %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ByName(%q) = %s, want %s", tc.name, got.Name, tc.want.Name)
		}
	}
	for _, m := range []*Config{NUMA16(), NUMA16BigL2(), CMP8(), ScalableNUMA(32)} {
		if got, err := ByName(m.Name); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("%s does not resolve to itself: %v, %v", m.Name, got, err)
		}
	}
	for _, bad := range []string{"", "torus", "numa0", "NUMA4097", "cmp4", "numa-8", "NUMA16.seq"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}
