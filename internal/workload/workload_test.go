package workload

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/memsys"
)

func TestAllProfilesValidate(t *testing.T) {
	apps := Apps()
	if len(apps) != 7 {
		t.Fatalf("suite has %d applications, want 7", len(apps))
	}
	for _, p := range apps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestAppByName(t *testing.T) {
	p, ok := AppByName("Euler")
	if !ok || p.Name != "Euler" {
		t.Fatal("AppByName(Euler) failed")
	}
	if _, ok := AppByName("nope"); ok {
		t.Fatal("AppByName of unknown app succeeded")
	}
}

func TestPaperCharacteristics(t *testing.T) {
	// Spot-check the published per-application characteristics (Table 3,
	// Figure 1, Section 4.2 prose).
	p3m, _ := AppByName("P3m")
	if p3m.QualImbalance != High || p3m.HeavyTailFrac == 0 {
		t.Error("P3m must be the high-imbalance application")
	}
	for _, name := range []string{"Tree", "Bdna"} {
		p, _ := AppByName(name)
		if p.PrivFrac < 0.9 {
			t.Errorf("%s must be privatization-dominant (got %v)", name, p.PrivFrac)
		}
	}
	for _, name := range []string{"Track", "Dsmc3d", "Euler"} {
		p, _ := AppByName(name)
		if p.PrivFrac > 0.05 {
			t.Errorf("%s must have no privatization patterns (got %v)", name, p.PrivFrac)
		}
	}
	euler, _ := AppByName("Euler")
	if euler.PaperSquash != 0.02 || euler.DepProb == 0 {
		t.Error("Euler is the squash-dominated application (0.02 squashes/task)")
	}
	// Commit/Execution ratio ordering: Apsi, Track, Euler are the apps whose
	// NUMA ratio times 16 processors exceeds 1 (Section 5.2).
	for _, name := range []string{"Apsi", "Track", "Euler"} {
		p, _ := AppByName(name)
		if p.PaperCENuma*16 <= 100 {
			t.Errorf("%s: paper C/E ratio %v%% x16 must exceed 100%%", name, p.PaperCENuma)
		}
	}
	for _, name := range []string{"P3m", "Tree", "Bdna", "Dsmc3d"} {
		p, _ := AppByName(name)
		if p.PaperCENuma*16 > 100 {
			t.Errorf("%s: paper C/E ratio %v%% x16 must stay below 100%%", name, p.PaperCENuma)
		}
	}
	// CMP ratios are roughly half the NUMA ratios.
	for _, p := range Apps() {
		if p.PaperCECmp >= p.PaperCENuma {
			t.Errorf("%s: CMP C/E (%v) must be below NUMA C/E (%v)", p.Name, p.PaperCECmp, p.PaperCENuma)
		}
	}
}

func TestFootprintArithmetic(t *testing.T) {
	p := Profile{Name: "x", Tasks: 1, InstrPerTask: 100, FootprintBytes: 1024,
		WriteDensity: 4, WritePhase: 1, ReadsPerWrite: 1}
	if p.WordsWritten() != 256 {
		t.Fatalf("WordsWritten = %d", p.WordsWritten())
	}
	if p.LinesWritten() != 64 {
		t.Fatalf("LinesWritten = %d (256 words at density 4)", p.LinesWritten())
	}
	dense := p
	dense.WriteDensity = 16
	if dense.LinesWritten() != 16 {
		t.Fatalf("dense LinesWritten = %d", dense.LinesWritten())
	}
}

func TestValidateRejects(t *testing.T) {
	good := Tree()
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Tasks = 0 },
		func(p *Profile) { p.InstrPerTask = 0 },
		func(p *Profile) { p.FootprintBytes = 0 },
		func(p *Profile) { p.WriteDensity = 0 },
		func(p *Profile) { p.WriteDensity = 17 },
		func(p *Profile) { p.PrivFrac = 1.5 },
		func(p *Profile) { p.WritePhase = 0 },
		func(p *Profile) { p.SharedReadFrac = -0.1 },
		func(p *Profile) { p.DepProb = 2 },
		func(p *Profile) { p.DepProb = 0.1; p.DepReach = 0 },
	}
	for i, mutate := range bad {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

// TestValidateRejectsNaN: a NaN in any float field fails validation. NaN
// fails every comparison, so a check written "x < 0 || x > 1" lets it
// through; a NaN WritePhase then made Task index out of range.
func TestValidateRejectsNaN(t *testing.T) {
	good := StandardScale(Euler())
	v := reflect.ValueOf(&good).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Float64 {
			continue
		}
		p := good
		reflect.ValueOf(&p).Elem().Field(i).SetFloat(math.NaN())
		if err := p.Validate(); err == nil {
			t.Errorf("%s = NaN accepted", v.Type().Field(i).Name)
		}
	}
}

func TestScale(t *testing.T) {
	p := Bdna()
	s := p.Scale(0.5, 0.25, 0.25)
	if s.Tasks != p.Tasks/2 {
		t.Fatalf("scaled tasks = %d", s.Tasks)
	}
	if s.InstrPerTask != p.InstrPerTask/4 {
		t.Fatalf("scaled instructions = %d", s.InstrPerTask)
	}
	if s.FootprintBytes != p.FootprintBytes/4 {
		t.Fatalf("scaled footprint = %d", s.FootprintBytes)
	}
	// Zero scale clamps to a minimal valid profile.
	z := p.Scale(0, 0, 0)
	if z.Tasks < 1 || z.InstrPerTask < 1 || z.FootprintBytes < memsys.WordBytes {
		t.Fatal("scale must clamp to valid minima")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(Euler().Scale(0.1, 0.1, 0.1), 42)
	g2 := NewGenerator(Euler().Scale(0.1, 0.1, 0.1), 42)
	for i := 0; i < 20; i++ {
		a, ia := g1.Task(i, nil)
		b, ib := g2.Task(i, nil)
		if ia != ib || len(a) != len(b) {
			t.Fatalf("task %d: shapes differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("task %d op %d differs: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
	// A different seed must give a different stream.
	g3 := NewGenerator(Euler().Scale(0.1, 0.1, 0.1), 43)
	c, _ := g3.Task(0, nil)
	a, _ := g1.Task(0, nil)
	same := len(a) == len(c)
	if same {
		for j := range a {
			if a[j] != c[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorRejectsInvalidProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGenerator must panic on an invalid profile")
		}
	}()
	NewGenerator(Profile{}, 1)
}

func TestTaskInstructionsMatchStream(t *testing.T) {
	g := NewGenerator(Bdna().Scale(0.1, 0.1, 0.1), 7)
	ops, instr := g.Task(3, nil)
	sum := 0
	for _, op := range ops {
		if op.Kind() == OpCompute && op.Chunk() <= 0 {
			t.Fatal("empty compute chunk emitted")
		}
		sum += op.Chunk()
	}
	if sum != instr {
		t.Fatalf("compute chunks sum to %d, want %d", sum, instr)
	}
}

func TestTaskFootprint(t *testing.T) {
	p := Apsi().Scale(0.1, 0.1, 0.1)
	g := NewGenerator(p, 9)
	ops, _ := g.Task(5, nil)
	written := map[memsys.Addr]bool{}
	lines := map[memsys.LineAddr]bool{}
	for _, op := range ops {
		if op.Kind() == OpWrite {
			written[op.Addr()] = true
			lines[op.Addr().Line()] = true
		}
	}
	// Written words = footprint words (+1 for the communication channel).
	want := p.LinesWritten() * p.WriteDensity
	got := len(written) - 1
	if got < want-p.WriteDensity || got > want+p.WriteDensity {
		t.Fatalf("distinct written words = %d, want ~%d", got, want)
	}
	wantLines := p.LinesWritten()
	if got := len(lines) - 1; got != wantLines {
		t.Fatalf("distinct written lines = %d, want %d", got, wantLines)
	}
}

func TestPrivatizationAddressesShared(t *testing.T) {
	p := Tree().Scale(0.2, 0.2, 0.2)
	g := NewGenerator(p, 11)
	privWrites := func(index int) map[memsys.Addr]bool {
		ops, _ := g.Task(index, nil)
		out := map[memsys.Addr]bool{}
		for _, op := range ops {
			if op.Kind() == OpWrite && op.Addr() >= PrivBase && op.Addr() < UniqueBase {
				out[op.Addr()] = true
			}
		}
		return out
	}
	a, b := privWrites(0), privWrites(7)
	if len(a) == 0 {
		t.Fatal("privatization-dominant app wrote no privatized words")
	}
	if len(a) != len(b) {
		t.Fatalf("priv footprints differ: %d vs %d", len(a), len(b))
	}
	for addr := range a {
		if !b[addr] {
			t.Fatal("tasks must write the SAME privatized variables (mostly-privatization pattern)")
		}
	}
}

func TestUniqueRegionsDoNotOverlapConcurrently(t *testing.T) {
	p := Track().Scale(0.2, 0.2, 0.2)
	g := NewGenerator(p, 13)
	uniqueWrites := func(index int) map[memsys.Addr]bool {
		ops, _ := g.Task(index, nil)
		out := map[memsys.Addr]bool{}
		for _, op := range ops {
			if op.Kind() == OpWrite && op.Addr() >= UniqueBase && op.Addr() < CommBase {
				out[op.Addr()] = true
			}
		}
		return out
	}
	// Nearby tasks use disjoint regions; tasks a full pool apart may share.
	a, b := uniqueWrites(3), uniqueWrites(4)
	for addr := range a {
		if b[addr] {
			t.Fatal("adjacent tasks share task-private addresses")
		}
	}
	c := uniqueWrites(3 + regionPool)
	overlap := false
	for addr := range a {
		if c[addr] {
			overlap = true
			break
		}
	}
	if !overlap {
		t.Fatal("region pool must recycle addresses (memory bound)")
	}
}

func TestImbalanceStatistics(t *testing.T) {
	balanced := NewGenerator(Apsi(), 17)
	imbalanced := NewGenerator(P3m(), 17)
	cv := func(g *Generator, n int) float64 {
		sum, sumsq := 0.0, 0.0
		for i := 0; i < n; i++ {
			m := g.LengthMultiplier(i)
			sum += m
			sumsq += m * m
		}
		mean := sum / float64(n)
		return math.Sqrt(sumsq/float64(n)-mean*mean) / mean
	}
	b, im := cv(balanced, 1000), cv(imbalanced, 1000)
	if b > 0.3 {
		t.Errorf("Apsi task-length CV = %.2f, want low", b)
	}
	if im < 1.0 {
		t.Errorf("P3m task-length CV = %.2f, want heavy-tailed (>1)", im)
	}
}

func TestHeavyTailProducesLongTasks(t *testing.T) {
	g := NewGenerator(P3m(), 19)
	maxMul := 0.0
	for i := 0; i < 2000; i++ {
		if m := g.LengthMultiplier(i); m > maxMul {
			maxMul = m
		}
	}
	if maxMul < 50 {
		t.Fatalf("longest P3m task multiplier = %.1f, want a >50x straggler", maxMul)
	}
}

func TestWritePhaseEarlyForPrivApps(t *testing.T) {
	p := Bdna().Scale(0.1, 0.1, 0.1)
	g := NewGenerator(p, 23)
	ops, instr := g.Task(2, nil)
	// All privatized/private writes must appear in the first WritePhase
	// fraction of the instruction stream (plus the late channel publish).
	executed := 0
	for _, op := range ops {
		executed += op.Chunk()
		if op.Kind() != OpWrite || op.Addr() >= CommBase {
			continue // the channel publish is late by design
		}
		if frac := float64(executed) / float64(instr); frac > p.WritePhase+0.02 {
			t.Fatalf("write at %.0f%% of task, want within write phase %.0f%%",
				frac*100, p.WritePhase*100)
		}
	}
}

func TestCommunicationOps(t *testing.T) {
	p := Euler().Scale(0.2, 0.2, 0.2)
	g := NewGenerator(p, 29)
	publishes, consumes := 0, 0
	for i := 0; i < p.Tasks; i++ {
		ops, _ := g.Task(i, nil)
		for _, op := range ops {
			if op.Addr() >= CommBase {
				if op.Kind() == OpWrite {
					publishes++
				} else {
					consumes++
				}
			}
		}
	}
	if publishes != p.Tasks {
		t.Fatalf("every task must publish once: %d/%d", publishes, p.Tasks)
	}
	want := float64(p.Tasks) * p.DepProb
	if consumes == 0 || math.Abs(float64(consumes)-want) > 4*math.Sqrt(want)+3 {
		t.Fatalf("consumes = %d, want ~%.0f", consumes, want)
	}
}

func TestNoCommunicationWithoutDeps(t *testing.T) {
	p := Tree().Scale(0.2, 0.2, 0.2)
	g := NewGenerator(p, 31)
	for i := 0; i < 50; i++ {
		ops, _ := g.Task(i, nil)
		for _, op := range ops {
			if op.Kind() == OpRead && op.Addr() >= CommBase {
				t.Fatal("dependence-free app issued a communication read")
			}
		}
	}
}

func TestSequentialOrderOracle(t *testing.T) {
	g := NewGenerator(Euler().Scale(0.2, 0.2, 0.2), 37)
	// Task 70 reading channel 6 must see task 6's value... unless a nearer
	// predecessor wrote it: channels repeat every commChannels tasks.
	got := g.SequentialOrderOracle(g.channelAddr(6), 70)
	if got != 6 {
		t.Fatalf("oracle = %d, want 6 (the only predecessor of 70 on channel 6)", got)
	}
	// Task 70 reading its own channel must see the previous occupant.
	got = g.SequentialOrderOracle(g.channelAddr(70), 70)
	if got != 70-commChannels {
		t.Fatalf("oracle = %d, want %d", got, 70-commChannels)
	}
	if got := g.SequentialOrderOracle(g.channelAddr(3), 2); got != -1 {
		t.Fatalf("oracle for unwritten channel = %d, want -1", got)
	}
	if got := g.SequentialOrderOracle(SharedBase+5, 9); got != -1 {
		t.Fatalf("oracle for shared region = %d, want -1", got)
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{Low: "Low", Med: "Med", High: "High", HighMed: "High-Med", Level(9): "Level(9)"} {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", uint8(l), got, want)
		}
	}
}

func TestOpsReuseBuffer(t *testing.T) {
	g := NewGenerator(Dsmc3d().Scale(0.1, 0.1, 0.1), 41)
	buf, _ := g.Task(0, nil)
	ptr := &buf[0]
	buf2, _ := g.Task(1, buf)
	if len(buf2) > 0 && len(buf2) <= cap(buf) && &buf2[0] != ptr {
		t.Fatal("generator did not reuse the provided buffer")
	}
}

func TestRechunkPreservesTotalWork(t *testing.T) {
	p := Euler()
	r := p.Rechunk(2)
	if got := r.Tasks * r.InstrPerTask; got < p.Tasks*p.InstrPerTask*95/100 ||
		got > p.Tasks*p.InstrPerTask*105/100 {
		t.Fatalf("total instructions changed: %d vs %d", got, p.Tasks*p.InstrPerTask)
	}
	if r.Tasks != p.Tasks/2 || r.InstrPerTask != p.InstrPerTask*2 {
		t.Fatalf("rechunk arithmetic wrong: %d tasks x %d instr", r.Tasks, r.InstrPerTask)
	}
	if r.TasksPerInvoc != p.TasksPerInvoc/2 {
		t.Fatalf("invocation size must rescale: %d", r.TasksPerInvoc)
	}
	if r.DepReach != p.DepReach/2 {
		t.Fatalf("dependence reach must rescale: %d", r.DepReach)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRechunkDegenerate(t *testing.T) {
	p := Euler()
	if got := p.Rechunk(0); got.Tasks != p.Tasks {
		t.Fatal("non-positive factor must be a no-op")
	}
	tiny := p.Rechunk(1e9)
	if tiny.Tasks != 1 || tiny.TasksPerInvoc < 1 || tiny.DepReach < 1 {
		t.Fatalf("extreme rechunk must clamp: %+v", tiny)
	}
}
