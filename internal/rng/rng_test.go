package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical outputs from different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(7)
	c := a.Split()
	d := a.Split()
	if c.Uint64() == d.Uint64() && c.Uint64() == d.Uint64() {
		t.Fatal("two splits produced identical streams")
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(9)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %.4f", got)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.Exp(50)
		if v < 0 {
			t.Fatal("Exp returned negative value")
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-50) > 1 {
		t.Fatalf("Exp(50) sample mean = %.3f", mean)
	}
}

// TestNormalBound: the largest deviate Normal can draw, at a zero first
// uniform and a zero second one, lies within NormalBound.
func TestNormalBound(t *testing.T) {
	if z := math.Sqrt(-2*math.Log(minUniform)) * math.Cos(0); z > NormalBound || z < NormalBound-1e-4 {
		t.Fatalf("largest deviate %v, NormalBound %v", z, NormalBound)
	}
	r := New(3)
	for i := 0; i < 100000; i++ {
		if z := r.Normal(0, 1); math.Abs(z) > NormalBound {
			t.Fatalf("draw %d: deviate %v beyond NormalBound", i, z)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	const draws = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %.4f, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("Normal stddev = %.4f, want ~3", math.Sqrt(variance))
	}
}

func TestLogNormalCVMoments(t *testing.T) {
	r := New(19)
	const draws = 400000
	mean, cv := 100.0, 0.8
	sum, sumsq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.LogNormalCV(mean, cv)
		if v <= 0 {
			t.Fatal("LogNormalCV returned non-positive value")
		}
		sum += v
		sumsq += v * v
	}
	m := sum / draws
	sd := math.Sqrt(sumsq/draws - m*m)
	if math.Abs(m-mean)/mean > 0.03 {
		t.Errorf("mean = %.3f, want ~%.0f", m, mean)
	}
	if math.Abs(sd/m-cv)/cv > 0.08 {
		t.Errorf("cv = %.3f, want ~%.2f", sd/m, cv)
	}
}

func TestLogNormalCVZeroCV(t *testing.T) {
	r := New(21)
	if got := r.LogNormalCV(42, 0); got != 42 {
		t.Fatalf("LogNormalCV(42, 0) = %v, want exactly the mean", got)
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(23)
	lo, hi := 10.0, 1000.0
	for i := 0; i < 10000; i++ {
		v := r.Pareto(lo, hi, 1.1)
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestParetoDegenerate(t *testing.T) {
	r := New(29)
	if got := r.Pareto(5, 5, 2); got != 5 {
		t.Fatalf("Pareto(5,5) = %v", got)
	}
}

func TestParetoSkew(t *testing.T) {
	// A heavy-tailed draw should have mean well above the lower bound and a
	// median near it.
	r := New(31)
	const draws = 50000
	lo, hi := 1.0, 10000.0
	sum := 0.0
	belowTwice := 0
	for i := 0; i < draws; i++ {
		v := r.Pareto(lo, hi, 1.0)
		sum += v
		if v < 2*lo {
			belowTwice++
		}
	}
	if mean := sum / draws; mean < 3*lo {
		t.Errorf("Pareto(alpha=1) mean = %.2f, expected a heavy tail", mean)
	}
	if frac := float64(belowTwice) / draws; frac < 0.4 {
		t.Errorf("only %.2f of draws near the lower bound; distribution not skewed", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	out := make([]int, 100)
	r.Perm(out)
	seen := make([]bool, 100)
	for _, v := range out {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", out[:10])
		}
		seen[v] = true
	}
}

func TestPermEmpty(t *testing.T) {
	r := New(41)
	r.Perm(nil) // must not panic
	one := make([]int, 1)
	r.Perm(one)
	if one[0] != 0 {
		t.Fatal("Perm of length 1 must be [0]")
	}
}

func TestMul64(t *testing.T) {
	tests := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, tt := range tests {
		hi, lo := mul64(tt.a, tt.b)
		if hi != tt.hi || lo != tt.lo {
			t.Errorf("mul64(%d, %d) = (%d, %d), want (%d, %d)", tt.a, tt.b, hi, lo, tt.hi, tt.lo)
		}
	}
}
