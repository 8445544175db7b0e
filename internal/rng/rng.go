// Package rng provides a small, fast, fully deterministic pseudo-random
// number generator and the distributions the workload generators need.
//
// The simulator must be bit-for-bit reproducible from a seed across runs
// and platforms (regression tests and the paper-reproduction harness depend
// on it), so we implement the generator ourselves rather than depending on
// unspecified properties of other sources. The core generator is
// xoshiro256**, seeded through splitmix64, both public-domain algorithms by
// Blackman and Vigna.
package rng

import "math"

// Source is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; the simulator owns one Source per independent stream.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the seed state and returns the next seed word. It is
// the recommended seeding procedure for xoshiro generators.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give independent
// streams for any practical purpose.
func New(seed uint64) *Source {
	var r Source
	r.Seed(seed)
	return &r
}

// Seed resets r to the stream New(seed) returns. It lets hot callers keep a
// Source on the stack instead of allocating one per stream.
func (r *Source) Seed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// A pathological all-zero state cannot occur: splitmix64 is a bijection
	// composed with a mixing function whose only zero preimage would need
	// four consecutive zero outputs, which the constants prevent. Guard
	// anyway so the invariant is local.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives a new independent Source from r. The derived stream is a
// deterministic function of r's current state, so call order matters (and
// is fixed in the simulator).
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and branch-light.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Source) Exp(mean float64) float64 {
	// Inverse CDF; clamp the uniform away from 0 to keep the result finite.
	u := r.Float64()
	if u < 1e-300 {
		u = 1e-300
	}
	return -mean * math.Log(u)
}

// minUniform is the smallest positive value Float64 returns.
const minUniform = 0x1p-53

// NormalBound bounds the magnitude of Normal's standard deviate, which is
// at most sqrt(-2·ln minUniform) ≈ 8.57167: Normal(mean, stddev) never
// leaves mean ± stddev·NormalBound.
const NormalBound = 8.5717

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box–Muller, one value per call for determinism). A
// zero first uniform is raised to minUniform, which keeps the deviate
// finite and within NormalBound.
func (r *Source) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	if u1 < minUniform {
		u1 = minUniform
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormalCV returns a log-normally distributed value with the given mean
// and coefficient of variation (stddev/mean). Task-length distributions in
// the workload models use this: it is positive, right-skewed, and its tail
// weight grows with cv, which matches the "load imbalance" characteristic
// of Table 3.
func (r *Source) LogNormalCV(mean, cv float64) float64 {
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(r.Normal(mu, math.Sqrt(sigma2)))
}

// Pareto returns a bounded Pareto-distributed value in [lo, hi] with shape
// alpha. Used for the heavy-tailed component of highly imbalanced loads
// (P3m's one-long-task-per-wave behaviour).
func (r *Source) Pareto(lo, hi, alpha float64) float64 {
	if lo >= hi {
		return lo
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Perm fills out with a uniform random permutation of [0, len(out)).
func (r *Source) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}
