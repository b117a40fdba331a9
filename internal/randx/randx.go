// Package randx provides the deterministic random-number utilities shared by
// the workload generators and the noise-hint injector: a seeded PRNG
// constructor and a bounded Zipf sampler that supports skew parameters
// z <= 1 (which math/rand's Zipf does not).
package randx

import (
	"math"
	"math/rand"
)

// New returns a rand.Rand seeded deterministically from seed. All
// randomness in this repository flows through explicit seeds so that traces
// and experiments are reproducible bit-for-bit.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Zipf samples integers in [0, n) with P(i) proportional to 1/(i+1)^s.
// Unlike math/rand.Zipf it accepts any s >= 0 (s=0 is uniform, s=1 is the
// classic harmonic distribution used by the paper's noise-hint experiment,
// §6.3). A draw u returns the first index whose CDF reaches u, found through
// a guide table (Chen & Asau, 1974): bucket ⌊u·n⌋ bounds the answer, and
// only that bucket is bisected, so a draw costs O(1) expected steps and
// returns exactly what a binary search over the whole CDF would.
type Zipf struct {
	cdf []float64
	// guide[j] is the first index whose CDF falls in bucket j or above,
	// for j in [0, n]. The last CDF entry is exactly 1, in bucket n.
	guide []int32
	rng   *rand.Rand
}

// NewZipf builds a sampler over [0, n) with exponent s, drawing randomness
// from rng. It panics unless 0 < n <= math.MaxInt32 and s >= 0.
func NewZipf(rng *rand.Rand, n int, s float64) *Zipf {
	if n <= 0 || n > math.MaxInt32 {
		panic("randx: Zipf domain must be in [1, MaxInt32]")
	}
	if !(s >= 0) {
		panic("randx: Zipf exponent must be non-negative")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	// Bucketing is monotone in its argument, so every index before
	// guide[bucket(u)] has a CDF below u, and the CDF at guide[bucket(u)+1]
	// is above it.
	guide := make([]int32, n+1)
	j := 0
	for i, c := range cdf {
		for b := int(c * float64(n)); j <= b; j++ {
			guide[j] = int32(i)
		}
	}
	return &Zipf{cdf: cdf, guide: guide, rng: rng}
}

// N returns the domain size.
func (z *Zipf) N() int { return len(z.cdf) }

// Next draws one sample.
func (z *Zipf) Next() int { return z.search(z.rng.Float64()) }

// search returns the first index whose CDF is at least u, for u in [0, 1):
// sort.SearchFloat64s(z.cdf, u), searched within u's guide bucket.
func (z *Zipf) search(u float64) int {
	j := int(u * float64(len(z.cdf)))
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if z.cdf[h] < u {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// Prob returns the probability of value i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// NURand implements the TPC-C non-uniform random function
// NURand(A, x, y) = (((rand(0,A) | rand(x,y)) + C) % (y-x+1)) + x,
// used to pick customers and items with realistic skew.
func NURand(rng *rand.Rand, a, x, y, c int) int {
	r1 := rng.Intn(a + 1)
	r2 := x + rng.Intn(y-x+1)
	return ((r1|r2)+c)%(y-x+1) + x
}
