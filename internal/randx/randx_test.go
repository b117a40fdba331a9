package randx

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestZipfBounds(t *testing.T) {
	rng := New(1)
	z := NewZipf(rng, 50, 1)
	if z.N() != 50 {
		t.Fatalf("N = %d", z.N())
	}
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 50 {
			t.Fatalf("sample %d out of [0,50)", v)
		}
	}
}

func TestZipfProbabilitiesSumToOne(t *testing.T) {
	for _, s := range []float64{0, 0.5, 1, 2} {
		z := NewZipf(New(1), 100, s)
		sum := 0.0
		for i := 0; i < 100; i++ {
			sum += z.Prob(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("s=%v: probabilities sum to %v", s, sum)
		}
	}
	if z := NewZipf(New(1), 10, 1); z.Prob(-1) != 0 || z.Prob(10) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestZipfMonotone(t *testing.T) {
	z := NewZipf(New(1), 100, 1)
	for i := 1; i < 100; i++ {
		if z.Prob(i) > z.Prob(i-1)+1e-15 {
			t.Fatalf("Prob(%d)=%v > Prob(%d)=%v", i, z.Prob(i), i-1, z.Prob(i-1))
		}
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(New(1), 10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(z.Prob(i)-0.1) > 1e-9 {
			t.Fatalf("s=0 Prob(%d) = %v, want 0.1", i, z.Prob(i))
		}
	}
}

func TestZipfSkewEmpirical(t *testing.T) {
	z := NewZipf(New(42), 100, 1)
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// With z=1 over 100 values, value 0 has probability 1/H(100) ≈ 0.193.
	p0 := float64(counts[0]) / n
	if p0 < 0.17 || p0 > 0.22 {
		t.Errorf("empirical P(0) = %v, want ≈ 0.193", p0)
	}
	// The top 10 values should dominate: P ≈ H(10)/H(100) ≈ 0.565.
	top := 0
	for i := 0; i < 10; i++ {
		top += counts[i]
	}
	if frac := float64(top) / n; frac < 0.52 || frac > 0.61 {
		t.Errorf("empirical P(top 10) = %v, want ≈ 0.565", frac)
	}
}

// TestZipfPanics: bad domains and exponents panic. The rows stop at the
// first one that does not, so a sampler that accepts a NaN exponent never
// reaches the last row, which would build a 16 GiB CDF.
func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-3, 1}, {10, -0.1}, {10, math.NaN()}, {math.MaxInt32 + 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(n=%d, s=%v) should panic", tc.n, tc.s)
				}
			}()
			NewZipf(New(1), tc.n, tc.s)
		}()
	}
}

// checkSearch holds the guided search to a bisection of the whole CDF.
func checkSearch(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	if got, want := z.search(u), sort.SearchFloat64s(z.cdf, u); got != want {
		t.Fatalf("n=%d: search(%v) = %d, sort.SearchFloat64s = %d", z.N(), u, got, want)
	}
}

// TestZipfMatchesBisection: the guided search returns the bisection's index
// for seeded draws, for every CDF entry and for the float just below each.
func TestZipfMatchesBisection(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 10000, 200003} {
		for _, s := range []float64{0, 0.55, 1, 2} {
			z := NewZipf(New(1), n, s)
			rng := New(int64(n))
			for i := 0; i < 20000; i++ {
				checkSearch(t, z, rng.Float64())
			}
			for _, c := range z.cdf {
				if c < 1 {
					checkSearch(t, z, c)
				}
				checkSearch(t, z, math.Nextafter(c, 0))
			}
		}
	}
}

// FuzzZipfSearch is the same comparison over arbitrary draws and shapes. A
// u outside [0, 1) is mapped onto rand.Float64's grid.
func FuzzZipfSearch(f *testing.F) {
	f.Add(uint64(0), uint32(1), 1.0)
	f.Add(uint64(1)<<62, uint32(10), 0.55)
	f.Add(math.Float64bits(0.5), uint32(3), 2.0)
	f.Add(uint64(math.MaxUint64), uint32(200003), 0.0)
	f.Fuzz(func(t *testing.T, bits uint64, n uint32, s float64) {
		if !(s >= 0) {
			return
		}
		u := math.Float64frombits(bits)
		if !(u >= 0 && u < 1) {
			u = float64(bits>>11) / (1 << 53)
		}
		checkSearch(t, NewZipf(New(1), int(n%5000)+1, s), u)
	})
}

var benchSink int

// BenchmarkZipfNext prices one draw through the guided search and through
// the whole-CDF bisection it replaced, at three domain sizes (s = 1).
func BenchmarkZipfNext(b *testing.B) {
	for _, n := range []int{10000, 60000, 200000} {
		for _, c := range []struct {
			name string
			next func(*Zipf, *rand.Rand) int
		}{
			{"kernel", func(z *Zipf, _ *rand.Rand) int { return z.Next() }},
			{"reference", func(z *Zipf, rng *rand.Rand) int { return sort.SearchFloat64s(z.cdf, rng.Float64()) }},
		} {
			b.Run(c.name+"/n="+strconv.Itoa(n), func(b *testing.B) {
				rng := New(7)
				z := NewZipf(rng, n, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink += c.next(z, rng)
				}
			})
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := NewZipf(New(7), 1000, 1), NewZipf(New(7), 1000, 1)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give identical streams")
		}
	}
}

// TestNURandQuick property-tests that NURand stays within its range.
func TestNURandQuick(t *testing.T) {
	rng := New(3)
	f := func(aRaw, xRaw, spanRaw uint16) bool {
		a := int(aRaw % 1024)
		x := int(xRaw % 1000)
		y := x + int(spanRaw%5000)
		v := NURand(rng, a, x, y, 42)
		return v >= x && v <= y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
