package dsp

import (
	"math/rand"
	"testing"
)

// bitReverseAll puts every array into the bit-reversed order
// butterfliesBatch expects, as Forward does before its passes.
func bitReverseAll(p *Plan, xs [][]complex128) {
	for _, x := range xs {
		for i, pi := range p.perm {
			if j := int(pi); j > i {
				x[i], x[j] = x[j], x[i]
			}
		}
	}
}

// butterfliesBatch's stage-outer sweep (the one SlotRing.flush runs)
// must be invisible in the values: every array of a batch comes out
// bit-identical to Forward on that array alone, at every length parity
// (odd stage counts lead with a radix-2 pass) and batch size (including
// empty and single).
func TestButterfliesBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 8, 64, 128, 1024} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{0, 1, 3, 7} {
			xs := make([][]complex128, batch)
			want := make([][]complex128, batch)
			for i := range xs {
				xs[i] = make([]complex128, n)
				for j := range xs[i] {
					xs[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				want[i] = append([]complex128(nil), xs[i]...)
				if err := p.Forward(want[i]); err != nil {
					t.Fatal(err)
				}
			}
			bitReverseAll(p, xs)
			p.butterfliesBatch(xs)
			for i := range xs {
				for j := range xs[i] {
					if xs[i][j] != want[i][j] {
						t.Fatalf("n=%d batch=%d array %d bin %d: %v != Forward's %v (must be bit-identical)",
							n, batch, i, j, xs[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// The batched sweep exists to keep one stage's twiddle table hot across
// transforms; this benchmark measures it against the transform-at-a-time
// loop it replaces on a Welch-segment-shaped workload. Both variants
// include the bit-reversal permutation.
func BenchmarkButterfliesBatch(b *testing.B) {
	const n, batch = 1 << 12, 4
	p, err := NewPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	xs := make([][]complex128, batch)
	for i := range xs {
		xs[i] = make([]complex128, n)
		for j := range xs[i] {
			xs[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	b.Run("batched", func(b *testing.B) {
		b.SetBytes(int64(batch * n * 16))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bitReverseAll(p, xs)
			p.butterfliesBatch(xs)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(int64(batch * n * 16))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, x := range xs {
				if err := p.Forward(x); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// PlanFor must make plan construction cost disappear from steady-state
// callers: a cache hit is two orders of magnitude under building the
// tables (compare the NewPlan sub-benchmark).
func BenchmarkPlanFor(b *testing.B) {
	const n = 1 << 12
	if _, err := PlanFor(n); err != nil {
		b.Fatal(err)
	}
	b.Run("cached", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := PlanFor(n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("new-plan", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewPlan(n); err != nil {
				b.Fatal(err)
			}
		}
	})
}
