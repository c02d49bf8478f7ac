package dsp

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// reversed returns i with its low m bits reversed: the reference
// permutation.
func reversed(i, m int) int {
	if m == 0 {
		return 0
	}
	return int(bits.Reverse64(uint64(i)) >> (64 - uint(m)))
}

// bitReverse moves every element to its reversed index, on the direct
// route below 2^(2·revTileBits) points and the tiled one above.
func TestBitReverseMatchesPermutation(t *testing.T) {
	for m := 0; m <= 20; m++ {
		n := 1 << m
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(float64(i), -float64(i))
		}
		bitReverse(x)
		for i, v := range x {
			if j := reversed(i, m); v != complex(float64(j), -float64(j)) {
				t.Fatalf("n=2^%d: x[%d] = %v, want the element from %d", m, i, v, j)
			}
		}
	}
}

// scatterRef windows x, starting at segment position w, straight into
// its bit-reversed places in dst: the way segments were loaded before
// they were loaded in natural order and reversed in place.
func scatterRef(s *WelchScratch, dst []complex128, w int, x []complex128) {
	m := bits.TrailingZeros(uint(s.segLen))
	for i, v := range x {
		c := s.coeff[w+i]
		dst[reversed(w+i, m)] = complex(real(v)*c, imag(v)*c)
	}
}

// scatterPairRef is scatterRef for a packed real pair.
func scatterPairRef(s *WelchScratch, dst []complex128, w int, a, b []float64) {
	m := bits.TrailingZeros(uint(s.segLen))
	for i := range a {
		c := s.coeff[w+i]
		dst[reversed(w+i, m)] = complex(c*a[i], c*b[i])
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, scatter-loaded %v", what, i, got[i], want[i])
		}
	}
}

// A feed that windows each segment in natural order and reverses it
// before the butterflies reduces every band bin to the bits of the same
// Welch pass over segments scattered into bit-reversed places, for the
// real-pair and the single-stream feed, on both reversal routes.
func TestNaturalLoadMatchesScatter(t *testing.T) {
	for _, seg := range []int{16, 512, 1024, 8192, 1 << 15} {
		ws, err := NewWelchScratch(seg, Hann)
		if err != nil {
			t.Fatal(err)
		}
		n := 5 * seg / 2
		rng := rand.New(rand.NewSource(int64(seg)))
		a, b := make([]float64, n), make([]float64, n)
		x := make([]complex128, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		band := Band{Lo: seg / 8, Hi: seg/2 + 1}
		m := band.Len()
		const fs = 1e3

		// Reference: the scatter-loaded pass, segment by segment.
		wantA, wantB, wantX := make([]float64, m), make([]float64, m), make([]complex128, m)
		wantP := make([]float64, m)
		buf := make([]complex128, seg)
		count := 0
		for start := 0; start+seg <= n; start += seg / 2 {
			scatterPairRef(ws, buf, 0, a[start:start+seg], b[start:start+seg])
			ws.plan.butterflies(buf)
			ws.accumulatePairBand(wantA, wantB, wantX, buf, band.Lo, count == 0)
			scatterRef(ws, buf, 0, x[start:start+seg])
			ws.plan.butterflies(buf)
			ws.accumulate(wantP, buf[band.Lo:band.Hi], count == 0)
			count++
		}
		ws.finishScalePair(wantA, wantB, wantX, fs, count)
		ws.finishScale(wantP, fs, count)

		var ring SlotRing
		pa, pb, cross := make([]float64, m), make([]float64, m), make([]complex128, m)
		var pf PairFeed
		if err := pf.Init(ws, n, band, pa, pb, cross, fs, &ring); err != nil {
			t.Fatal(err)
		}
		pushPair(t, &pf, a, b, 1000)
		if err := pf.Finish(); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "pa", pa, wantA)
		sameBits(t, "pb", pb, wantB)
		for i := range wantX {
			if math.Float64bits(real(cross[i])) != math.Float64bits(real(wantX[i])) ||
				math.Float64bits(imag(cross[i])) != math.Float64bits(imag(wantX[i])) {
				t.Fatalf("seg %d: cross[%d] = %v, scatter-loaded %v", seg, i, cross[i], wantX[i])
			}
		}

		p := make([]float64, m)
		var f Feed
		if err := f.Init(ws, n, band, p, fs, &ring); err != nil {
			t.Fatal(err)
		}
		push(&f, x, 1000)
		if err := f.Finish(); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "psd", p, wantP)
	}
}

// BenchmarkBitReverse reverses one 2^18-point segment, the 1 s
// capture's, in place; points/op is the segment length.
func BenchmarkBitReverse(b *testing.B) {
	x := make([]complex128, 1<<18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitReverse(x)
	}
	b.ReportMetric(float64(len(x)), "points/op")
}
