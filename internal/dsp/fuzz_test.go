package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// FuzzPlanForwardVsNaiveDFT cross-checks the planned radix-2² FFT
// against the O(n²) textbook DFT on random inputs of every power-of-two
// size up to 512, and closes the loop with Inverse.
func FuzzPlanForwardVsNaiveDFT(f *testing.F) {
	f.Add(uint8(0), int64(1))
	f.Add(uint8(3), int64(42))
	f.Add(uint8(9), int64(-7))
	f.Fuzz(func(t *testing.T, sizeExp uint8, seed int64) {
		n := 1 << (sizeExp % 10) // 1, 2, …, 512
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}

		plan, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		got := append([]complex128(nil), x...)
		if err := plan.Forward(got); err != nil {
			t.Fatalf("Forward: %v", err)
		}
		want := naiveDFT(x)

		// The naive reference accumulates O(n) rounding itself; scale the
		// bound by the signal magnitude and the transform size.
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, cmplx.Abs(v))
		}
		tol := 1e-12 * (scale + 1) * float64(n)
		for k := range want {
			if d := cmplx.Abs(got[k] - want[k]); d > tol {
				t.Fatalf("n=%d bin %d: planned %v, naive %v (|Δ|=%g > %g)", n, k, got[k], want[k], d, tol)
			}
		}

		// Inverse(Forward(x)) must reproduce the input.
		if err := plan.Inverse(got); err != nil {
			t.Fatalf("Inverse: %v", err)
		}
		for i := range x {
			if d := cmplx.Abs(got[i] - x[i]); d > tol {
				t.Fatalf("n=%d sample %d: round trip %v, input %v (|Δ|=%g > %g)", n, i, got[i], x[i], d, tol)
			}
		}

		// Wrong-length inputs must be rejected, not sliced.
		if n > 1 {
			if err := plan.Forward(make([]complex128, n-1)); err == nil {
				t.Fatal("Forward accepted a short buffer")
			}
		}
	})
}

// FuzzForwardAsmVsPure pins the dispatched butterfly kernels to the
// pure-Go fallback: for every available kernel (on amd64 that is the
// AVX2 assembly; under the purego tag or elsewhere only "go" exists),
// Forward must produce BIT-IDENTICAL output to the generic path across
// sizes 2..64k. The assembly keeps the generic path's operation order
// and performs no FMA contraction, so equality here is exact — any
// difference, even one ULP, is a kernel bug.
func FuzzForwardAsmVsPure(f *testing.F) {
	f.Add(uint8(1), int64(1))
	f.Add(uint8(2), int64(7))   // smallest radix-4 pass-1 size
	f.Add(uint8(3), int64(-3))  // odd log2: leading radix-2 stage
	f.Add(uint8(12), int64(55)) // deep even-stage tower
	f.Add(uint8(16), int64(9))  // 64k: every stage shape exercised
	f.Fuzz(func(t *testing.T, sizeExp uint8, seed int64) {
		n := 1 << (1 + sizeExp%16) // 2, 4, …, 65536
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		plan, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}

		prev := ActiveKernel()
		defer SetKernel(prev)
		if err := SetKernel(KernelGo); err != nil {
			t.Fatal(err)
		}
		want := append([]complex128(nil), x...)
		if err := plan.Forward(want); err != nil {
			t.Fatalf("Forward (go): %v", err)
		}

		for _, kernel := range AvailableKernels() {
			if kernel == KernelGo {
				continue
			}
			if err := SetKernel(kernel); err != nil {
				t.Fatal(err)
			}
			got := append([]complex128(nil), x...)
			if err := plan.Forward(got); err != nil {
				t.Fatalf("Forward (%s): %v", kernel, err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("n=%d kernel=%s bin %d: %v != pure-Go %v (kernels must be bit-identical)",
						n, kernel, k, got[k], want[k])
				}
			}
		}
	})
}

// FuzzWelchPairVsSingle checks the packed two-stream Welch pass against
// two independent single-stream passes, and the documented
// linear-combination identity against a direct Welch run of the
// combined stream.
func FuzzWelchPairVsSingle(f *testing.F) {
	f.Add(uint8(2), uint16(0), int64(1), 1.0, 0.0)
	f.Add(uint8(4), uint16(100), int64(9), 0.5, -2.0)
	f.Add(uint8(5), uint16(999), int64(-3), 3.0, 0.25)
	f.Fuzz(func(t *testing.T, segExp uint8, extra uint16, seed int64, alpha, beta float64) {
		segLen := 1 << (2 + segExp%6) // 4 … 128
		n := segLen + int(extra)%(3*segLen)
		if !(math.Abs(alpha) < 8 && math.Abs(beta) < 8) {
			t.Skip("combination coefficients out of the numerically fair range")
		}
		const fs = 1000.0
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, n)
		b := make([]float64, n)
		ca := make([]complex128, n)
		cb := make([]complex128, n)
		mix := make([]complex128, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			ca[i] = complex(a[i], 0)
			cb[i] = complex(b[i], 0)
			mix[i] = complex(alpha*a[i]+beta*b[i], 0)
		}

		scratch, err := NewWelchScratch(segLen, Hann)
		if err != nil {
			t.Fatal(err)
		}
		pa := make([]float64, segLen)
		pb := make([]float64, segLen)
		cross := make([]complex128, segLen)
		if err := scratch.WelchPairInto(pa, pb, cross, a, b, fs); err != nil {
			t.Fatal(err)
		}

		da := make([]float64, segLen)
		db := make([]float64, segLen)
		if err := scratch.WelchInto(da, ca, fs); err != nil {
			t.Fatal(err)
		}
		if err := scratch.WelchInto(db, cb, fs); err != nil {
			t.Fatal(err)
		}

		relTol := 1e-9
		for k := range pa {
			if d := relErr(pa[k], da[k]); d > relTol {
				t.Fatalf("segLen=%d n=%d bin %d: paired PSD(a) %g vs single %g (rel %g)", segLen, n, k, pa[k], da[k], d)
			}
			if d := relErr(pb[k], db[k]); d > relTol {
				t.Fatalf("segLen=%d n=%d bin %d: paired PSD(b) %g vs single %g (rel %g)", segLen, n, k, pb[k], db[k], d)
			}
		}

		// PSD(α·a+β·b) = α²·PSD(a) + β²·PSD(b) + 2αβ·Re(cross) per bin.
		dm := make([]float64, segLen)
		if err := scratch.WelchInto(dm, mix, fs); err != nil {
			t.Fatal(err)
		}
		// The identity subtracts nearly equal quantities when the mix
		// cancels; bound the error against the combination's magnitude.
		for k := range dm {
			want := alpha*alpha*pa[k] + beta*beta*pb[k] + 2*alpha*beta*real(cross[k])
			mag := alpha*alpha*pa[k] + beta*beta*pb[k] + 2*math.Abs(alpha*beta)*cmplx.Abs(cross[k])
			if d := math.Abs(dm[k] - want); d > relTol*(mag+1e-300) {
				t.Fatalf("segLen=%d bin %d: combined PSD %g, identity %g (|Δ|=%g)", segLen, k, dm[k], want, d)
			}
		}
	})
}

// FuzzBandProductsVsFull holds the streaming band feeds to the
// buffered full-spectrum passes: for random power-of-two segment
// lengths, overlapping segment counts with a dropped tail, bands of the
// non-negative bins and push block sizes, every band bin of PairFeed
// equals WelchPairInto's and every band bin of Feed equals WelchInto's,
// bit for bit.
func FuzzBandProductsVsFull(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(0), uint16(0), uint16(2), uint16(1), int64(1))
	f.Add(uint8(6), uint8(3), uint16(17), uint16(5), uint16(40), uint16(33), int64(7))
	f.Add(uint8(10), uint8(6), uint16(300), uint16(0), uint16(513), uint16(4096), int64(-2))
	f.Fuzz(func(t *testing.T, segExp, extraSegs uint8, tail, lo, width, block uint16, seed int64) {
		segLen := 1 << (1 + segExp%11) // 2 … 2048
		half := segLen / 2
		segs := 1 + int(extraSegs%8)
		n := segLen + (segs-1)*half + int(tail)%half
		band := Band{Lo: int(lo) % (half + 1)}
		band.Hi = band.Lo + 1 + int(width)%(half+1-band.Lo)
		blk := 1 + int(block)%(n+1)
		const fs = 1000.0
		rng := rand.New(rand.NewSource(seed))
		a, b := make([]float64, n), make([]float64, n)
		x := make([]complex128, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}

		s, err := NewWelchScratch(segLen, Hann)
		if err != nil {
			t.Fatal(err)
		}
		wantA, wantB := make([]float64, segLen), make([]float64, segLen)
		wantX := make([]complex128, segLen)
		if err := s.WelchPairInto(wantA, wantB, wantX, a, b, fs); err != nil {
			t.Fatal(err)
		}
		wantN := make([]float64, segLen)
		if err := s.WelchInto(wantN, x, fs); err != nil {
			t.Fatal(err)
		}

		m := band.Len()
		pa, pb, cross := make([]float64, m), make([]float64, m), make([]complex128, m)
		psd := make([]float64, m)
		var ring SlotRing
		var pf PairFeed
		if err := pf.Init(s, n, band, pa, pb, cross, fs, &ring); err != nil {
			t.Fatal(err)
		}
		var nf Feed
		for off := 0; off < n; off += blk {
			end := min(off+blk, n)
			if err := pf.Push(a[off:end], b[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := pf.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := nf.Init(s, n, band, psd, fs, &ring); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < n; off += blk {
			nf.Push(x[off:min(off+blk, n)])
		}
		if err := nf.Finish(); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < m; i++ {
			k := band.Lo + i
			if math.Float64bits(pa[i]) != math.Float64bits(wantA[k]) ||
				math.Float64bits(pb[i]) != math.Float64bits(wantB[k]) ||
				math.Float64bits(real(cross[i])) != math.Float64bits(real(wantX[k])) ||
				math.Float64bits(imag(cross[i])) != math.Float64bits(imag(wantX[k])) {
				t.Fatalf("segLen=%d n=%d band %v block %d: pair bin %d is %g/%g/%v, WelchPairInto %g/%g/%v",
					segLen, n, band, blk, k, pa[i], pb[i], cross[i], wantA[k], wantB[k], wantX[k])
			}
			if math.Float64bits(psd[i]) != math.Float64bits(wantN[k]) {
				t.Fatalf("segLen=%d n=%d band %v block %d: bin %d is %g, WelchInto %g",
					segLen, n, band, blk, k, psd[i], wantN[k])
			}
		}
	})
}

func relErr(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
