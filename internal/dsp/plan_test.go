package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := range out {
		var acc complex128
		for i, v := range x {
			acc += v * cmplx.Exp(complex(0, -2*math.Pi*float64(k*i)/float64(n)))
		}
		out[k] = acc
	}
	return out
}

func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 8, 64, 512} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Len() != n {
			t.Fatalf("plan length %d, want %d", p.Len(), n)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		if err := p.Forward(got); err != nil {
			t.Fatal(err)
		}
		scale := math.Sqrt(float64(n))
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*scale {
				t.Fatalf("n=%d bin %d = %v, want %v", n, k, got[k], want[k])
			}
		}
		if err := p.Inverse(got); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d round trip sample %d = %v, want %v", n, i, got[i], x[i])
			}
		}
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(0); err == nil {
		t.Error("zero-length plan should fail")
	}
	if _, err := NewPlan(12); err == nil {
		t.Error("non-power-of-two plan should fail")
	}
	p, err := NewPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Forward(make([]complex128, 4)); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := p.Inverse(make([]complex128, 16)); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := PlanFor(9); err == nil {
		t.Error("PlanFor non-power-of-two should fail")
	}
}

func TestPlanForShared(t *testing.T) {
	a, err := PlanFor(256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFor(256)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("PlanFor should return the shared cached plan")
	}
}

// Concurrent first calls for one length build its plan exactly once:
// every caller waits for the first build and gets the same plan.
func TestPlanForBuildsOnce(t *testing.T) {
	n := 16
	for ; n <= 1<<16; n *= 2 {
		if _, cached := planCache.m.Load(n); !cached {
			break
		}
	}
	if n > 1<<16 {
		t.Skip("every candidate length is already planned")
	}
	before := planBuilds.Load()
	const callers = 8
	plans := make([]*Plan, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range plans {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			p, err := PlanFor(n)
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
		}()
	}
	start.Done()
	done.Wait()
	if built := planBuilds.Load() - before; built != 1 {
		t.Errorf("%d concurrent PlanFor(%d) calls built %d plans, want 1", callers, n, built)
	}
	for i, p := range plans {
		if p != plans[0] {
			t.Fatalf("caller %d got a different plan", i)
		}
	}
}

// The planned FFT's twiddles come straight from the angle, so a long
// transform stays within a few ulps of the O(n²) reference — the
// recurrence it replaced drifted with transform length.
func TestPlanLongTransformAccuracy(t *testing.T) {
	const n = 1 << 13
	rng := rand.New(rand.NewSource(12))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := naiveDFT(x)
	got := append([]complex128(nil), x...)
	if err := FFT(got); err != nil {
		t.Fatal(err)
	}
	var worst float64
	norm := math.Sqrt(float64(n))
	for k := range want {
		if d := cmplx.Abs(got[k]-want[k]) / norm; d > worst {
			worst = d
		}
	}
	if worst > 1e-11 {
		t.Errorf("worst normalized FFT error %g, want ≤1e-11", worst)
	}
}

func TestWelchScratchMatchesWelch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n = 1 << 13
	fs := 1e5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want, err := Welch(x, fs, 1024, Hann)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWelchScratch(1024, Hann)
	if err != nil {
		t.Fatal(err)
	}
	if s.SegLen() != 1024 || s.Window() != Hann {
		t.Fatalf("scratch segLen %d window %v", s.SegLen(), s.Window())
	}
	dst := make([]float64, 1024)
	// Run twice into the same destination: results must be identical, so
	// the scratch carries no state between runs.
	for pass := 0; pass < 2; pass++ {
		if err := s.WelchInto(dst, x, fs); err != nil {
			t.Fatal(err)
		}
		for k := range dst {
			if dst[k] != want.PSD[k] {
				t.Fatalf("pass %d bin %d = %g, want %g", pass, k, dst[k], want.PSD[k])
			}
		}
	}
}

// WelchPairInto's packed transform must reproduce, for any linear
// combination α·a+β·b, the PSD a direct Welch run over the rendered
// combination gives: |α|²·pa + |β|²·pb + 2Re(α·conj(β)·cross).
func TestWelchPairIntoMatchesDirectWelch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n, seg = 1 << 12, 1024
	fs := 1e5
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	s, err := NewWelchScratch(seg, Hann)
	if err != nil {
		t.Fatal(err)
	}
	pa := make([]float64, seg)
	pb := make([]float64, seg)
	cross := make([]complex128, seg)
	if err := s.WelchPairInto(pa, pb, cross, a, b, fs); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]complex128{
		{1, 0}, {0, 1}, {complex(0.3, -1.2), complex(2.1, 0.4)},
	} {
		alpha, beta := c[0], c[1]
		x := make([]complex128, n)
		for i := range x {
			x[i] = alpha*complex(a[i], 0) + beta*complex(b[i], 0)
		}
		want, err := Welch(x, fs, seg, Hann)
		if err != nil {
			t.Fatal(err)
		}
		var peak float64
		for _, v := range want.PSD {
			if v > peak {
				peak = v
			}
		}
		for k := range want.PSD {
			ax := real(alpha)*real(alpha) + imag(alpha)*imag(alpha)
			bx := real(beta)*real(beta) + imag(beta)*imag(beta)
			cc := alpha * complex(real(beta), -imag(beta))
			got := ax*pa[k] + bx*pb[k] + 2*(real(cc)*real(cross[k])-imag(cc)*imag(cross[k]))
			if math.Abs(got-want.PSD[k]) > 1e-12*peak {
				t.Fatalf("α=%v β=%v bin %d: %g, want %g", alpha, beta, k, got, want.PSD[k])
			}
		}
	}
}

func TestWelchPairIntoErrors(t *testing.T) {
	s, err := NewWelchScratch(8, Hann)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float64, 16)
	b := make([]float64, 16)
	pa, pb := make([]float64, 8), make([]float64, 8)
	cross := make([]complex128, 8)
	if err := s.WelchPairInto(pa, pb, cross, a, b, 0); err == nil {
		t.Error("zero sample rate should fail")
	}
	if err := s.WelchPairInto(pa[:4], pb, cross, a, b, 1e3); err == nil {
		t.Error("destination length mismatch should fail")
	}
	if err := s.WelchPairInto(pa, pb, cross, a, b[:8], 1e3); err == nil {
		t.Error("stream length mismatch should fail")
	}
	if err := s.WelchPairInto(pa, pb, cross, a[:4], b[:4], 1e3); err == nil {
		t.Error("too-short streams should fail")
	}
}

func TestWelchScratchErrors(t *testing.T) {
	if _, err := NewWelchScratch(1000, Hann); err == nil {
		t.Error("non-power-of-two segment should fail")
	}
	if _, err := NewWelchScratch(8, Window(9)); err == nil {
		t.Error("invalid window should fail")
	}
	s, err := NewWelchScratch(8, Hann)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 16)
	if err := s.WelchInto(make([]float64, 4), x, 1e3); err == nil {
		t.Error("destination length mismatch should fail")
	}
	if err := s.WelchInto(make([]float64, 8), x, 0); err == nil {
		t.Error("zero sample rate should fail")
	}
	if err := s.WelchInto(make([]float64, 8), x[:4], 1e3); err == nil {
		t.Error("too-short input should fail")
	}
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
