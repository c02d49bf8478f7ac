package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func tone(n int, freqNorm, amp float64, phase float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(amp, 2*math.Pi*freqNorm*float64(i)+phase)
	}
	return x
}

func TestFFTErrors(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err == nil {
		t.Error("non-power-of-two length should fail")
	}
	if err := FFT(nil); err == nil {
		t.Error("empty FFT should fail")
	}
}

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTTone(t *testing.T) {
	const n = 64
	x := tone(n, 5.0/n, 2.0, 0)
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for k, v := range x {
		want := 0.0
		if k == 5 {
			want = 2 * n
		}
		if cmplx.Abs(v-complex(want, 0)) > 1e-9 {
			t.Errorf("bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestFFTNegativeFrequencyTone(t *testing.T) {
	const n = 32
	x := tone(n, -3.0/n, 1.0, 0.7)
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	// Energy should land in bin n-3.
	if cmplx.Abs(x[n-3]) < float64(n)*0.99 {
		t.Errorf("negative tone not in bin %d: %v", n-3, x[n-3])
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 128
	a := make([]complex128, n)
	b := make([]complex128, n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a[i] + 2*b[i]
	}
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	fs := append([]complex128(nil), sum...)
	if err := FFT(fa); err != nil {
		t.Fatal(err)
	}
	if err := FFT(fb); err != nil {
		t.Fatal(err)
	}
	if err := FFT(fs); err != nil {
		t.Fatal(err)
	}
	for k := range fs {
		if cmplx.Abs(fs[k]-(fa[k]+2*fb[k])) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", k)
		}
	}
}

// Property: Inverse(FFT(x)) == x.
func TestFFTRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(6)) // 8..256
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		if err := FFT(y); err != nil {
			return false
		}
		p, err := PlanFor(n)
		if err != nil {
			return false
		}
		if err := p.Inverse(y); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Parseval — Σ|x|² == Σ|X|²/N.
func TestParsevalQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (4 + rng.Intn(5))
		x := make([]complex128, n)
		var tp float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			tp += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		if err := FFT(x); err != nil {
			return false
		}
		var fp float64
		for _, v := range x {
			fp += real(v)*real(v) + imag(v)*imag(v)
		}
		fp /= float64(n)
		return math.Abs(tp-fp) < 1e-6*(1+tp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestWindowNames(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Blackman, FlatTop} {
		if s := w.String(); s == "" || s == "window(255)" {
			t.Errorf("window %d name %q", w, s)
		}
	}
	if Window(9).String() != "window(9)" {
		t.Error("invalid window name")
	}
	if _, err := Window(9).Coefficients(8); err == nil {
		t.Error("invalid window Coefficients should fail")
	}
	if _, err := Hann.Coefficients(0); err == nil {
		t.Error("zero-length window should fail")
	}
}

func TestWindowProperties(t *testing.T) {
	const n = 512
	for _, w := range []Window{Rectangular, Hann, Blackman} {
		c, err := w.Coefficients(n)
		if err != nil {
			t.Fatal(err)
		}
		// Symmetric and bounded.
		for i := 0; i < n/2; i++ {
			if math.Abs(c[i]-c[n-1-i]) > 1e-12 {
				t.Fatalf("%v not symmetric at %d", w, i)
			}
		}
		for i, v := range c {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("%v coefficient %d out of range: %v", w, i, v)
			}
		}
	}
	// Known ENBW values (large-n asymptotics).
	checks := []struct {
		w    Window
		enbw float64
		tol  float64
	}{
		{Rectangular, 1.0, 1e-9},
		{Hann, 1.5, 0.01},
		{Blackman, 1.7268, 0.01},
		{FlatTop, 3.77, 0.05},
	}
	for _, c := range checks {
		got, err := c.w.ENBW(n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.enbw) > c.tol {
			t.Errorf("%v ENBW = %v, want %v", c.w, got, c.enbw)
		}
	}
}

func TestPeriodogramWhiteNoiseLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 1 << 14
	fs := 1e6
	// Complex white noise with variance σ² = 2 (1 per part): PSD = σ²/fs.
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, w := range []Window{Rectangular, Hann, Blackman} {
		s, err := Periodogram(x, fs, w)
		if err != nil {
			t.Fatal(err)
		}
		mean := 0.0
		for _, v := range s.PSD {
			mean += v
		}
		mean /= float64(n)
		want := 2 / fs
		if math.Abs(mean-want) > 0.1*want {
			t.Errorf("%v mean PSD = %v, want %v", w, mean, want)
		}
	}
}

func TestPeriodogramTonePower(t *testing.T) {
	const n = 1 << 12
	fs := float64(n) // 1 Hz bins
	amp := 3.0
	x := tone(n, 100.0/n, amp, 0.3)
	s, err := Periodogram(x, fs, Hann)
	if err != nil {
		t.Fatal(err)
	}
	// Total band power around the tone should equal |amp|² (complex tone).
	p, err := s.BandPower(95, 105)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-amp*amp) > 0.02*amp*amp {
		t.Errorf("tone band power = %v, want %v", p, amp*amp)
	}
}

func TestPeriodogramErrors(t *testing.T) {
	x := make([]complex128, 8)
	if _, err := Periodogram(x, 0, Hann); err != nil {
	} else {
		t.Error("zero fs should fail")
	}
	if _, err := Periodogram(make([]complex128, 7), 1e3, Hann); err == nil {
		t.Error("non-power-of-two should fail")
	}
}

func TestWelch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 1 << 14
	fs := 1e5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	s, err := Welch(x, fs, 1024, Hann)
	if err != nil {
		t.Fatal(err)
	}
	if s.Bins() != 1024 {
		t.Fatalf("Welch bins = %d", s.Bins())
	}
	// Real white noise, variance 1: PSD = 1/fs across band.
	mean := 0.0
	for _, v := range s.PSD {
		mean += v
	}
	mean /= float64(s.Bins())
	if want := 1 / fs; math.Abs(mean-want) > 0.05*want {
		t.Errorf("Welch mean PSD = %v, want %v", mean, want)
	}

	if _, err := Welch(x, fs, 1000, Hann); err == nil {
		t.Error("non-power-of-two segment should fail")
	}
	if _, err := Welch(x[:10], fs, 1024, Hann); err == nil {
		t.Error("too-short input should fail")
	}
}

func TestSpectrumFreqBinRoundTrip(t *testing.T) {
	s := &Spectrum{PSD: make([]float64, 256), SampleRate: 1e4}
	for _, f := range []float64{0, 39.0625, 1000, -1000, -5000} {
		k, err := s.BinFor(f)
		if err != nil {
			t.Fatalf("BinFor(%v): %v", f, err)
		}
		if got := s.Freq(k); math.Abs(got-f) > s.BinWidth()/2 {
			t.Errorf("Freq(BinFor(%v)) = %v", f, got)
		}
	}
	if _, err := s.BinFor(5000); err == nil { // == +fs/2 is excluded
		t.Error("BinFor at +fs/2 should fail")
	}
	if _, err := s.BinFor(-5001); err == nil {
		t.Error("BinFor below -fs/2 should fail")
	}
}

func TestBandPowerSpanningZero(t *testing.T) {
	// Flat PSD of 1 W/Hz: band power equals band width.
	const n = 1024
	s := &Spectrum{PSD: make([]float64, n), SampleRate: float64(n)} // 1 Hz bins
	for i := range s.PSD {
		s.PSD[i] = 1
	}
	p, err := s.BandPower(-10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-21) > 1e-9 { // 21 bins of 1 Hz
		t.Errorf("band power = %v, want 21", p)
	}
	if _, err := s.BandPower(10, -10); err == nil {
		t.Error("inverted band should fail")
	}
}

func TestPeakIn(t *testing.T) {
	const n = 256
	s := &Spectrum{PSD: make([]float64, n), SampleRate: float64(n)}
	s.PSD[40] = 5
	s.PSD[45] = 9
	k, v, err := s.PeakIn(30, 50)
	if err != nil {
		t.Fatal(err)
	}
	if k != 45 || v != 9 {
		t.Errorf("PeakIn = bin %d val %v", k, v)
	}
	if _, _, err := s.PeakIn(-1e6, 0); err == nil {
		t.Error("out-of-range PeakIn should fail")
	}
}

func BenchmarkFFT64k(b *testing.B) {
	x := make([]complex128, 1<<16)
	rng := rand.New(rand.NewSource(5))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	buf := make([]complex128, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := FFT(buf); err != nil {
			b.Fatal(err)
		}
	}
}
