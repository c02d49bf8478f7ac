package specan

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{RBW: 0}).Validate(); err == nil {
		t.Error("zero RBW should fail")
	}
	if err := (Config{RBW: 1, FloorPSD: -1}).Validate(); err == nil {
		t.Error("negative floor should fail")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New with invalid config should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(Config{})
}

func TestAnalyzeErrors(t *testing.T) {
	a := MustNew(DefaultConfig())
	if _, err := a.AnalyzeIncoherent([][]complex128{make([]complex128, 1024)}, 0); err == nil {
		t.Error("zero fs should fail")
	}
	if _, err := a.AnalyzeIncoherent([][]complex128{make([]complex128, 1)}, 1e3); err == nil {
		t.Error("too-short capture should fail")
	}
}

func TestSensitivityFloor(t *testing.T) {
	a := MustNew(Config{RBW: 10, Window: dsp.Hann, FloorPSD: 1e-17})
	x := make([]complex128, 1<<12) // silence
	tr, err := a.AnalyzeIncoherent([][]complex128{x}, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range tr.Band().PSD {
		if v < 1e-17 {
			t.Fatalf("bin %d below the floor: %v", k, v)
		}
	}
}

func TestToneMeasurement(t *testing.T) {
	fs := float64(1 << 18)
	n := 1 << 18
	f0 := 80e3
	amp := 1e-6 // √W
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(amp, 2*math.Pi*f0*float64(i)/fs)
	}
	a := MustNew(Config{RBW: 4, Window: dsp.Hann, FloorPSD: 6e-18})
	tr, err := a.AnalyzeIncoherent([][]complex128{x}, fs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tr.BandPower(f0, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	want := amp * amp
	if math.Abs(p-want) > 0.05*want {
		t.Errorf("band power = %v, want %v", p, want)
	}
	pk, _, err := tr.Peak(f0, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pk-f0) > 2*tr.ActualRBW {
		t.Errorf("peak at %v Hz, want ≈%v", pk, f0)
	}
}

func TestRBWSelection(t *testing.T) {
	fs := float64(1 << 18)
	x := make([]complex128, 1<<18) // 1 second
	// Request 1 Hz: the capture limits the achieved RBW; it must be
	// reported honestly and be within a small factor of the request.
	a := MustNew(Config{RBW: 1, Window: dsp.Hann, FloorPSD: 0})
	tr, err := a.AnalyzeIncoherent([][]complex128{x}, fs)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ActualRBW < 1 || tr.ActualRBW > 4 {
		t.Errorf("achieved RBW = %v Hz for a 1 s capture, want within [1,4]", tr.ActualRBW)
	}
	// A coarse request should use short segments (averaging) and report a
	// correspondingly coarse RBW.
	a2 := MustNew(Config{RBW: 100, Window: dsp.Hann, FloorPSD: 0})
	tr2, err := a2.AnalyzeIncoherent([][]complex128{x}, fs)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.ActualRBW < 50 || tr2.ActualRBW > 200 {
		t.Errorf("achieved RBW = %v Hz for 100 Hz request", tr2.ActualRBW)
	}
	if tr2.Band().Bins() >= tr.Band().Bins() {
		t.Error("coarser RBW should use shorter segments")
	}
}

// An RBW request coarser than fs never shortens segments below two
// samples — one-sample segments never advanced the 50%-overlap walk —
// and one so fine that enbw·fs/RBW overflows int keeps the longest
// segment. Both captures analyze.
func TestRBWExtremes(t *testing.T) {
	const n = 1 << 10
	fs := 1e5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%7), 1)
	}
	for _, c := range []struct {
		rbw float64
		seg int
	}{{1e12, 2}, {1e-300, n}} {
		a := MustNew(Config{RBW: c.rbw, Window: dsp.Hann})
		seg, _, err := a.segmentFor(n, fs)
		if err != nil || seg != c.seg {
			t.Errorf("RBW %g: segment %d, %v; want %d", c.rbw, seg, err, c.seg)
		}
		if _, err := a.AnalyzeIncoherent([][]complex128{x}, fs); err != nil {
			t.Errorf("RBW %g: %v", c.rbw, err)
		}
		if _, err := a.NoiseProductsStream(n, Band{Lo: 0, Hi: fs / 2}, &sliceSampleSource{x: x, block: 100}, fs, nil, nil); err != nil {
			t.Errorf("RBW %g: products: %v", c.rbw, err)
		}
	}
}

// White noise reads at its true PSD regardless of RBW (PSD normalization).
func TestNoisePSDIndependentOfRBW(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fs := 1e6
	x := make([]complex128, 1<<16)
	sigma := math.Sqrt(1e-12 * fs / 2)
	for i := range x {
		x[i] = complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	for _, rbw := range []float64{30, 300, 3000} {
		a := MustNew(Config{RBW: rbw, Window: dsp.Hann, FloorPSD: 0})
		tr, err := a.AnalyzeIncoherent([][]complex128{x}, fs)
		if err != nil {
			t.Fatal(err)
		}
		mean := 0.0
		for _, v := range tr.Band().PSD {
			mean += v
		}
		mean /= float64(tr.Band().Bins())
		if math.Abs(mean-1e-12) > 0.15e-12 {
			t.Errorf("RBW %v: mean PSD = %v, want 1e-12", rbw, mean)
		}
	}
}

func TestBandPowerErrors(t *testing.T) {
	a := MustNew(DefaultConfig())
	x := make([]complex128, 4096)
	tr, err := a.AnalyzeIncoherent([][]complex128{x}, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.BandPower(1e3, 0); err == nil {
		t.Error("zero half-span should fail")
	}
	if _, err := tr.BandPower(1e9, 1e3); err == nil {
		t.Error("out-of-range band should fail")
	}
	if _, _, err := tr.Peak(1e9, 1e3); err == nil {
		t.Error("out-of-range peak should fail")
	}
}

func TestConfigAccessor(t *testing.T) {
	a := MustNew(DefaultConfig())
	if a.Config().RBW != 1 {
		t.Errorf("Config RBW = %v", a.Config().RBW)
	}
}

func TestAnalyzeIncoherentErrors(t *testing.T) {
	a := MustNew(DefaultConfig())
	if _, err := a.AnalyzeIncoherent([][]complex128{nil, nil}, 1e5); err == nil {
		t.Error("all-nil captures should fail")
	}
	if _, err := a.AnalyzeIncoherent([][]complex128{make([]complex128, 8), make([]complex128, 16)}, 1e5); err == nil {
		t.Error("length mismatch should fail")
	}
}

// Incoherent sums add in power: two identical tones through
// AnalyzeIncoherent give twice the band power of one.
func TestAnalyzeIncoherentAddsPower(t *testing.T) {
	fs := float64(1 << 14)
	n := 1 << 14
	mk := func() []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = cmplx.Rect(1e-6, 2*math.Pi*1000*float64(i)/fs)
		}
		return x
	}
	a := MustNew(Config{RBW: 4, Window: dsp.Hann, FloorPSD: 0})
	one, err := a.AnalyzeIncoherent([][]complex128{mk()}, fs)
	if err != nil {
		t.Fatal(err)
	}
	two, err := a.AnalyzeIncoherent([][]complex128{mk(), mk()}, fs)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := one.BandPower(1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := two.BandPower(1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p2/p1-2) > 0.01 {
		t.Errorf("incoherent power ratio = %v, want 2", p2/p1)
	}
}
