package specan

import (
	"math"
	"math/rand"
	"testing"
)

// slicePairSource yields two in-memory real streams in fixed-size
// blocks. An awkward block size that divides neither the segment nor
// the half-overlap exercises the partial-block fill loop.
type slicePairSource struct {
	a, b  []float64
	block int
}

func (s *slicePairSource) Next(a, b []float64) (int, error) {
	k := len(a)
	if k > s.block {
		k = s.block
	}
	if k > len(s.a) {
		k = len(s.a)
	}
	copy(a[:k], s.a[:k])
	copy(b[:k], s.b[:k])
	s.a, s.b = s.a[k:], s.b[k:]
	return k, nil
}

// sliceSampleSource is the complex single-stream analogue.
type sliceSampleSource struct {
	x     []complex128
	block int
}

func (s *sliceSampleSource) Next(dst []complex128) (int, error) {
	k := len(dst)
	if k > s.block {
		k = s.block
	}
	if k > len(s.x) {
		k = len(s.x)
	}
	copy(dst[:k], s.x[:k])
	s.x = s.x[k:]
	return k, nil
}

// streamFixture builds a random envelope pair, group coefficients, and
// a complex noise capture, sized so the analyzer picks a segment much
// shorter than the capture (seg 4096 for n = 1<<15 at RBW 100).
func streamFixture(t *testing.T, n int) (a *Analyzer, envA, envB []float64, coeffs [][2]complex128, noise []complex128, fs float64) {
	t.Helper()
	fs = 262144
	cfg := DefaultConfig()
	cfg.RBW = 100
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	envA = make([]float64, n)
	envB = make([]float64, n)
	noise = make([]complex128, n)
	for i := 0; i < n; i++ {
		envA[i] = rng.NormFloat64()
		envB[i] = rng.NormFloat64()
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for g := 0; g < 3; g++ {
		coeffs = append(coeffs, [2]complex128{
			complex(rng.NormFloat64(), rng.NormFloat64()),
			complex(rng.NormFloat64(), rng.NormFloat64()),
		})
	}
	return a, envA, envB, coeffs, noise, fs
}

// analyzeStream is the analysis the measurement fast path runs:
// EnvelopeProductsStream (skipped without coefficients), then
// NoiseProductsStream (skipped without a noise source), then Render.
// The envelope source is drained before the noise source's first Next,
// the fast path's rng draw order.
func analyzeStream(a *Analyzer, n int, band Band, envs PairSource, coeffs [][2]complex128, noise SampleSource, fs float64, s *Scratch) (*Trace, error) {
	var env *PairPSD
	if len(coeffs) > 0 {
		var err error
		if env, err = a.EnvelopeProductsStream(n, band, envs, fs, s, nil); err != nil {
			return nil, err
		}
	}
	var noisePSD []float64
	if noise != nil {
		var err error
		if noisePSD, err = a.NoiseProductsStream(n, band, noise, fs, s, nil); err != nil {
			return nil, err
		}
	}
	return a.Render(n, band, coeffs, env, noisePSD, fs, s)
}

// analyzeSlices is analyzeStream over in-memory captures, read in
// blocks of 999 samples (nil noise omits the noise stream).
func analyzeSlices(a *Analyzer, band Band, envA, envB []float64, coeffs [][2]complex128, noise []complex128, fs float64, s *Scratch) (*Trace, error) {
	n := len(envA)
	var ns SampleSource
	if noise != nil {
		n = len(noise)
		ns = &sliceSampleSource{x: noise, block: 999}
	}
	return analyzeStream(a, n, band, &slicePairSource{a: envA, b: envB, block: 999}, coeffs, ns, fs, s)
}

// fixtureBand is the analyzed band of the stream fixtures: 60–100 kHz
// at the fixtures' 262144 samples/s, well inside the positive half.
var fixtureBand = Band{Lo: 60e3, Hi: 100e3}

// TestStreamMatchesBuffered drives the segment-fused product path over
// in-memory captures and checks it two ways: against AnalyzeIncoherent
// over the rendered group streams (up to rounding), and bit-exactly
// across block sizes that misalign with the segmentation — with and
// without the noise stream, and with the envelope family absent.
func TestStreamMatchesBuffered(t *testing.T) {
	const n = 1 << 15
	a, envA, envB, coeffs, noise, fs := streamFixture(t, n)

	cases := []struct {
		name   string
		coeffs [][2]complex128
		noise  []complex128
	}{
		{"envelopes+noise", coeffs, noise},
		{"no noise", coeffs, nil},
		{"noise only", nil, noise},
	}
	for _, c := range cases {
		streams := renderStreams(envA, envB, c.coeffs)
		if c.noise != nil {
			streams = append(streams, c.noise)
		}
		want, err := a.AnalyzeIncoherent(streams, fs)
		if err != nil {
			t.Fatal(err)
		}
		var first *Trace
		for _, block := range []int{1 << 20, 4096, 999, 1} {
			if block == 1 && testing.Short() {
				continue // one-sample blocks are slow; full runs only
			}
			var ns SampleSource
			if c.noise != nil {
				ns = &sliceSampleSource{x: c.noise, block: block}
			}
			got, err := analyzeStream(a, n, fixtureBand, &slicePairSource{a: envA, b: envB, block: block}, c.coeffs, ns, fs, nil)
			if err != nil {
				t.Fatalf("%s, block %d: %v", c.name, block, err)
			}
			if first == nil {
				first = got
				requireNearPSD(t, want, got, "%s", c.name)
				continue
			}
			requireSamePSD(t, first, got, "%s, block size %d", c.name, block)
		}
	}
}

// requireNearPSD demands that every bin of got's band agree with the
// same bin of want's full spectrum within 1e-12 of the band's peak —
// the rounding of combining pair-Welch products instead of rendering
// each group stream — and identical segmentation, RBW and floor.
func requireNearPSD(t *testing.T, want, got *Trace, format string, args ...any) {
	t.Helper()
	prefix := "product path vs AnalyzeIncoherent (" + format + ")"
	if got.ActualRBW != want.ActualRBW || got.FloorPSD != want.FloorPSD {
		t.Fatalf(prefix+": RBW/floor %g/%g, want %g/%g",
			append(args, got.ActualRBW, got.FloorPSD, want.ActualRBW, want.FloorPSD)...)
	}
	ws, gs := want.Band(), got.Band()
	if gs.N != ws.Bins() || gs.Offset+len(gs.PSD) > gs.N/2+1 {
		t.Fatalf(prefix+": band bins %d+%d of %d, want within the non-negative bins of %d",
			append(args, gs.Offset, len(gs.PSD), gs.N, ws.Bins())...)
	}
	wp := ws.PSD[gs.Offset : gs.Offset+len(gs.PSD)]
	var peak float64
	for _, v := range wp {
		peak = math.Max(peak, v)
	}
	for i, v := range gs.PSD {
		if d := math.Abs(v - wp[i]); d > 1e-12*peak {
			t.Fatalf(prefix+": bin %d: %g, want %g (Δ %g)", append(args, gs.Offset+i, v, wp[i], d)...)
		}
	}
}

func requireSamePSD(t *testing.T, want, got *Trace, format string, args ...any) {
	t.Helper()
	prefix := "streaming analysis"
	if format != "" {
		prefix += " (" + format + ")"
	}
	ws, gs := want.Band(), got.Band()
	if ws.Offset != gs.Offset || ws.N != gs.N || len(ws.PSD) != len(gs.PSD) {
		t.Fatalf(prefix+": bins %d+%d of %d, want %d+%d of %d",
			append(args, gs.Offset, len(gs.PSD), gs.N, ws.Offset, len(ws.PSD), ws.N)...)
	}
	for i := range ws.PSD {
		if ws.PSD[i] != gs.PSD[i] {
			t.Fatalf(prefix+": bin %d: %g, want %g (exact)",
				append(args, ws.Offset+i, gs.PSD[i], ws.PSD[i])...)
		}
	}
	if want.ActualRBW != got.ActualRBW || want.FloorPSD != got.FloorPSD {
		t.Fatalf(prefix+": RBW/floor %g/%g, want %g/%g",
			append(args, got.ActualRBW, got.FloorPSD, want.ActualRBW, want.FloorPSD)...)
	}
}

// TestStreamFootprint checks the streaming memory claim at the
// analyzer layer. After a streaming analysis of an n-sample capture
// with segment length seg ≪ n, the products are band-length and every
// buffer the scratch retains is O(block) or band-length — the capture
// was never materialized, and the ring's two slots are the only
// segment-sized buffers. A 1 s capture at 2^18 samples/s (one 2^18-point
// segment) leaves the scratch holding exactly one slot plus O(block)
// and the band-length display: no rolling window exists.
func TestStreamFootprint(t *testing.T) {
	const n = 1 << 18
	a, envA, envB, coeffs, noise, fs := streamFixture(t, n)
	s := NewScratch()
	band := fixtureBand
	env, err := a.EnvelopeProductsStream(n, band, &slicePairSource{a: envA, b: envB, block: 4096}, fs, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	noisePSD, err := a.NoiseProductsStream(n, band, &sliceSampleSource{x: noise, block: 4096}, fs, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Render(n, band, coeffs, env, noisePSD, fs, s); err != nil {
		t.Fatal(err)
	}
	seg := s.welch.SegLen()
	if seg >= n/4 {
		t.Fatalf("fixture broken: segment %d not ≪ capture %d", seg, n)
	}
	bins, err := band.bins(seg, fs)
	if err != nil {
		t.Fatal(err)
	}
	m := bins.Len()
	for _, b := range []struct {
		name      string
		cap, want int
	}{
		{"ba", cap(s.ba), blockLen}, {"bb", cap(s.bb), blockLen}, {"bn", cap(s.bn), blockLen},
		{"sum", cap(s.sum), m},
		{"pa", cap(env.PA), m}, {"pb", cap(env.PB), m}, {"cross", cap(env.Cross), m},
		{"noisePSD", cap(noisePSD), m},
	} {
		if b.cap != b.want {
			t.Errorf("buffer %s holds %d samples; want %d", b.name, b.cap, b.want)
		}
	}
	if got, want := s.ring.Footprint(), 2*16*seg; got != want {
		t.Errorf("a %d-segment capture left the ring holding %d bytes; want two %d-point slots (%d)",
			(n-seg)/(seg/2)+1, got, seg, want)
	}

	// The paper's capture: 1 s at 1 Hz RBW, one 2^18-point segment, the
	// 76–84 kHz band. The scratch holds one slot, the blocks and the
	// band-length display, nothing else.
	one := NewScratch()
	full := MustNew(DefaultConfig())
	band = Band{Lo: 76e3, Hi: 84e3}
	if _, err := full.EnvelopeProductsStream(n, band, &slicePairSource{a: envA, b: envB, block: 4096}, fs, one, nil); err != nil {
		t.Fatal(err)
	}
	noisePSD, err = full.NoiseProductsStream(n, band, &sliceSampleSource{x: noise, block: 4096}, fs, one, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Render(n, band, nil, nil, noisePSD, fs, one); err != nil {
		t.Fatal(err)
	}
	if seg := one.welch.SegLen(); seg != n {
		t.Fatalf("1 s capture analyzed in %d-point segments, want one %d-point segment", seg, n)
	}
	bins, err = band.bins(n, fs)
	if err != nil {
		t.Fatal(err)
	}
	slot, blocks, display := 16*n, (8+8+16)*blockLen, 8*bins.Len()
	if got, want := one.Footprint(), slot+blocks+display; got != want {
		t.Errorf("1 s capture left the scratch holding %d bytes; want one %d-byte slot + %d bytes of blocks + a %d-byte display (%d)",
			got, slot, blocks, display, want)
	}
	if len(noisePSD) != bins.Len() || bins.Len() > 8001 {
		t.Errorf("1 s noise product holds %d bins; want the band's %d", len(noisePSD), bins.Len())
	}
}
