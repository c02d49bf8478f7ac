package specan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// foldDisplay is the display Render assembled in full before traces
// computed bins on demand: the group-coefficient fold of the products,
// plus the noise PSD, at the floor — written out bin by bin as the
// reference for the band walk and the on-demand build.
func foldDisplay(coeffs [][2]complex128, env *PairPSD, noisePSD []float64, floor float64, seg int) []float64 {
	out := make([]float64, seg)
	if len(coeffs) == 0 {
		for k, v := range noisePSD {
			if v < floor {
				v = floor
			}
			out[k] = v
		}
		return out
	}
	var ca, cb float64
	var cx complex128
	for _, c := range coeffs {
		a0, b0 := c[0], c[1]
		ca += real(a0)*real(a0) + imag(a0)*imag(a0)
		cb += real(b0)*real(b0) + imag(b0)*imag(b0)
		cx += a0 * complex(real(b0), -imag(b0))
	}
	cr, ci := real(cx), imag(cx)
	for k := range out {
		x := env.Cross[k]
		t := ca*env.PA[k] + cb*env.PB[k] + 2*(cr*real(x)-ci*imag(x))
		if noisePSD != nil {
			t += noisePSD[k]
		}
		if t < floor {
			t = floor
		}
		out[k] = t
	}
	return out
}

// bandCell is one render: products at a segment length, the groups'
// coefficients (none for a noise-only trace), the noise PSD (nil to
// omit), and the floor.
type bandCell struct {
	seg      int
	coeffs   [][2]complex128
	env      *PairPSD
	noisePSD []float64
	floor    float64
}

// randomCell draws products whose cross term can outweigh the powers, so
// the fold goes negative and the floor engages.
func randomCell(rng *rand.Rand, seg, groups int, withNoise bool) bandCell {
	c := bandCell{seg: seg, floor: []float64{0, 1e-3, 0.5}[rng.Intn(3)]}
	if groups > 0 {
		c.env = &PairPSD{PA: make([]float64, seg), PB: make([]float64, seg), Cross: make([]complex128, seg)}
		for k := 0; k < seg; k++ {
			c.env.PA[k] = rng.ExpFloat64()
			c.env.PB[k] = rng.ExpFloat64()
			c.env.Cross[k] = complex(2*rng.NormFloat64(), 2*rng.NormFloat64())
		}
		for g := 0; g < groups; g++ {
			c.coeffs = append(c.coeffs, [2]complex128{
				complex(rng.NormFloat64(), rng.NormFloat64()),
				complex(rng.NormFloat64(), rng.NormFloat64()),
			})
		}
	}
	if withNoise || groups == 0 {
		c.noisePSD = make([]float64, seg)
		for k := range c.noisePSD {
			c.noisePSD[k] = rng.ExpFloat64() * 0.7
		}
	}
	return c
}

// checkBandWalk renders the cell fully built on a private scratch, and
// read only over center ± halfSpan through s and through another fresh
// scratch, and requires BandPower and Peak (results and errors) to be
// == to the built display's, and the display built after the band
// walk, over whatever s held before, to equal foldDisplay bit for bit,
// as the fully built one must.
func checkBandWalk(t *testing.T, s *Scratch, c bandCell, center, halfSpan float64) {
	t.Helper()
	fs := 4 * float64(c.seg) // 4 Hz bins; n = seg keeps the full segment
	a := MustNew(Config{RBW: 1, Window: dsp.Hann, FloorPSD: c.floor})
	render := func(s *Scratch) *Trace {
		tr, err := a.Render(c.seg, c.coeffs, c.env, c.noisePSD, fs, s)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	full := render(nil).Spectrum()
	want := foldDisplay(c.coeffs, c.env, c.noisePSD, c.floor, c.seg)
	for k := range want {
		if math.Float64bits(full.PSD[k]) != math.Float64bits(want[k]) {
			t.Fatalf("built bin %d: %g, want %g", k, full.PSD[k], want[k])
		}
	}
	lo, hi := center-halfSpan, center+halfSpan
	wantP, wantPErr := full.BandPower(lo, hi)
	if halfSpan <= 0 {
		wantP, wantPErr = 0, fmt.Errorf("half span %g", halfSpan)
	}
	wantK, wantV, wantKErr := full.PeakIn(lo, hi)

	tr := render(s)
	p, pErr := tr.BandPower(center, halfSpan)
	if (pErr != nil) != (wantPErr != nil) || p != wantP {
		t.Fatalf("BandPower(%g, %g) = %g, %v; built display gives %g, %v", center, halfSpan, p, pErr, wantP, wantPErr)
	}
	if pErr == nil {
		klo, _ := full.BinFor(lo)
		khi, _ := full.BinFor(hi)
		if band := (khi-klo+c.seg)%c.seg + 1; tr.bins != band {
			t.Fatalf("BandPower(%g, %g) computed %d bins for a %d-bin band", center, halfSpan, tr.bins, band)
		}
	}
	f, v, kErr := render(NewScratch()).Peak(center, halfSpan)
	if (kErr != nil) != (wantKErr != nil) || kErr == nil && (f != full.Freq(wantK) || v != wantV) {
		t.Fatalf("Peak(%g, %g) = %g, %g, %v; built display gives %g, %g, %v", center, halfSpan, f, v, kErr, full.Freq(wantK), wantV, wantKErr)
	}
	got := tr.Spectrum()
	for k := range want {
		if math.Float64bits(got.PSD[k]) != math.Float64bits(want[k]) {
			t.Fatalf("bin %d after the band walk: %g, want %g", k, got.PSD[k], want[k])
		}
	}
}

// The band walk reads exactly what the built display holds: through
// one reused scratch, for envelope and noise-only traces, bands in the
// positive half, across bin 0 into the negative frequencies, wholly
// negative, at the ±fs/2 edges, a single bin, and out of range.
func TestBandWalkMatchesDisplay(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewScratch()
	const seg = 1 << 10
	fs := 4.0 * seg
	bands := [][2]float64{
		{fs / 8, 40},        // positive frequencies
		{0, 50},             // across bin 0
		{-3, 10},            // across bin 0, off-centre
		{-fs / 4, 100},      // negative frequencies
		{-fs/2 + 20, 20},    // the bottom edge
		{fs/2 - 21, 20},     // just below the top edge
		{fs / 2, 1},         // outside ±fs/2
		{fs / 8, 0.5},       // one bin
		{fs / 8, 0},         // no half span
		{fs / 8, -30},       // negative half span: Peak wraps
		{0, fs/2 - 1},       // almost the whole spectrum
		{100, math.NaN()},   // no band at all
		{math.Inf(-1), 100}, // nor here
	}
	for _, groups := range []int{0, 1, 3} {
		for _, withNoise := range []bool{false, true} {
			c := randomCell(rng, seg, groups, withNoise)
			for _, b := range bands {
				checkBandWalk(t, s, c, b[0], b[1])
			}
		}
	}
}

// FuzzBandWalkVsDisplay holds the band walk to the fully built display
// on random products, coefficients, floors and bands.
func FuzzBandWalkVsDisplay(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), true, 100.0, 30.0)
	f.Add(int64(2), uint8(6), uint8(0), true, 0.0, 20.0)
	f.Add(int64(3), uint8(10), uint8(1), false, -500.0, 999.0)
	f.Add(int64(4), uint8(3), uint8(3), true, 15.9, 0.1)
	f.Fuzz(func(t *testing.T, seed int64, segLog, groups uint8, withNoise bool, center, halfSpan float64) {
		seg := 1 << (3 + segLog%10)
		c := randomCell(rand.New(rand.NewSource(seed)), seg, int(groups%4), withNoise)
		checkBandWalk(t, NewScratch(), c, center, halfSpan)
	})
}
