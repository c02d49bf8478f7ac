package specan

import (
	"errors"
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

// bandCell is one render: products over the bins of band at a segment
// length, the groups' coefficients (none for a noise-only trace), the
// noise PSD (nil to omit), and the floor.
type bandCell struct {
	seg      int
	band     Band
	bins     dsp.Band
	coeffs   [][2]complex128
	env      *PairPSD
	noisePSD []float64
	floor    float64
}

// cellFS is the sample rate of a bandCell: 4 Hz bins, and n = seg keeps
// the full segment.
func cellFS(seg int) float64 { return 4 * float64(seg) }

// randomCell draws products whose cross term can outweigh the powers, so
// the fold goes negative and the floor engages.
func randomCell(rng *rand.Rand, seg int, band Band, groups int, withNoise bool) bandCell {
	c := bandCell{seg: seg, band: band, floor: []float64{0, 1e-3, 0.5}[rng.Intn(3)]}
	bins, err := band.bins(seg, cellFS(seg))
	if err != nil {
		panic(err)
	}
	c.bins = bins
	m := bins.Len()
	if groups > 0 {
		c.env = &PairPSD{PA: make([]float64, m), PB: make([]float64, m), Cross: make([]complex128, m)}
		for k := 0; k < m; k++ {
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
		c.noisePSD = make([]float64, m)
		for k := range c.noisePSD {
			c.noisePSD[k] = rng.ExpFloat64() * 0.7
		}
	}
	return c
}

// checkBandWalk renders the cell and reads it over center ± halfSpan
// through s and through another fresh scratch. BandPower and Peak
// (results and errors) must be == to the same reads of the fully built
// band display, and — where the read stays in the band — to the reads
// of a full spectrum that holds that display at the band's bins, so
// the band offset is applied right; a read that leaves the band fails
// with ErrOutsideBand. The band built after the walk, over whatever s
// held before, must equal foldDisplay bit for bit.
func checkBandWalk(t *testing.T, s *Scratch, c bandCell, center, halfSpan float64) {
	t.Helper()
	fs := cellFS(c.seg)
	a := MustNew(Config{RBW: 1, Window: dsp.Hann, FloorPSD: c.floor})
	render := func(s *Scratch) *Trace {
		tr, err := a.Render(c.seg, c.band, c.coeffs, c.env, c.noisePSD, fs, s)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	built := render(nil).Band()
	want := foldDisplay(c.coeffs, c.env, c.noisePSD, c.floor, c.bins.Len())
	if built.Offset != c.bins.Lo || built.N != c.seg || len(built.PSD) != len(want) {
		t.Fatalf("band display covers bins %d+%d of %d, want %v of %d", built.Offset, len(built.PSD), built.N, c.bins, c.seg)
	}
	for k := range want {
		if math.Float64bits(built.PSD[k]) != math.Float64bits(want[k]) {
			t.Fatalf("built bin %d: %g, want %g", k, built.PSD[k], want[k])
		}
	}
	full := dsp.Spectrum{PSD: make([]float64, c.seg), SampleRate: fs}
	copy(full.PSD[c.bins.Lo:], want)

	lo, hi := center-halfSpan, center+halfSpan
	wantP, wantPErr := built.BandPower(lo, hi)
	if halfSpan <= 0 {
		wantP, wantPErr = 0, fmt.Errorf("half span %g", halfSpan)
	}
	if wantPErr == nil {
		if fullP, _ := full.BandPower(lo, hi); fullP != wantP {
			t.Fatalf("band BandPower(%g, %g) = %g, the full spectrum's %g", center, halfSpan, wantP, fullP)
		}
	}
	wantK, wantV, wantKErr := built.PeakIn(lo, hi)
	if wantKErr == nil {
		if k, v, _ := full.PeakIn(lo, hi); k != wantK || v != wantV {
			t.Fatalf("band PeakIn(%g, %g) = %d, %g, the full spectrum's %d, %g", center, halfSpan, wantK, wantV, k, v)
		}
	}
	if _, fullErr := full.BandPower(lo, hi); fullErr == nil && wantPErr != nil && halfSpan > 0 && !errors.Is(wantPErr, ErrOutsideBand) {
		t.Fatalf("BandPower(%g, %g) outside the band failed with %v, want ErrOutsideBand", center, halfSpan, wantPErr)
	}

	tr := render(s)
	p, pErr := tr.BandPower(center, halfSpan)
	if (pErr != nil) != (wantPErr != nil) || p != wantP {
		t.Fatalf("BandPower(%g, %g) = %g, %v; built display gives %g, %v", center, halfSpan, p, pErr, wantP, wantPErr)
	}
	f, v, kErr := render(NewScratch()).Peak(center, halfSpan)
	if (kErr != nil) != (wantKErr != nil) || kErr == nil && (f != full.Freq(wantK) || v != wantV) {
		t.Fatalf("Peak(%g, %g) = %g, %g, %v; built display gives %g, %g, %v", center, halfSpan, f, v, kErr, full.Freq(wantK), wantV, wantKErr)
	}
	got := tr.Band()
	for k := range want {
		if math.Float64bits(got.PSD[k]) != math.Float64bits(want[k]) {
			t.Fatalf("bin %d after the band walk: %g, want %g", k, got.PSD[k], want[k])
		}
	}
}

// The band walk reads exactly what the built display holds, and only
// within the analyzed band: through one reused scratch, for envelope
// and noise-only traces, for bands inside the spectrum and clamped at
// 0 and fs/2, read inside the band, across its edges, across bin 0
// into the negative frequencies, at the ±fs/2 edges, over a single
// bin, and out of range.
func TestBandWalkMatchesDisplay(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewScratch()
	const seg = 1 << 10
	fs := cellFS(seg)
	analyzed := []Band{{fs / 16, fs / 4}, {0, fs / 2}, {0, 10}, {fs/2 - 30, fs / 2}}
	reads := [][2]float64{
		{fs / 8, 40},        // inside the first band
		{fs / 16, 20},       // across its bottom edge
		{0, 50},             // across bin 0
		{-3, 10},            // across bin 0, off-centre
		{-fs / 4, 100},      // negative frequencies
		{-fs/2 + 20, 20},    // the bottom edge
		{fs/2 - 21, 20},     // just below the top edge
		{fs / 2, 1},         // outside ±fs/2
		{fs / 8, 0.5},       // one bin
		{fs / 8, 0},         // no half span
		{fs / 8, -30},       // negative half span: Peak wraps
		{fs / 4, fs/4 - 1},  // almost the whole positive half
		{100, math.NaN()},   // no band at all
		{math.Inf(-1), 100}, // nor here
	}
	for _, band := range analyzed {
		for _, groups := range []int{0, 1, 3} {
			for _, withNoise := range []bool{false, true} {
				c := randomCell(rng, seg, band, groups, withNoise)
				for _, r := range reads {
					checkBandWalk(t, s, c, r[0], r[1])
				}
			}
		}
	}
}

// FuzzBandWalkVsDisplay holds the band walk to the fully built display
// on random products, coefficients, floors, analyzed bands and reads.
func FuzzBandWalkVsDisplay(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), true, 100.0, 30.0)
	f.Add(int64(2), uint8(6), uint8(0), true, 0.0, 20.0)
	f.Add(int64(3), uint8(10), uint8(1), false, -500.0, 999.0)
	f.Add(int64(4), uint8(3), uint8(3), true, 15.9, 0.1)
	f.Fuzz(func(t *testing.T, seed int64, segLog, groups uint8, withNoise bool, center, halfSpan float64) {
		seg := 1 << (3 + segLog%10)
		rng := rand.New(rand.NewSource(seed))
		half := cellFS(seg) / 2
		lo := half * rng.Float64()
		band := Band{Lo: lo, Hi: lo + (half-lo)*rng.Float64()}
		c := randomCell(rng, seg, band, int(groups%4), withNoise)
		checkBandWalk(t, NewScratch(), c, center, halfSpan)
	})
}
