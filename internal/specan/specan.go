// Package specan models the spectrum analyzer used in the paper's
// measurement setup (an Agilent MXA-class instrument): windowed FFT
// analysis at a requested resolution bandwidth, a sensitivity floor, and
// band-power markers.
//
// The SAVAT pipeline records the spectrum around the alternation frequency
// and integrates the received power in a ±1 kHz band (paper Section IV);
// both operations live here.
package specan

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/dsp"
	"repro/internal/obs"
)

// Analyzer-stage metrics: one span per analysis stage (an envelope or
// noise product computation, or a render), so a capture that computes
// both products records three spans. The captures counter counts
// rendered traces. No-ops until the registry is enabled.
var (
	mAnalyze  = obs.Default.Histogram("specan.analyze")
	mCaptures = obs.Default.Counter("specan.captures")
)

// Config describes the analyzer settings. The json tags are part of
// the savat.CampaignSpec wire format.
type Config struct {
	// RBW is the requested resolution bandwidth in Hz. The achieved RBW is
	// ENBW·fs/segment and is reported on the trace; it is never better
	// than the capture length allows.
	RBW float64 `json:"rbw"`
	// Window is the RBW filter shape; Hann by default. Serialized by
	// name ("hann").
	Window dsp.Window `json:"window"`
	// FloorPSD is the instrument sensitivity floor in W/Hz; trace values
	// below it are reported at the floor (≈6×10⁻¹⁸ for the paper's MXA).
	FloorPSD float64 `json:"floor_psd"`
}

// DefaultConfig mirrors the paper's settings: 1 Hz RBW request, Hann
// filter, MXA-class sensitivity.
func DefaultConfig() Config {
	return Config{RBW: 1, Window: dsp.Hann, FloorPSD: 6e-18}
}

// Validate reports the first configuration problem.
func (c Config) Validate() error {
	if c.RBW <= 0 {
		return fmt.Errorf("specan: non-positive RBW %g", c.RBW)
	}
	if !(c.FloorPSD >= 0 && c.FloorPSD <= MaxFloorPSD) {
		return fmt.Errorf("specan: floor %g outside [0, %g] W/Hz", c.FloorPSD, float64(MaxFloorPSD))
	}
	return nil
}

// MaxFloorPSD bounds Config.FloorPSD, in W/Hz: one watt per hertz is
// some eighteen orders of magnitude above the paper's instrument, and
// a floor near the float64 range overflows the band power it adds to.
const MaxFloorPSD = 1

// Band is the frequency range [Lo, Hi] Hz, 0 ≤ Lo ≤ Hi ≤ fs/2, whose
// bins the products hold and a rendered trace serves: every bin from
// the one nearest Lo to the one nearest Hi (see dsp.BandFor).
type Band struct{ Lo, Hi float64 }

// bins resolves the band to the bins of a seg-point analysis at fs.
func (b Band) bins(seg int, fs float64) (dsp.Band, error) {
	if !(b.Lo >= 0 && b.Lo <= b.Hi && b.Hi <= fs/2) {
		return dsp.Band{}, fmt.Errorf("specan: band [%g, %g] Hz outside [0, %g]", b.Lo, b.Hi, fs/2)
	}
	return dsp.BandFor(b.Lo, b.Hi, fs, seg), nil
}

// ErrOutsideBand is returned by a Trace read that reaches a bin outside
// the trace's analyzed band.
var ErrOutsideBand = dsp.ErrOutsideBand

// Trace is one recorded spectrum. A rendered trace holds the displayed
// bins of its analyzed band only (see Render); reads outside the band
// fail with ErrOutsideBand. A trace from AnalyzeIncoherent holds the
// full spectrum. A Trace is not safe for concurrent use.
type Trace struct {
	ActualRBW float64 // achieved resolution bandwidth in Hz
	FloorPSD  float64

	spec dsp.Spectrum
}

// display is the per-bin recipe of a rendered trace: the group
// coefficients folded over the pair-Welch products (env nil when there
// are none), the noise PSD (nil to omit), and the sensitivity floor. By
// Welch linearity the per-bin group-sum PSD is
// CA·|WA|² + CB·|WB|² + 2·Re(CX·WA·conj(WB)) with CA = Σ|a_g|²,
// CB = Σ|b_g|², CX = Σ a_g·conj(b_g) = cr + i·ci. The products and the
// noise PSD are only read — they may be shared, cached state. Bin i of
// the recipe is bin i of the band.
type display struct {
	ca, cb, cr, ci float64
	env            *PairPSD
	noise          []float64
	floor          float64
}

// bin computes display bin i.
func (d *display) bin(i int) float64 {
	var t float64
	if d.env != nil {
		x := d.env.Cross[i]
		t = d.ca*d.env.PA[i] + d.cb*d.env.PB[i] + 2*(d.cr*real(x)-d.ci*imag(x))
		if d.noise != nil {
			t += d.noise[i]
		}
	} else {
		t = d.noise[i]
	}
	if t < d.floor {
		t = d.floor
	}
	return t
}

// Band returns the displayed spectrum: for a rendered trace a band
// dsp.Spectrum, whose reads outside the band fail with ErrOutsideBand;
// the full spectrum for AnalyzeIncoherent's traces.
func (t *Trace) Band() *dsp.Spectrum { return &t.spec }

// Analyzer is the instrument.
type Analyzer struct {
	cfg Config
}

// New builds an analyzer.
func New(cfg Config) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Analyzer{cfg: cfg}, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config) *Analyzer {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the analyzer settings.
func (a *Analyzer) Config() Config { return a.cfg }

// segmentFor picks the Welch segment length for an n-sample capture:
// the largest power of two that fits the capture, shortened when a
// shorter segment meets (or comes closest to) the requested RBW. It
// returns the chosen length together with the window's ENBW at that
// length, computed once — the ENBW only needs refreshing when the
// RBW request actually shortens the segment. A segment is never
// shorter than two samples, so 50%-overlapped segments always advance.
func (a *Analyzer) segmentFor(n int, fs float64) (seg int, enbw float64, err error) {
	maxSeg := 1
	for maxSeg*2 <= n {
		maxSeg *= 2
	}
	enbw, err = a.cfg.Window.ENBW(maxSeg)
	if err != nil {
		return 0, 0, err
	}
	seg = maxSeg
	// Compared as a float first: a tiny RBW request overflows int.
	if r := enbw * fs / a.cfg.RBW; r < float64(seg) {
		if need := max(dsp.NextPow2(int(r)), 2); need < seg {
			seg = need
			if enbw, err = a.cfg.Window.ENBW(seg); err != nil {
				return 0, 0, err
			}
		}
	}
	return seg, enbw, nil
}

// ErrNoCaptures is returned when an incoherent analysis is given no
// non-nil capture at all.
var ErrNoCaptures = fmt.Errorf("specan: no captures")

// AnalyzeIncoherent records the spectrum of several mutually-incoherent
// captures of equal length — signals whose spatial field structure differs
// so that their powers, not their amplitudes, add at the detector (see
// internal/emsim). The displayed PSD is the sum of the per-capture PSDs,
// with the sensitivity floor applied once to the sum. Nil captures are
// skipped; if every capture is nil the call fails with ErrNoCaptures.
func (a *Analyzer) AnalyzeIncoherent(xs [][]complex128, fs float64) (*Trace, error) {
	sp := mAnalyze.Start()
	defer sp.End()
	mCaptures.Inc()
	if fs <= 0 {
		return nil, fmt.Errorf("specan: sample rate %g", fs)
	}
	n := -1
	for _, s := range xs {
		if s == nil {
			continue
		}
		if n >= 0 && len(s) != n {
			return nil, fmt.Errorf("specan: capture length mismatch %d vs %d", len(s), n)
		}
		n = len(s)
	}
	if n < 0 {
		return nil, ErrNoCaptures
	}
	if n < 2 {
		return nil, fmt.Errorf("specan: capture of %d samples too short", n)
	}
	seg, enbw, err := a.segmentFor(n, fs)
	if err != nil {
		return nil, err
	}
	ws, err := dsp.NewWelchScratch(seg, a.cfg.Window)
	if err != nil {
		return nil, err
	}
	sum := make([]float64, seg)
	tmp := make([]float64, seg)
	first := true
	for _, s := range xs {
		if s == nil {
			continue
		}
		if first {
			if err := ws.WelchInto(sum, s, fs); err != nil {
				return nil, err
			}
			first = false
			continue
		}
		if err := ws.WelchInto(tmp, s, fs); err != nil {
			return nil, err
		}
		for i, v := range tmp {
			sum[i] += v
		}
	}
	tr := &Trace{
		ActualRBW: enbw * fs / float64(seg),
		FloorPSD:  a.cfg.FloorPSD,
		spec:      dsp.Spectrum{PSD: sum, SampleRate: fs},
	}
	// Apply the sensitivity floor once, to the summed display.
	for i, v := range sum {
		if v < tr.FloorPSD {
			sum[i] = tr.FloorPSD
		}
	}
	return tr, nil
}

// PairPSD holds the pair-Welch products of a two-envelope linear
// family: the two envelope PSDs and their cross-spectrum over the bins
// of the analyzed band (index i is the band's bin i). They are
// independent of the family's group coefficients and of the
// instrument floor — every stream
// a·envA + b·envB has per-bin Welch PSD |a|²·PA + |b|²·PB +
// 2·Re(a·conj(b)·Cross) — which is what makes them reusable: one
// PairPSD computed from one envelope realization serves every
// measurement cell that shares the realization, whatever its
// coefficients (see savat's synthesis-product cache). A published
// PairPSD is read-only and safe to share across goroutines.
type PairPSD struct {
	PA, PB []float64
	Cross  []complex128
}

func (p *PairPSD) grow(bins int) {
	p.PA = buf.Grow(p.PA, bins)
	p.PB = buf.Grow(p.PB, bins)
	p.Cross = buf.Grow(p.Cross, bins)
}

// Scratch holds the reusable working set of the envelope analysis — the
// Welch scratch, the source blocks and segment feeds, and the display
// accumulator — so steady-state measurement cells allocate no
// sample-sized buffers. A Scratch adapts itself to whatever segment
// length and window a call needs (rebuilding is the only allocating
// path) and is NOT safe for concurrent use.
type Scratch struct {
	welch *dsp.WelchScratch
	sum   []float64
	trace Trace

	// Streaming working set: one block of each source (two real
	// envelope streams and one complex noise stream), blockLen samples
	// whatever the segment length, and the segment feeds. The envelope
	// and noise feeds always run one after the other, so they share one
	// slot ring: at most two segment buffers, the only segment-sized
	// ones, allocated on first use for both. Every buffer is reused by
	// capacity, so a shape change back to a smaller capture allocates
	// nothing.
	ba, bb    []float64
	bn        []complex128
	ring      dsp.SlotRing
	pairFeed  dsp.PairFeed
	noiseFeed dsp.Feed
}

// NewScratch returns an empty scratch; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// Footprint returns the bytes of the scratch's shape-dependent working
// set — the ring's segment buffers, the source blocks and the display
// accumulator — for tests and diagnostics.
func (s *Scratch) Footprint() int {
	return s.ring.Footprint() + 8*(cap(s.ba)+cap(s.bb)+cap(s.sum)) + 16*cap(s.bn)
}

// prepare readies the Welch scratch for the segment length and window.
func (s *Scratch) prepare(seg int, win dsp.Window) error {
	if s.welch == nil || s.welch.SegLen() != seg || s.welch.Window() != win {
		ws, err := dsp.NewWelchScratch(seg, win)
		if err != nil {
			return err
		}
		s.welch = ws
	}
	return nil
}

// setup validates the capture parameters and the band, picks the
// segmentation, and readies the Welch scratch — the shared front of
// both product entry points, so hits and misses of a product cache see
// the exact same segmentation decision.
func (a *Analyzer) setup(n int, band Band, fs float64, s *Scratch) (dsp.Band, error) {
	if fs <= 0 {
		return dsp.Band{}, fmt.Errorf("specan: sample rate %g", fs)
	}
	if n < 2 {
		return dsp.Band{}, fmt.Errorf("specan: capture of %d samples too short", n)
	}
	seg, _, err := a.segmentFor(n, fs)
	if err != nil {
		return dsp.Band{}, err
	}
	bins, err := band.bins(seg, fs)
	if err != nil {
		return dsp.Band{}, err
	}
	return bins, s.prepare(seg, a.cfg.Window)
}

// Render combines precomputed products into the displayed trace of
// band for an n-sample capture: the group-coefficient fold of the
// envelope products (skipped when coeffs is empty; env may then be
// nil), the noise PSD (nil to omit), and the sensitivity floor. The
// products must hold the band's bins, as EnvelopeProductsStream and
// NoiseProductsStream compute them for the same n, band and fs. Render
// performs no FFT work: it computes each display bin of the band once,
// and only reads env and noisePSD.
//
// The returned Trace aliases the scratch's buffers: it is valid until
// the scratch's next analysis call. Pass a nil scratch to
// allocate a private one (and a Trace that aliases no scratch).
func (a *Analyzer) Render(n int, band Band, coeffs [][2]complex128, env *PairPSD, noisePSD []float64, fs float64, s *Scratch) (*Trace, error) {
	sp := mAnalyze.Start()
	defer sp.End()
	mCaptures.Inc()
	if fs <= 0 {
		return nil, fmt.Errorf("specan: sample rate %g", fs)
	}
	if len(coeffs) == 0 && noisePSD == nil {
		return nil, ErrNoCaptures
	}
	if n < 2 {
		return nil, fmt.Errorf("specan: capture of %d samples too short", n)
	}
	if s == nil {
		s = NewScratch()
	}
	seg, enbw, err := a.segmentFor(n, fs)
	if err != nil {
		return nil, err
	}
	bins, err := band.bins(seg, fs)
	if err != nil {
		return nil, err
	}
	m := bins.Len()
	if len(coeffs) > 0 {
		if env == nil || len(env.PA) != m || len(env.PB) != m || len(env.Cross) != m {
			return nil, fmt.Errorf("specan: envelope products missing or not of the band's %d bins", m)
		}
	}
	if noisePSD != nil && len(noisePSD) != m {
		return nil, fmt.Errorf("specan: noise PSD of %d bins, band of %d", len(noisePSD), m)
	}
	s.sum = buf.Grow(s.sum, m)
	src := display{noise: noisePSD, floor: a.cfg.FloorPSD}
	if len(coeffs) > 0 {
		var cx complex128
		for _, c := range coeffs {
			a0, b0 := c[0], c[1]
			src.ca += real(a0)*real(a0) + imag(a0)*imag(a0)
			src.cb += real(b0)*real(b0) + imag(b0)*imag(b0)
			cx += a0 * complex(real(b0), -imag(b0))
		}
		src.cr, src.ci, src.env = real(cx), imag(cx), env
	}
	for i := range s.sum {
		s.sum[i] = src.bin(i)
	}
	s.trace = Trace{
		ActualRBW: enbw * fs / float64(seg),
		FloorPSD:  a.cfg.FloorPSD,
		spec:      dsp.Spectrum{PSD: s.sum, SampleRate: fs, Offset: bins.Lo, N: seg},
	}
	return &s.trace, nil
}

// BandPower integrates the displayed PSD over center ± halfSpan Hz and
// returns watts — the paper's "total received signal power in the
// frequency band from 1 kHz below to 1 kHz above the alternation
// frequency". A band that leaves the analyzed one fails with
// ErrOutsideBand.
func (t *Trace) BandPower(center, halfSpan float64) (float64, error) {
	if halfSpan <= 0 {
		return 0, fmt.Errorf("specan: non-positive half span %g", halfSpan)
	}
	return t.spec.BandPower(center-halfSpan, center+halfSpan)
}

// Peak returns the frequency and PSD of the strongest bin within
// center ± halfSpan. A band that leaves the analyzed one fails with
// ErrOutsideBand.
func (t *Trace) Peak(center, halfSpan float64) (freq, psd float64, err error) {
	k, v, err := t.spec.PeakIn(center-halfSpan, center+halfSpan)
	if err != nil {
		return 0, 0, err
	}
	return t.spec.Freq(k), v, nil
}
