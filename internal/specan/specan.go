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

	"repro/internal/arena"
	"repro/internal/buf"
	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/workpool"
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
	if c.FloorPSD < 0 {
		return fmt.Errorf("specan: negative floor %g", c.FloorPSD)
	}
	return nil
}

// Trace is one recorded spectrum.
type Trace struct {
	Spectrum  *dsp.Spectrum
	ActualRBW float64 // achieved resolution bandwidth in Hz
	FloorPSD  float64
}

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

// Analyze records the spectrum of the capture x at sample rate fs.
// The segment length is chosen as the largest power of two that fits the
// capture and meets (or comes closest to) the requested RBW; segments are
// averaged Welch-style when the capture is longer than one segment.
func (a *Analyzer) Analyze(x []complex128, fs float64) (*Trace, error) {
	return a.AnalyzeIncoherent([][]complex128{x}, fs)
}

// segmentFor picks the Welch segment length for an n-sample capture:
// the largest power of two that fits the capture, shortened when a
// shorter segment meets (or comes closest to) the requested RBW. It
// returns the chosen length together with the window's ENBW at that
// length, computed once — the ENBW only needs refreshing when the
// RBW request actually shortens the segment.
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
	if need := dsp.NextPow2(int(enbw * fs / a.cfg.RBW)); need < seg {
		seg = need
		if enbw, err = a.cfg.Window.ENBW(seg); err != nil {
			return 0, 0, err
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
		Spectrum:  &dsp.Spectrum{PSD: sum, SampleRate: fs},
		ActualRBW: enbw * fs / float64(seg),
		FloorPSD:  a.cfg.FloorPSD,
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
// family: the two envelope PSDs and their cross-spectrum, all at the
// analysis segment length. They are independent of the family's group
// coefficients and of the instrument floor — every stream
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

func (p *PairPSD) grow(seg int) {
	p.PA = buf.Grow(p.PA, seg)
	p.PB = buf.Grow(p.PB, seg)
	p.Cross = buf.Grow(p.Cross, seg)
}

// Scratch holds the reusable working set of the envelope analysis — the
// Welch scratch, the scratch-owned products, and the display
// accumulator — so steady-state measurement cells allocate no
// sample-sized buffers. A Scratch adapts itself to whatever segment
// length and window a call needs (rebuilding is the only allocating
// path) and is NOT safe for concurrent use.
type Scratch struct {
	// Pool, when non-nil, is the worker pool the streaming analysis
	// fans its per-segment transforms out on; nil means
	// workpool.Default. Results are bit-identical for any pool.
	Pool *workpool.Pool

	// Mem, when non-nil, backs the scratch's shape-dependent working
	// buffers — the rolling windows, the display accumulator, the
	// in-flight segment transforms — with the owner's per-worker bump
	// allocator instead of the heap. The owner resets the arena only
	// when the measurement shape changes (see internal/arena's lifetime
	// rules); the scratch re-carves after every reset, tracked by
	// memGen. Published products (PairPSD, noise PSDs handed to caches)
	// are never arena-backed.
	Mem    *arena.Arena
	memGen uint64

	welch    *dsp.WelchScratch
	prod     PairPSD
	noisePSD []float64
	sum      []float64
	trace    Trace
	spectrum dsp.Spectrum

	// Streaming working set: the rolling 50%-overlap windows (two real
	// envelope streams and one complex noise stream) and the segment
	// feeds. All O(segLen), reused across captures. The envelope and
	// noise feeds always run one after the other, so they share one
	// slot ring: its in-flight transform buffers are carved once, on
	// first use, for both.
	wa, wb    []float64
	wn        []complex128
	ring      dsp.SlotRing
	pairFeed  dsp.PairFeed
	noiseFeed dsp.Feed
}

// NewScratch returns an empty scratch; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// refreshEpoch drops every arena-carved buffer when the arena has
// entered a new epoch since they were carved — their memory belongs to
// the next carver now, whatever their capacity. Heap-backed scratches
// (Mem == nil) never drop anything.
func (s *Scratch) refreshEpoch() {
	if s.Mem == nil {
		return
	}
	if g := s.Mem.Gen(); g != s.memGen {
		s.memGen = g
		s.wa, s.wb, s.wn, s.sum = nil, nil, nil, nil
	}
}

// growFloats sizes an arena-epoch-managed float buffer: reuse within
// the epoch, carve (from the arena, or the heap when none) otherwise.
// Callers must have run refreshEpoch this analysis call.
func (s *Scratch) growFloats(b []float64, n int) []float64 {
	if cap(b) >= n {
		return b[:n]
	}
	return s.Mem.Floats(n) // nil-safe: heap fallback
}

// growComplexes is growFloats for complex128 buffers.
func (s *Scratch) growComplexes(b []complex128, n int) []complex128 {
	if cap(b) >= n {
		return b[:n]
	}
	return s.Mem.Complexes(n)
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

// setup validates the capture parameters, picks the segmentation, and
// readies the Welch scratch — the shared front of every product and
// render entry point, so hits and misses of a product cache see the
// exact same segmentation decision.
func (a *Analyzer) setup(n int, fs float64, s *Scratch) (seg int, enbw float64, err error) {
	if fs <= 0 {
		return 0, 0, fmt.Errorf("specan: sample rate %g", fs)
	}
	if n < 2 {
		return 0, 0, fmt.Errorf("specan: capture of %d samples too short", n)
	}
	seg, enbw, err = a.segmentFor(n, fs)
	if err != nil {
		return 0, 0, err
	}
	s.refreshEpoch()
	return seg, enbw, s.prepare(seg, a.cfg.Window)
}

// combineDisplay folds the pair-Welch products into the summed display
// using the group coefficients, adds the noise PSD (nil to omit), and
// applies the sensitivity floor, all in one pass over the sum — the
// display assembly is pure streaming arithmetic, so fusing the combine
// with the noise/floor finish halves its memory traffic. By Welch
// linearity the per-bin group-sum PSD is
// CA·|WA|² + CB·|WB|² + 2·Re(CX·WA·conj(WB)) with CA = Σ|a_g|²,
// CB = Σ|b_g|², CX = Σ a_g·conj(b_g). The products and the noise PSD
// are only read — they may be shared, cached state.
func (s *Scratch) combineDisplay(coeffs [][2]complex128, p *PairPSD, floor float64, noisePSD []float64) {
	var ca, cb float64
	var cx complex128
	for _, c := range coeffs {
		a0, b0 := c[0], c[1]
		ca += real(a0)*real(a0) + imag(a0)*imag(a0)
		cb += real(b0)*real(b0) + imag(b0)*imag(b0)
		cx += a0 * complex(real(b0), -imag(b0))
	}
	cr, ci := real(cx), imag(cx)
	sum := s.sum
	pa, pb, cross := p.PA[:len(sum)], p.PB[:len(sum)], p.Cross[:len(sum)]
	if noisePSD != nil {
		noise := noisePSD[:len(sum)]
		for k := range sum {
			x := cross[k]
			t := ca*pa[k] + cb*pb[k] + 2*(cr*real(x)-ci*imag(x))
			t += noise[k]
			if t < floor {
				t = floor
			}
			sum[k] = t
		}
		return
	}
	for k := range sum {
		x := cross[k]
		t := ca*pa[k] + cb*pb[k] + 2*(cr*real(x)-ci*imag(x))
		if t < floor {
			t = floor
		}
		sum[k] = t
	}
}

// noiseDisplay fills the sum with the floored noise PSD — the display
// of a measurement with no coherent envelope content.
func (s *Scratch) noiseDisplay(floor float64, noisePSD []float64) {
	sum := s.sum
	if noisePSD == nil {
		for k := range sum {
			sum[k] = floor
		}
		return
	}
	for k, v := range noisePSD[:len(sum)] {
		if v < floor {
			v = floor
		}
		sum[k] = v
	}
}

// traceFor points the scratch-owned Trace at the summed display.
func (s *Scratch) traceFor(fs float64, seg int, enbw, floor float64) *Trace {
	s.spectrum = dsp.Spectrum{PSD: s.sum, SampleRate: fs}
	s.trace = Trace{
		Spectrum:  &s.spectrum,
		ActualRBW: enbw * fs / float64(seg),
		FloorPSD:  floor,
	}
	return &s.trace
}

// EnvelopeProducts computes the pair-Welch products of the envelope
// pair at the segmentation an n = len(envA) capture gets, into dst
// (grown as needed; nil allocates a fresh PairPSD) and returns it. The
// products depend only on the envelopes, the sample rate, and the
// analyzer's RBW/window — not on group coefficients or the floor — so
// callers may cache and share them across every measurement rendered
// from the same envelope realization.
func (a *Analyzer) EnvelopeProducts(envA, envB []float64, fs float64, s *Scratch, dst *PairPSD) (*PairPSD, error) {
	sp := mAnalyze.Start()
	defer sp.End()
	if len(envA) != len(envB) {
		return nil, fmt.Errorf("specan: envelope length mismatch %d vs %d", len(envA), len(envB))
	}
	if s == nil {
		s = NewScratch()
	}
	seg, _, err := a.setup(len(envA), fs, s)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = &PairPSD{}
	}
	dst.grow(seg)
	if err := s.welch.WelchPairInto(dst.PA, dst.PB, dst.Cross, envA, envB, fs); err != nil {
		return nil, err
	}
	return dst, nil
}

// NoiseProducts computes the Welch PSD of the complex capture x at the
// segmentation an n = len(x) capture gets, into dst (grown as needed;
// nil allocates) and returns it. Like EnvelopeProducts, the result is
// coefficient- and floor-independent and may be cached and shared.
func (a *Analyzer) NoiseProducts(x []complex128, fs float64, s *Scratch, dst []float64) ([]float64, error) {
	sp := mAnalyze.Start()
	defer sp.End()
	if s == nil {
		s = NewScratch()
	}
	seg, _, err := a.setup(len(x), fs, s)
	if err != nil {
		return nil, err
	}
	dst = buf.Grow(dst, seg)
	if err := s.welch.WelchInto(dst, x, fs); err != nil {
		return nil, err
	}
	return dst, nil
}

// Render combines precomputed products into the displayed trace for an
// n-sample capture: the group-coefficient fold of the envelope products
// (skipped when coeffs is empty; env may then be nil), the noise PSD
// (nil to omit), and the sensitivity floor. It performs no FFT work at
// all — a measurement whose products come from a cache pays only the
// O(segment) combine — and n must be the original capture length so the
// segmentation (and achieved RBW) match the product computation.
//
// The returned Trace aliases the scratch's buffers: it is valid until
// the scratch's next analysis call. Pass a nil scratch to allocate a
// private one (and a fresh, unaliased Trace).
func (a *Analyzer) Render(n int, coeffs [][2]complex128, env *PairPSD, noisePSD []float64, fs float64, s *Scratch) (*Trace, error) {
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
	if len(coeffs) > 0 {
		if env == nil || len(env.PA) != seg || len(env.PB) != seg || len(env.Cross) != seg {
			return nil, fmt.Errorf("specan: envelope products missing or not at segment length %d", seg)
		}
	}
	if noisePSD != nil && len(noisePSD) != seg {
		return nil, fmt.Errorf("specan: noise PSD length %d, segment length %d", len(noisePSD), seg)
	}
	// Render is reachable without setup (cache-hit measurements call it
	// directly), so it must honour the arena epoch itself.
	s.refreshEpoch()
	s.sum = s.growFloats(s.sum, seg)
	if len(coeffs) > 0 {
		s.combineDisplay(coeffs, env, a.cfg.FloorPSD, noisePSD)
	} else {
		s.noiseDisplay(a.cfg.FloorPSD, noisePSD)
	}
	return s.traceFor(fs, seg, enbw, a.cfg.FloorPSD), nil
}

// AnalyzeEnvelopes records the summed incoherent spectrum of a family
// of streams that are all linear combinations of the same two REAL
// envelope streams — stream g is coeffs[g][0]·envA + coeffs[g][1]·envB
// — plus one optional extra complex capture (the noise stream; nil to
// omit). No group stream is ever rendered: by Welch linearity the
// per-bin group-sum PSD is
//
//	CA·|WA|² + CB·|WB|² + 2·Re(CX·WA·conj(WB))
//
// with CA = Σ|a_g|², CB = Σ|b_g|², CX = Σ a_g·conj(b_g), so the whole
// family costs one packed envelope FFT pass plus one noise pass instead
// of one full Welch pass per stream. The result equals
// AnalyzeIncoherent over the rendered streams up to rounding.
//
// It is exactly EnvelopeProducts + NoiseProducts + Render on the
// scratch-owned product buffers.
//
// The returned Trace aliases the scratch's buffers: it is valid until
// the scratch's next Analyze call. Pass a nil scratch to allocate a
// private one (and a fresh, unaliased Trace).
func (a *Analyzer) AnalyzeEnvelopes(envA, envB []float64, coeffs [][2]complex128, extra []complex128, fs float64, s *Scratch) (*Trace, error) {
	if fs <= 0 {
		return nil, fmt.Errorf("specan: sample rate %g", fs)
	}
	if len(envA) != len(envB) {
		return nil, fmt.Errorf("specan: envelope length mismatch %d vs %d", len(envA), len(envB))
	}
	n := -1
	if len(coeffs) > 0 {
		n = len(envA)
	}
	if extra != nil {
		if n >= 0 && len(extra) != n {
			return nil, fmt.Errorf("specan: capture length mismatch %d vs %d", len(extra), n)
		}
		n = len(extra)
	}
	if n < 0 {
		return nil, ErrNoCaptures
	}
	if s == nil {
		s = NewScratch()
	}
	var env *PairPSD
	if len(coeffs) > 0 {
		var err error
		if env, err = a.EnvelopeProducts(envA, envB, fs, s, &s.prod); err != nil {
			return nil, err
		}
	}
	var noisePSD []float64
	if extra != nil {
		var err error
		if noisePSD, err = a.NoiseProducts(extra, fs, s, s.noisePSD); err != nil {
			return nil, err
		}
		s.noisePSD = noisePSD
	}
	return a.Render(n, coeffs, env, noisePSD, fs, s)
}

// BandPower integrates the displayed PSD over center ± halfSpan Hz and
// returns watts — the paper's "total received signal power in the
// frequency band from 1 kHz below to 1 kHz above the alternation
// frequency".
func (t *Trace) BandPower(center, halfSpan float64) (float64, error) {
	if halfSpan <= 0 {
		return 0, fmt.Errorf("specan: non-positive half span %g", halfSpan)
	}
	return t.Spectrum.BandPower(center-halfSpan, center+halfSpan)
}

// Peak returns the frequency and PSD of the strongest bin within
// center ± halfSpan.
func (t *Trace) Peak(center, halfSpan float64) (freq, psd float64, err error) {
	k, v, err := t.Spectrum.PeakIn(center-halfSpan, center+halfSpan)
	if err != nil {
		return 0, 0, err
	}
	return t.Spectrum.Freq(k), v, nil
}
