package dsp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/buf"
)

// Spectrum is a power-spectral-density estimate of complex baseband data.
// Bin k covers frequency Freq(k) = k·fs/N for k < N/2 and (k−N)·fs/N for
// k ≥ N/2 (negative frequencies). Values are in W/Hz.
//
// A spectrum may hold only a band of its bins: with N > 0, PSD[i] is
// bin Offset+i of an N-bin spectrum, and every read that leaves those
// bins fails with ErrOutsideBand. With N == 0, PSD holds all bins.
type Spectrum struct {
	PSD        []float64
	SampleRate float64
	Offset, N  int
}

// ErrOutsideBand is returned by a read of a band spectrum that reaches a
// bin the band does not hold.
var ErrOutsideBand = errors.New("dsp: read outside the analyzed band")

// Bins returns the number of frequency bins of the full spectrum.
func (s *Spectrum) Bins() int {
	if s.N > 0 {
		return s.N
	}
	return len(s.PSD)
}

// BinWidth returns the bin spacing in Hz.
func (s *Spectrum) BinWidth() float64 { return s.SampleRate / float64(s.Bins()) }

// Freq returns the center frequency of bin k (negative for k ≥ N/2).
func (s *Spectrum) Freq(k int) float64 {
	n := s.Bins()
	if k >= n/2 {
		k -= n
	}
	return float64(k) * s.SampleRate / float64(n)
}

// BinFor returns the bin index whose center is closest to f. f may be
// negative; it must lie within ±fs/2 (NaN does not).
func (s *Spectrum) BinFor(f float64) (int, error) {
	n := s.Bins()
	half := s.SampleRate / 2
	if !(f >= -half && f < half) {
		return 0, fmt.Errorf("dsp: frequency %g outside ±%g", f, half)
	}
	k := int(math.Round(f / s.BinWidth()))
	if k < 0 {
		k += n
	}
	if k == n {
		k = 0
	}
	return k, nil
}

// binRange returns the first and last bins of [lo, hi] Hz: a walk over
// the range visits klo up to khi, wrapping past the last bin when
// khi < klo. A band spectrum rejects a range that leaves its bins with
// ErrOutsideBand.
func (s *Spectrum) binRange(lo, hi float64) (klo, khi int, err error) {
	if klo, err = s.BinFor(lo); err != nil {
		return 0, 0, err
	}
	if khi, err = s.BinFor(hi); err != nil {
		return 0, 0, err
	}
	if s.N > 0 && (khi < klo || klo < s.Offset || khi >= s.Offset+len(s.PSD)) {
		return 0, 0, fmt.Errorf("%w: [%g, %g] Hz is not within bins [%d, %d)", ErrOutsideBand, lo, hi, s.Offset, s.Offset+len(s.PSD))
	}
	return klo, khi, nil
}

// Walk visits the bins of [lo, hi] Hz in order (see binRange) with each
// bin's index and value.
func (s *Spectrum) Walk(lo, hi float64, visit func(k int, v float64)) error {
	klo, khi, err := s.binRange(lo, hi)
	if err != nil {
		return err
	}
	for k := klo; ; k = (k + 1) % s.Bins() {
		visit(k, s.PSD[k-s.Offset])
		if k == khi {
			return nil
		}
	}
}

// BandPower integrates the PSD over [lo, hi] (Hz, may span zero) and
// returns total power in watts.
func (s *Spectrum) BandPower(lo, hi float64) (float64, error) {
	if hi < lo {
		return 0, fmt.Errorf("dsp: inverted band [%g,%g]", lo, hi)
	}
	klo, khi, err := s.binRange(lo, hi)
	if err != nil {
		return 0, err
	}
	bw := s.BinWidth()
	n := s.Bins()
	total := 0.0
	for k := klo; ; k = (k + 1) % n {
		total += s.PSD[k-s.Offset] * bw
		if k == khi {
			break
		}
	}
	return total, nil
}

// PeakIn returns the bin index and PSD value of the maximum within
// [lo, hi] Hz.
func (s *Spectrum) PeakIn(lo, hi float64) (int, float64, error) {
	klo, khi, err := s.binRange(lo, hi)
	if err != nil {
		return 0, 0, err
	}
	n := s.Bins()
	best, bestV := klo, s.PSD[klo-s.Offset]
	for k := klo; ; k = (k + 1) % n {
		if v := s.PSD[k-s.Offset]; v > bestV {
			best, bestV = k, v
		}
		if k == khi {
			break
		}
	}
	return best, bestV, nil
}

// Periodogram estimates the PSD of x with a single windowed FFT.
// len(x) must be a power of two.
func Periodogram(x []complex128, fs float64, win Window) (*Spectrum, error) {
	if fs <= 0 {
		return nil, fmt.Errorf("dsp: sample rate %g", fs)
	}
	n := len(x)
	e, err := win.cached(n)
	if err != nil {
		return nil, err
	}
	plan, err := PlanFor(n)
	if err != nil {
		return nil, err
	}
	buf := make([]complex128, n)
	for i := range x {
		buf[i] = x[i] * complex(e.coeff[i], 0)
	}
	if err := plan.Forward(buf); err != nil {
		return nil, err
	}
	psd := make([]float64, n)
	scale := 1 / (fs * float64(n) * e.noise)
	for k, v := range buf {
		re, im := real(v), imag(v)
		psd[k] = (re*re + im*im) * scale
	}
	return &Spectrum{PSD: psd, SampleRate: fs}, nil
}

// WelchScratch holds the per-segment-length state of Welch estimation —
// the FFT plan, the shared window coefficients and noise gain, and the
// buffered passes' segment working buffer (allocated on the first
// buffered pass; streaming feeds transform in their SlotRing instead) —
// so repeated runs at a fixed segment length allocate nothing. A scratch is NOT safe for concurrent use; give each
// worker its own.
type WelchScratch struct {
	segLen int
	win    Window
	plan   *Plan
	coeff  []float64 // shared cache entry; read-only
	noise  float64
	buf    []complex128
}

// NewWelchScratch builds a scratch for Welch runs with the given
// segment length (a power of two) and window.
func NewWelchScratch(segLen int, win Window) (*WelchScratch, error) {
	if segLen <= 0 || segLen&(segLen-1) != 0 {
		return nil, fmt.Errorf("dsp: Welch segment length %d not a power of two", segLen)
	}
	e, err := win.cached(segLen)
	if err != nil {
		return nil, err
	}
	plan, err := PlanFor(segLen)
	if err != nil {
		return nil, err
	}
	return &WelchScratch{
		segLen: segLen,
		win:    win,
		plan:   plan,
		coeff:  e.coeff,
		noise:  e.noise,
	}, nil
}

// SegLen returns the scratch's segment length.
func (s *WelchScratch) SegLen() int { return s.segLen }

// Window returns the scratch's window.
func (s *WelchScratch) Window() Window { return s.win }

// window writes len(x) samples that start at position w of a complex
// segment, windowed, to dst[w:], in natural order; the transform
// reverses the segment in place before its butterflies (Plan.forward).
func (s *WelchScratch) window(dst []complex128, w int, x []complex128) {
	dst, coeff := dst[w:w+len(x)], s.coeff[w:w+len(x)]
	for i, v := range x {
		// v · (c + 0i) decomposed: the products against the zero
		// imaginary part vanish exactly, so two real multiplies suffice.
		c := coeff[i]
		dst[i] = complex(real(v)*c, imag(v)*c)
	}
}

// accumulate adds the periodogram |F[k]|² of one transformed segment to
// dst; the first segment overwrites so callers never need a clearing
// pass.
func (s *WelchScratch) accumulate(dst []float64, f []complex128, first bool) {
	if first {
		for k, v := range f {
			re, im := real(v), imag(v)
			dst[k] = re*re + im*im
		}
	} else {
		for k, v := range f {
			re, im := real(v), imag(v)
			dst[k] += re*re + im*im
		}
	}
}

// finishScale applies the Welch normalization for count averaged
// segments.
func (s *WelchScratch) finishScale(dst []float64, fs float64, count int) {
	scale := 1 / (fs * float64(s.segLen) * s.noise * float64(count))
	for k := range dst {
		dst[k] *= scale
	}
}

// WelchInto estimates the PSD of x by averaging windowed periodograms
// of 50%-overlapped segments, overwriting dst (len(dst) must equal the
// segment length) without allocating. It walks the same per-segment
// primitives as a streaming Feed, so the two agree bit for bit.
func (s *WelchScratch) WelchInto(dst []float64, x []complex128, fs float64) error {
	if fs <= 0 {
		return fmt.Errorf("dsp: sample rate %g", fs)
	}
	if len(dst) != s.segLen {
		return fmt.Errorf("dsp: Welch destination length %d, segment length %d", len(dst), s.segLen)
	}
	if len(x) < s.segLen {
		return fmt.Errorf("dsp: Welch needs ≥%d samples, have %d", s.segLen, len(x))
	}
	s.buf = buf.Grow(s.buf, s.segLen)
	step := s.segLen / 2
	count := 0
	for start := 0; start+s.segLen <= len(x); start += step {
		s.window(s.buf, 0, x[start:start+s.segLen])
		s.plan.forward(s.buf)
		// The first segment always exists (len(x) ≥ segLen was checked).
		s.accumulate(dst, s.buf, count == 0)
		count++
	}
	s.finishScale(dst, fs, count)
	return nil
}

// WelchPairInto runs one Welch pass over two equal-length REAL streams
// a and b at once, overwriting pa and pb with their individual PSDs and
// cross with their scaled cross-spectrum ⟨A[k]·conj(B[k])⟩ (same
// scaling and 50%-overlap segmentation as WelchInto, so the Welch PSD
// of any linear combination α·a+β·b follows per bin as
// |α|²·pa + |β|²·pb + 2·Re(α·conj(β)·cross)).
//
// Both streams ride one packed FFT per segment: the real pair is packed
// as a[i] + i·b[i], transformed once, and unpacked with the Hermitian
// split A[k] = (Z[k]+conj(Z[−k]))/2, B[k] = −i·(Z[k]−conj(Z[−k]))/2 —
// half the transforms of analyzing the streams separately.
func (s *WelchScratch) WelchPairInto(pa, pb []float64, cross []complex128, a, b []float64, fs float64) error {
	if fs <= 0 {
		return fmt.Errorf("dsp: sample rate %g", fs)
	}
	if len(pa) != s.segLen || len(pb) != s.segLen || len(cross) != s.segLen {
		return fmt.Errorf("dsp: Welch pair destination lengths %d/%d/%d, segment length %d",
			len(pa), len(pb), len(cross), s.segLen)
	}
	if len(a) != len(b) {
		return fmt.Errorf("dsp: Welch pair stream lengths %d vs %d", len(a), len(b))
	}
	if len(a) < s.segLen {
		return fmt.Errorf("dsp: Welch needs ≥%d samples, have %d", s.segLen, len(a))
	}
	n := s.segLen
	s.buf = buf.Grow(s.buf, n)
	step := n / 2
	count := 0
	for start := 0; start+n <= len(a); start += step {
		s.windowPair(s.buf, 0, a[start:start+n], b[start:start+n])
		s.plan.forward(s.buf)
		// The first segment always exists (len(a) ≥ segLen was checked).
		s.accumulatePair(pa, pb, cross, s.buf, count == 0)
		count++
	}
	s.finishScalePair(pa, pb, cross, fs, count)
	return nil
}

// windowPair packs len(a) samples that start at position w of a
// segment of the real pair as a[i] + i·b[i], windowed, into dst[w:] in
// natural order (see window). len(a) == len(b).
func (s *WelchScratch) windowPair(dst []complex128, w int, a, b []float64) {
	dst, coeff := dst[w:w+len(a)], s.coeff[w:w+len(a)]
	b = b[:len(a)]
	for i := range a {
		c := coeff[i]
		dst[i] = complex(c*a[i], c*b[i])
	}
}

// unpackPair splits bin k of a packed-pair transform, given zk = F[k]
// and zm = F[N−k], into the two streams' periodogram values and their
// cross-spectrum term: A[k] = (Z[k]+conj(Z[−k]))/2 and
// B[k] = −i·(Z[k]−conj(Z[−k]))/2. Bin N−k holds the same powers and the
// conjugate cross term. Every pair accumulation goes through this one
// function, so full and band products agree bit for bit.
func unpackPair(zk, zm complex128) (pwa, pwb float64, cr complex128) {
	zmc := complex(real(zm), -imag(zm))
	wa := (zk + zmc) * 0.5
	d := zk - zmc
	wb := complex(imag(d)*0.5, -real(d)*0.5) // −i/2 · d
	pwa = real(wa)*real(wa) + imag(wa)*imag(wa)
	pwb = real(wb)*real(wb) + imag(wb)*imag(wb)
	cr = wa * complex(real(wb), -imag(wb))
	return pwa, pwb, cr
}

// accumulatePair unpacks one packed-pair transform f and adds the two
// periodograms and the cross-spectrum to the destinations.
//
// Self-conjugate bins (DC and, for n > 1, Nyquist) unpack against
// themselves; every other bin pairs with n−k, whose A/B values are
// the conjugates of bin k's — one unpack serves both bins. The
// first segment overwrites the destinations (callers guarantee the
// first segment exists, so no separate clearing pass is needed);
// later segments add.
func (s *WelchScratch) accumulatePair(pa, pb []float64, cross []complex128, f []complex128, first bool) {
	n := s.segLen
	for _, k := range [2]int{0, n / 2} {
		pwa, pwb, cr := unpackPair(f[k], f[k])
		if first {
			pa[k], pb[k], cross[k] = pwa, pwb, cr
		} else {
			pa[k] += pwa
			pb[k] += pwb
			cross[k] += cr
		}
		if n/2 == 0 {
			break
		}
	}
	if first {
		for k := 1; k < n/2; k++ {
			m := n - k
			pwa, pwb, cr := unpackPair(f[k], f[m])
			pa[k], pb[k], cross[k] = pwa, pwb, cr
			pa[m], pb[m] = pwa, pwb
			cross[m] = complex(real(cr), -imag(cr))
		}
	} else {
		for k := 1; k < n/2; k++ {
			m := n - k
			pwa, pwb, cr := unpackPair(f[k], f[m])
			pa[k] += pwa
			pb[k] += pwb
			cross[k] += cr
			pa[m] += pwa
			pb[m] += pwb
			cross[m] += complex(real(cr), -imag(cr))
		}
	}
}

// accumulatePairBand is accumulatePair for the non-negative bins
// lo, lo+1, … , lo+len(pa)−1 only (lo+len(pa) ≤ n/2+1): destination
// index i holds bin lo+i, unpacked from f[k] and f[n−k] exactly as
// accumulatePair unpacks it.
func (s *WelchScratch) accumulatePairBand(pa, pb []float64, cross []complex128, f []complex128, lo int, first bool) {
	n := s.segLen
	pb, cross = pb[:len(pa)], cross[:len(pa)]
	for i := range pa {
		k := lo + i
		pwa, pwb, cr := unpackPair(f[k], f[(n-k)&(n-1)])
		if first {
			pa[i], pb[i], cross[i] = pwa, pwb, cr
		} else {
			pa[i] += pwa
			pb[i] += pwb
			cross[i] += cr
		}
	}
}

// finishScalePair applies the Welch normalization for count averaged
// segments to both PSDs and the cross-spectrum.
func (s *WelchScratch) finishScalePair(pa, pb []float64, cross []complex128, fs float64, count int) {
	scale := 1 / (fs * float64(s.segLen) * s.noise * float64(count))
	cs := complex(scale, 0)
	for k := range pa {
		pa[k] *= scale
		pb[k] *= scale
		cross[k] *= cs
	}
}

// Welch estimates the PSD of x into a fresh Spectrum using the scratch.
func (s *WelchScratch) Welch(x []complex128, fs float64) (*Spectrum, error) {
	psd := make([]float64, s.segLen)
	if err := s.WelchInto(psd, x, fs); err != nil {
		return nil, err
	}
	return &Spectrum{PSD: psd, SampleRate: fs}, nil
}

// Welch estimates the PSD by averaging windowed periodograms of segments
// of length segLen (power of two) with 50% overlap.
func Welch(x []complex128, fs float64, segLen int, win Window) (*Spectrum, error) {
	s, err := NewWelchScratch(segLen, win)
	if err != nil {
		return nil, err
	}
	return s.Welch(x, fs)
}
