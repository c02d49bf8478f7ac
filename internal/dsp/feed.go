package dsp

import (
	"fmt"
	"math"

	"repro/internal/buf"
	"repro/internal/obs"
)

// FFT-stage metrics: the segment histogram times each Welch segment's
// transform (its bit reversal and butterflies), so its count equals
// the number of transformed segments.
// No-ops until the registry is enabled.
var (
	mFFTSegment  = obs.Default.Histogram("dsp.fft.segment")
	mFFTSegments = obs.Default.Counter("dsp.fft.segments")
)

// SlotRing holds the segment buffers PairFeed and Feed transform in.
// With the half-segment step every sample lies in two segments, so a
// capture has at most two segments open at once — the one its samples
// close and the one they open — and segment h lives in slot h%2. Each
// segment is transformed and reduced on the producer the moment its
// last sample arrives, so segments reduce in capture order and every
// bin is bit-identical to the buffered Welch loops.
//
// A slot's buffer is allocated the first time a segment lands in it and
// reused by capacity after that, so a one-segment capture allocates
// exactly one buffer and no capture more than two. One ring may serve
// several feeds that run one after the other (each feed's Init…Finish
// completes before the next feed's Init), which is how specan.Scratch
// shares one ring between its envelope and noise feeds.
// The zero value is ready to use; a SlotRing is NOT safe for
// concurrent use.
type SlotRing struct {
	slots [2][]complex128
}

// Footprint returns the bytes of segment buffers the ring holds (for
// tests and diagnostics).
func (r *SlotRing) Footprint() int {
	n := 0
	for _, sl := range r.slots {
		n += 16 * cap(sl)
	}
	return n
}

// slot returns segment h's segLen-long buffer, growing its slot's
// buffer when it is shorter than a segment.
func (r *SlotRing) slot(h, segLen int) []complex128 {
	sl := &r.slots[h%len(r.slots)]
	*sl = buf.Grow(*sl, segLen)
	return *sl
}

// Band is a range of non-negative-frequency bins [Lo, Hi) of an N-point
// transform, 0 ≤ Lo < Hi ≤ N/2+1: the bins a feed accumulates.
type Band struct{ Lo, Hi int }

// Len returns the number of bins in the band.
func (b Band) Len() int { return b.Hi - b.Lo }

// BandFor returns the bins of an n-point transform at rate fs from the
// one nearest lo Hz to the one nearest hi Hz — rounded as
// Spectrum.BinFor rounds — clamped to the non-negative frequencies
// [0, fs/2]. lo ≤ hi must be finite.
func BandFor(lo, hi, fs float64, n int) Band {
	bw := fs / float64(n)
	bin := func(f float64) int { return min(max(int(math.Round(f/bw)), 0), n/2) }
	return Band{Lo: bin(lo), Hi: bin(hi) + 1}
}

// segWalk cuts a capture pushed block by block into the Welch
// segmentation — segLen-sample segments at a half-segment step, a tail
// shorter than half a segment dropped — and writes every sample,
// windowed and in natural order, straight into the ring slot of each
// segment that holds it: the one it opens and, where segments overlap,
// the one it closes. A segment is bit-reversed in place, transformed
// and reduced when its last sample arrives, so the ring's slots are
// the only segment-sized buffers a feed touches.
type segWalk struct {
	s         *WelchScratch
	ring      *SlotRing
	count     int          // segments in the capture
	reduced   int          // segments transformed and reduced so far
	pos       int          // capture samples walked so far
	cur, prev []complex128 // the segment opened at the current half segment, and the one before it
}

// init readies the walk for an n-sample capture whose band bins a feed
// accumulates at rate fs, transforming in ring.
func (w *segWalk) init(s *WelchScratch, n int, band Band, fs float64, ring *SlotRing) error {
	switch {
	case fs <= 0:
		return fmt.Errorf("dsp: sample rate %g", fs)
	case s.segLen < 2 || n < s.segLen:
		return fmt.Errorf("dsp: capture of %d samples for %d-sample Welch segments", n, s.segLen)
	case band.Lo < 0 || band.Hi <= band.Lo || band.Hi > s.segLen/2+1:
		return fmt.Errorf("dsp: band [%d, %d) outside the %d non-negative bins of a %d-point segment", band.Lo, band.Hi, s.segLen/2+1, s.segLen)
	case ring == nil:
		return fmt.Errorf("dsp: nil slot ring")
	}
	*w = segWalk{s: s, ring: ring, count: (n-s.segLen)/(s.segLen/2) + 1}
	return nil
}

// end is the number of capture samples the segments cover.
func (w *segWalk) end() int { return (w.count + 1) * (w.s.segLen / 2) }

// push walks the next k capture samples: load(dst, at, from, to) must
// window block samples [from, to) into segment positions at, at+1, …
// of slot buffer dst, and reduce(f, first) accumulates a transformed
// segment, first for the capture's first. Samples past the last
// segment are dropped.
func (w *segWalk) push(k int, reduce func([]complex128, bool), load func(dst []complex128, at, from, to int)) {
	half := w.s.segLen / 2
	end := w.end()
	for from := 0; from < k && w.pos < end; {
		h, q := w.pos/half, w.pos%half
		if q == 0 {
			w.prev, w.cur = w.cur, nil
			if h < w.count {
				w.cur = w.ring.slot(h, w.s.segLen)
			}
		}
		to := from + min(k-from, half-q)
		if w.cur != nil {
			load(w.cur, q, from, to)
		}
		if w.prev != nil {
			load(w.prev, half+q, from, to)
		}
		w.pos += to - from
		from = to
		if w.pos%half == 0 && w.prev != nil {
			// Segment h−1 is complete: transform and reduce it now, so
			// its slot is free for segment h+1.
			sp := mFFTSegment.Start()
			w.s.plan.forward(w.prev)
			sp.End()
			mFFTSegments.Inc()
			reduce(w.prev, w.reduced == 0)
			w.reduced++
			w.prev = nil
		}
	}
}

// finish returns how many segments were reduced, failing when the
// capture stopped short of its last segment.
func (w *segWalk) finish() (int, error) {
	if w.pos < w.end() {
		return 0, fmt.Errorf("dsp: capture ended after %d of the %d samples its %d Welch segments cover", w.pos, w.end(), w.count)
	}
	return w.reduced, nil
}

// PairFeed is the streaming, band-limited form of WelchPairInto: the
// caller pushes an n-sample real pair block by block, the feed cuts it
// into 50%-overlapped segments (see segWalk), transforms each as it
// completes and accumulates the periodograms and cross-spectrum of the
// band's bins, in segment order, into the destinations given at Init.
// Finish applies the Welch normalization. Because the feed and
// WelchPairInto share every per-sample and per-bin primitive and reduce
// segments in the same order, each band bin is bit-identical to the
// buffered call's.
//
// A PairFeed is NOT safe for concurrent use by multiple producers.
type PairFeed struct {
	walk   segWalk
	lo     int
	pa, pb []float64
	cross  []complex128
	fs     float64
	a, b   []float64 // the block being pushed
	// reduce and load are allocated once on first Init and read the
	// feed's current fields, so re-initializing reuses them.
	reduce func(f []complex128, first bool)
	load   func(dst []complex128, at, from, to int)
}

// Init readies the feed for an n-sample capture whose band bins it
// accumulates into pa, pb and cross (all band.Len() long), transforming
// in ring. It may be called repeatedly on one PairFeed, and ring may be
// shared with other feeds that run before or after this one (see
// SlotRing).
func (f *PairFeed) Init(s *WelchScratch, n int, band Band, pa, pb []float64, cross []complex128, fs float64, ring *SlotRing) error {
	if m := band.Len(); len(pa) != m || len(pb) != m || len(cross) != m {
		return fmt.Errorf("dsp: Welch pair destination lengths %d/%d/%d, band of %d bins", len(pa), len(pb), len(cross), m)
	}
	if err := f.walk.init(s, n, band, fs, ring); err != nil {
		return err
	}
	f.lo = band.Lo
	f.pa, f.pb, f.cross = pa, pb, cross
	f.fs = fs
	if f.reduce == nil {
		f.reduce = func(ft []complex128, first bool) {
			f.walk.s.accumulatePairBand(f.pa, f.pb, f.cross, ft, f.lo, first)
		}
		f.load = func(dst []complex128, at, from, to int) {
			f.walk.s.windowPair(dst, at, f.a[from:to], f.b[from:to])
		}
	}
	return nil
}

// Push walks the capture's next len(a) == len(b) samples. They are
// consumed before Push returns — the caller may reuse a and b at once —
// and every segment they complete is transformed and reduced by then.
// Samples past the capture's last segment are dropped.
func (f *PairFeed) Push(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("dsp: Welch pair block lengths %d vs %d", len(a), len(b))
	}
	f.a, f.b = a, b
	f.walk.push(len(a), f.reduce, f.load)
	f.a, f.b = nil, nil
	return nil
}

// Finish applies the Welch normalization. The pushed samples must cover every segment.
func (f *PairFeed) Finish() error {
	count, err := f.walk.finish()
	if err != nil {
		return err
	}
	f.walk.s.finishScalePair(f.pa, f.pb, f.cross, f.fs, count)
	return nil
}

// Feed is the streaming, band-limited form of WelchInto for a single
// complex stream: push the capture block by block, then Finish. Same
// segmentation, ordering and bit-identity guarantees as PairFeed.
//
// A Feed is NOT safe for concurrent use by multiple producers.
type Feed struct {
	walk segWalk
	band Band
	dst  []float64
	fs   float64
	x    []complex128 // the block being pushed
	// reduce and load are allocated once on first Init and read the
	// feed's current fields, so re-initializing reuses them.
	reduce func(f []complex128, first bool)
	load   func(dst []complex128, at, from, to int)
}

// Init readies the feed for an n-sample capture whose band bins it
// accumulates into dst (band.Len() long), transforming in ring
// (see PairFeed.Init).
func (f *Feed) Init(s *WelchScratch, n int, band Band, dst []float64, fs float64, ring *SlotRing) error {
	if len(dst) != band.Len() {
		return fmt.Errorf("dsp: Welch destination length %d, band of %d bins", len(dst), band.Len())
	}
	if err := f.walk.init(s, n, band, fs, ring); err != nil {
		return err
	}
	f.band = band
	f.dst = dst
	f.fs = fs
	if f.reduce == nil {
		f.reduce = func(ft []complex128, first bool) {
			f.walk.s.accumulate(f.dst, ft[f.band.Lo:f.band.Hi], first)
		}
		f.load = func(dst []complex128, at, from, to int) {
			f.walk.s.window(dst, at, f.x[from:to])
		}
	}
	return nil
}

// Push walks the capture's next len(x) samples (see PairFeed.Push).
func (f *Feed) Push(x []complex128) {
	f.x = x
	f.walk.push(len(x), f.reduce, f.load)
	f.x = nil
}

// Finish applies the Welch normalization. The pushed samples must cover every segment.
func (f *Feed) Finish() error {
	count, err := f.walk.finish()
	if err != nil {
		return err
	}
	f.walk.s.finishScale(f.dst, f.fs, count)
	return nil
}
