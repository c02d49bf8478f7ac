package dsp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/workpool"
)

// FFT-stage metrics. The segment histogram times each segment's
// butterflies wherever they run (pool worker or inline), so its count
// equals the number of transformed Welch segments. No-ops until the
// registry is enabled.
var (
	mFFTSegment  = obs.Default.Histogram("dsp.fft.segment")
	mFFTSegments = obs.Default.Counter("dsp.fft.segments")
	// Batch metrics: how many pool-refused transforms each stage-outer
	// batch sweep carried (occupancy 1 means no batching happened) and
	// how many segments went through batch sweeps in total.
	mFFTBatchOccupancy = obs.Default.Gauge("dsp.fft.batch_occupancy")
	mFFTBatched        = obs.Default.Counter("dsp.fft.batched")
)

// maxFeedSlots bounds how many segments a ring holds at once — at most
// two being scattered (the overlap puts every sample in two segments)
// and the rest in flight. Each slot owns one segLen complex buffer, so
// the ring's working set stays O(segLen) regardless of capture length.
const maxFeedSlots = 4

// feedSlot is one segment: a transform buffer plus a WaitGroup the
// producer waits on before reducing the slot. The WaitGroup and the
// dispatch closure are both reusable — run is built once per slot,
// reading the ring's current plan and the slot's current buffer at
// call time — so steady-state feeding allocates nothing.
type feedSlot struct {
	fft []complex128
	wg  sync.WaitGroup
	run func()
}

// SlotRing is the ordered dispatch machinery PairFeed and Feed
// transform their segments through: segments are scattered into slots
// in capture order, their butterflies may run concurrently on pool
// workers, and completed slots are reduced strictly FIFO — so the
// floating-point accumulation order is identical to the buffered Welch
// loops no matter how many transforms overlap (including zero, when
// the pool has no capacity and every transform runs on the producer).
//
// Transforms the pool refuses are not run inline immediately; they are
// parked as pending and executed together in one stage-outer batch
// sweep (Plan.butterfliesBatch) when a result is actually needed — so
// on a machine whose pool has no spare capacity the feed still gets the
// cache locality of batched butterflies: each stage's twiddle table is
// loaded once per batch instead of once per segment. A feed's final
// segment always joins that batch: Finish waits for it anyway, so
// handing it to a pool worker would only add a handoff. Per-segment
// results are bit-identical either way, and the FIFO reduction order
// never changes.
//
// A slot's buffer is carved the first time the ring hands that slot
// out, so a capture of k segments touches min(k, maxFeedSlots) buffers
// — a one-segment capture carves exactly one. One ring may serve
// several feeds that run one after the other (each feed's
// Init…Finish completes before the next feed's Init), which is how
// specan.Scratch shares one ring between its envelope and noise feeds.
// The zero value is ready to use; a SlotRing is NOT safe for
// concurrent use.
type SlotRing struct {
	// Always maxFeedSlots slots — not 1+pool.Cap() — so pool-refused
	// transforms can accumulate into a batch even when the pool has no
	// workers to spare (the common case on a loaded or single-core
	// machine, which is exactly where batching pays).
	slots    [maxFeedSlots]feedSlot
	segLen   int
	head     int // oldest undrained slot
	inFlight int // dispatched slots, from head on
	open     int // slots being scattered, after the in-flight ones
	count    int // segments reduced so far
	pool     *workpool.Pool
	plan     *Plan
	pending  []*feedSlot    // scattered slots awaiting a batch sweep
	batch    [][]complex128 // reused batch argument storage

	// Arena backing for the slot buffers (nil = heap). memGen remembers
	// the epoch the buffers were carved in: a Reset upstream retires
	// them no matter their capacity (see internal/arena lifetime rules).
	mem    *arena.Arena
	memGen uint64
}

func (r *SlotRing) init(segLen int, plan *Plan, pool *workpool.Pool, mem *arena.Arena) {
	r.Settle()
	if pool == nil {
		pool = workpool.Default
	}
	r.pool = pool
	r.plan = plan
	r.segLen = segLen
	if g := mem.Gen(); mem != r.mem || g != r.memGen {
		// Retired epoch, or another backing: nothing carved before may
		// be reused, so every slot re-carves on its next use.
		r.mem, r.memGen = mem, g
		for i := range r.slots {
			r.slots[i].fft = nil
		}
	}
	r.head = 0
	r.count = 0
}

// Settle abandons whatever a feed left in the ring without finishing —
// a producer that errored between Init and Finish: segments being
// scattered are dropped, pending transforms too, and in-flight ones
// waited for, so no pool worker still writes a slot buffer once Settle
// returns. The next Init settles implicitly; an owner about to release
// the ring's arena calls it on its error paths.
func (r *SlotRing) Settle() {
	r.open = 0
	for _, sl := range r.pending {
		sl.wg.Done()
	}
	r.pending = r.pending[:0]
	for ; r.inFlight > 0; r.inFlight-- {
		r.slots[r.head].wg.Wait()
		r.head = (r.head + 1) % len(r.slots)
	}
}

// next opens the slot the caller scatters the next segment into,
// draining the oldest in-flight slot first if the ring is full and
// carving the slot's buffer on its first use this epoch.
func (r *SlotRing) next(reduce func(f []complex128, first bool)) *feedSlot {
	if r.inFlight+r.open == len(r.slots) {
		r.drainOne(reduce)
	}
	sl := &r.slots[(r.head+r.inFlight+r.open)%len(r.slots)]
	r.open++
	if cap(sl.fft) >= r.segLen {
		sl.fft = sl.fft[:r.segLen]
	} else {
		sl.fft = r.mem.Complexes(r.segLen) // nil-safe: heap when no arena
	}
	if sl.run == nil {
		sl.run = func() {
			sp := mFFTSegment.Start()
			r.plan.butterflies(sl.fft)
			sp.End()
			sl.wg.Done()
		}
	}
	return sl
}

// dispatch hands the oldest open slot, sl, to the pool for its
// butterflies, parking it for the next batch sweep when no worker slot
// is free — or unconditionally when it is the feed's final segment,
// which the producer is about to wait for anyway.
func (r *SlotRing) dispatch(sl *feedSlot, final bool) {
	sl.wg.Add(1)
	mFFTSegments.Inc()
	if final || !r.pool.Go(sl.run) {
		r.pending = append(r.pending, sl)
	}
	r.open--
	r.inFlight++
}

// flush executes every pending transform in one stage-outer batch sweep
// and releases their WaitGroups.
func (r *SlotRing) flush() {
	if len(r.pending) == 0 {
		return
	}
	r.batch = r.batch[:0]
	for _, sl := range r.pending {
		r.batch = append(r.batch, sl.fft)
	}
	sp := mFFTSegment.Start()
	r.plan.butterfliesBatch(r.batch)
	sp.End()
	mFFTBatchOccupancy.Set(int64(len(r.pending)))
	mFFTBatched.Add(uint64(len(r.pending)))
	for _, sl := range r.pending {
		sl.wg.Done()
	}
	r.pending = r.pending[:0]
}

// drainOne waits for the oldest in-flight transform and reduces it.
// Pending transforms are flushed first: the oldest slot may itself be
// pending, and once a result is needed there is nothing to gain from
// waiting for more batch occupancy.
func (r *SlotRing) drainOne(reduce func(f []complex128, first bool)) {
	r.flush()
	sl := &r.slots[r.head]
	sl.wg.Wait()
	reduce(sl.fft, r.count == 0)
	r.count++
	r.head = (r.head + 1) % len(r.slots)
	r.inFlight--
}

func (r *SlotRing) drainAll(reduce func(f []complex128, first bool)) {
	for r.inFlight > 0 {
		r.drainOne(reduce)
	}
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
// shorter than half a segment dropped — and scatters every sample,
// windowed and in bit-reversed order, straight into the ring slot of
// each segment that holds it: the one it opens and, where segments
// overlap, the one it closes. A segment is dispatched for its transform
// when its last sample arrives, so the ring's slots are the only
// segment-sized buffers a feed touches.
type segWalk struct {
	s         *WelchScratch
	ring      *SlotRing
	count     int       // segments in the capture
	pos       int       // capture samples walked so far
	cur, prev *feedSlot // the segment opened at the current half segment, and the one before it
}

// init readies the walk for an n-sample capture whose band bins a feed
// accumulates at rate fs, transforming through ring.
func (w *segWalk) init(s *WelchScratch, n int, band Band, fs float64, ring *SlotRing, pool *workpool.Pool, mem *arena.Arena) error {
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
	ring.init(s.segLen, s.plan, pool, mem)
	return nil
}

// end is the number of capture samples the segments cover.
func (w *segWalk) end() int { return (w.count + 1) * (w.s.segLen / 2) }

// push walks the next k capture samples: scatter(dst, at, from, to)
// must window block samples [from, to) as segment positions at, at+1, …
// into slot buffer dst. Samples past the last segment are dropped.
func (w *segWalk) push(k int, reduce func([]complex128, bool), scatter func(dst []complex128, at, from, to int)) {
	half := w.s.segLen / 2
	end := w.end()
	for from := 0; from < k && w.pos < end; {
		h, q := w.pos/half, w.pos%half
		if q == 0 {
			w.prev, w.cur = w.cur, nil
			if h < w.count {
				w.cur = w.ring.next(reduce)
			}
		}
		to := from + min(k-from, half-q)
		if w.cur != nil {
			scatter(w.cur.fft, q, from, to)
		}
		if w.prev != nil {
			scatter(w.prev.fft, half+q, from, to)
		}
		w.pos += to - from
		from = to
		if w.pos%half == 0 && w.prev != nil {
			// Segment h−1 is complete; the capture's last one is h == count.
			w.ring.dispatch(w.prev, h == w.count)
			w.prev = nil
		}
	}
}

// finish drains every in-flight transform and returns how many
// segments were reduced, failing — with the ring settled — when the
// capture stopped short of its last segment.
func (w *segWalk) finish(reduce func([]complex128, bool)) (int, error) {
	if w.pos < w.end() {
		w.ring.Settle()
		return 0, fmt.Errorf("dsp: capture ended after %d of the %d samples its %d Welch segments cover", w.pos, w.end(), w.count)
	}
	w.ring.drainAll(reduce)
	return w.ring.count, nil
}

// PairFeed is the streaming, band-limited form of WelchPairInto: the
// caller pushes an n-sample real pair block by block, the feed cuts it
// into 50%-overlapped segments (see segWalk), transforms them —
// possibly several concurrently on pool workers — and accumulates the
// periodograms and cross-spectrum of the band's bins, in strict segment
// order, into the destinations given at Init. Finish applies the Welch
// normalization. Because the feed and WelchPairInto share every
// per-sample and per-bin primitive and the reduction is FIFO, each band
// bin is bit-identical to the buffered call's.
//
// A PairFeed is NOT safe for concurrent use by multiple producers.
type PairFeed struct {
	walk   segWalk
	lo     int
	pa, pb []float64
	cross  []complex128
	fs     float64
	a, b   []float64 // the block being pushed
	// reduce and scatter are allocated once on first Init and read the
	// feed's current fields, so re-initializing reuses them.
	reduce  func(f []complex128, first bool)
	scatter func(dst []complex128, at, from, to int)
}

// Init readies the feed for an n-sample capture whose band bins it
// accumulates into pa, pb and cross (all band.Len() long), transforming
// through ring. It may be called repeatedly on one PairFeed, and ring
// may be shared with other feeds that run before or after this one
// (see SlotRing). The ring's slot buffers are carved from mem when
// non-nil (heap otherwise); the ring honours the arena epoch,
// re-carving after a Reset.
func (f *PairFeed) Init(s *WelchScratch, n int, band Band, pa, pb []float64, cross []complex128, fs float64, ring *SlotRing, pool *workpool.Pool, mem *arena.Arena) error {
	if m := band.Len(); len(pa) != m || len(pb) != m || len(cross) != m {
		return fmt.Errorf("dsp: Welch pair destination lengths %d/%d/%d, band of %d bins", len(pa), len(pb), len(cross), m)
	}
	if err := f.walk.init(s, n, band, fs, ring, pool, mem); err != nil {
		return err
	}
	f.lo = band.Lo
	f.pa, f.pb, f.cross = pa, pb, cross
	f.fs = fs
	if f.reduce == nil {
		f.reduce = func(ft []complex128, first bool) {
			f.walk.s.accumulatePairBand(f.pa, f.pb, f.cross, ft, f.lo, first)
		}
		f.scatter = func(dst []complex128, at, from, to int) {
			f.walk.s.scatterPair(dst, at, f.a[from:to], f.b[from:to])
		}
	}
	return nil
}

// Push walks the capture's next len(a) == len(b) samples. They are
// consumed before Push returns — the caller may reuse a and b at once —
// but the transforms and reductions they complete may finish later, on
// pool workers. Samples past the capture's last segment are dropped.
func (f *PairFeed) Push(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("dsp: Welch pair block lengths %d vs %d", len(a), len(b))
	}
	f.a, f.b = a, b
	f.walk.push(len(a), f.reduce, f.scatter)
	f.a, f.b = nil, nil
	return nil
}

// Finish drains every in-flight transform and applies the Welch
// normalization. The pushed samples must cover every segment.
func (f *PairFeed) Finish() error {
	count, err := f.walk.finish(f.reduce)
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
	// reduce and scatter are allocated once on first Init and read the
	// feed's current fields, so re-initializing reuses them.
	reduce  func(f []complex128, first bool)
	scatter func(dst []complex128, at, from, to int)
}

// Init readies the feed for an n-sample capture whose band bins it
// accumulates into dst (band.Len() long), transforming through ring
// (see PairFeed.Init).
func (f *Feed) Init(s *WelchScratch, n int, band Band, dst []float64, fs float64, ring *SlotRing, pool *workpool.Pool, mem *arena.Arena) error {
	if len(dst) != band.Len() {
		return fmt.Errorf("dsp: Welch destination length %d, band of %d bins", len(dst), band.Len())
	}
	if err := f.walk.init(s, n, band, fs, ring, pool, mem); err != nil {
		return err
	}
	f.band = band
	f.dst = dst
	f.fs = fs
	if f.reduce == nil {
		f.reduce = func(ft []complex128, first bool) {
			f.walk.s.accumulate(f.dst, ft[f.band.Lo:f.band.Hi], first)
		}
		f.scatter = func(dst []complex128, at, from, to int) {
			f.walk.s.scatter(dst, at, f.x[from:to])
		}
	}
	return nil
}

// Push walks the capture's next len(x) samples (see PairFeed.Push).
func (f *Feed) Push(x []complex128) {
	f.x = x
	f.walk.push(len(x), f.reduce, f.scatter)
	f.x = nil
}

// Finish drains every in-flight transform and applies the Welch
// normalization. The pushed samples must cover every segment.
func (f *Feed) Finish() error {
	count, err := f.walk.finish(f.reduce)
	if err != nil {
		return err
	}
	f.walk.s.finishScale(f.dst, f.fs, count)
	return nil
}
