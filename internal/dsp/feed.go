package dsp

import (
	"fmt"
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

// maxFeedSlots bounds how many segment transforms a ring keeps in
// flight. Each slot owns one segLen complex buffer, so the ring's
// working set stays O(segLen) regardless of capture length.
const maxFeedSlots = 4

// feedSlot is one in-flight segment: a transform buffer plus a
// WaitGroup the producer waits on before reducing the slot. The
// WaitGroup and the dispatch closure are both reusable — run is built
// once per slot, reading the ring's current plan and the slot's
// current buffer at call time — so steady-state feeding allocates
// nothing.
type feedSlot struct {
	fft []complex128
	wg  sync.WaitGroup
	run func()
}

// SlotRing is the ordered dispatch machinery PairFeed and Feed
// transform their segments through: segments are scattered into slots
// in arrival order, their butterflies may run concurrently on pool
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
// segment (FeedFinal) always joins that batch: Finish waits for it
// anyway, so handing it to a pool worker would only add a handoff.
// Per-segment results are bit-identical either way, and the FIFO
// reduction order never changes.
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
	inFlight int
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
// a producer that errored between Init and Finish: pending transforms
// are dropped and in-flight ones waited for, so no pool worker still
// writes a slot buffer once Settle returns. The next Init settles
// implicitly; an owner about to release the ring's arena calls it on
// its error paths.
func (r *SlotRing) Settle() {
	for _, sl := range r.pending {
		sl.wg.Done()
	}
	r.pending = r.pending[:0]
	for ; r.inFlight > 0; r.inFlight-- {
		r.slots[r.head].wg.Wait()
		r.head = (r.head + 1) % len(r.slots)
	}
}

// next returns the slot the caller should scatter the next segment
// into, draining the oldest in-flight slot first if the ring is full
// and carving the slot's buffer on its first use this epoch.
func (r *SlotRing) next(reduce func(f []complex128, first bool)) *feedSlot {
	if r.inFlight == len(r.slots) {
		r.drainOne(reduce)
	}
	sl := &r.slots[(r.head+r.inFlight)%len(r.slots)]
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

// dispatch hands a scattered slot to the pool for its butterflies,
// parking it for the next batch sweep when no worker slot is free — or
// unconditionally when it is the feed's final segment, which the
// producer is about to wait for anyway.
func (r *SlotRing) dispatch(sl *feedSlot, final bool) {
	sl.wg.Add(1)
	mFFTSegments.Inc()
	if final || !r.pool.Go(sl.run) {
		r.pending = append(r.pending, sl)
	}
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

// PairFeed is the streaming form of WelchPairInto: the caller pushes
// full segments of the real pair (already 50%-overlapped — the caller
// owns the rolling window), the feed transforms them — possibly
// several concurrently on pool workers — and accumulates periodograms
// and cross-spectrum in strict arrival order into the destinations
// given at Init. Finish applies the Welch normalization. Because the
// feed and WelchPairInto share every per-segment primitive and the
// reduction is FIFO, a feed produces bit-identical results to the
// buffered call on the same segment sequence.
//
// A PairFeed is NOT safe for concurrent use by multiple producers.
type PairFeed struct {
	s      *WelchScratch
	ring   *SlotRing
	pa, pb []float64
	cross  []complex128
	fs     float64
	// reduce is allocated once on first Init and reads the feed's
	// current fields, so re-initializing reuses it.
	reduce func(f []complex128, first bool)
}

// Init readies the feed to accumulate into pa, pb and cross (all
// segLen long), transforming through ring. It may be called repeatedly
// on one PairFeed, and ring may be shared with other feeds that run
// before or after this one (see SlotRing). The ring's slot buffers are
// carved from mem when non-nil (heap otherwise); the ring honours the
// arena epoch, re-carving after a Reset.
func (f *PairFeed) Init(s *WelchScratch, pa, pb []float64, cross []complex128, fs float64, ring *SlotRing, pool *workpool.Pool, mem *arena.Arena) error {
	if fs <= 0 {
		return fmt.Errorf("dsp: sample rate %g", fs)
	}
	if len(pa) != s.segLen || len(pb) != s.segLen || len(cross) != s.segLen {
		return fmt.Errorf("dsp: Welch pair destination lengths %d/%d/%d, segment length %d",
			len(pa), len(pb), len(cross), s.segLen)
	}
	if ring == nil {
		return fmt.Errorf("dsp: nil slot ring")
	}
	f.s = s
	f.pa, f.pb, f.cross = pa, pb, cross
	f.fs = fs
	if f.reduce == nil {
		f.reduce = func(ft []complex128, first bool) {
			f.s.accumulatePair(f.pa, f.pb, f.cross, ft, first)
		}
	}
	f.ring = ring
	ring.init(s.segLen, s.plan, pool, mem)
	return nil
}

// Feed pushes one full segment (len(a) == len(b) == segLen) that more
// segments will follow. The segment contents are consumed before Feed
// returns — the caller may reuse a and b immediately — but the
// transform and reduction may complete later, on a pool worker.
func (f *PairFeed) Feed(a, b []float64) error { return f.feed(a, b, false) }

// FeedFinal pushes the capture's last segment, like Feed, but
// transforms it on the producer (batched with any pool-refused
// transforms) when Finish drains: Finish waits for it anyway.
func (f *PairFeed) FeedFinal(a, b []float64) error { return f.feed(a, b, true) }

func (f *PairFeed) feed(a, b []float64, final bool) error {
	if len(a) != f.s.segLen || len(b) != f.s.segLen {
		return fmt.Errorf("dsp: Welch pair segment lengths %d/%d, segment length %d", len(a), len(b), f.s.segLen)
	}
	sl := f.ring.next(f.reduce)
	f.s.scatterPair(sl.fft, a, b)
	f.ring.dispatch(sl, final)
	return nil
}

// Finish drains every in-flight transform and applies the Welch
// normalization. At least one segment must have been fed.
func (f *PairFeed) Finish() error {
	f.ring.drainAll(f.reduce)
	if f.ring.count == 0 {
		return fmt.Errorf("dsp: Welch pair feed finished with no segments")
	}
	f.s.finishScalePair(f.pa, f.pb, f.cross, f.fs, f.ring.count)
	return nil
}

// Feed is the streaming form of WelchInto for a single complex stream:
// push full (50%-overlapped) segments, then Finish. Same ordering and
// bit-identity guarantees as PairFeed.
//
// A Feed is NOT safe for concurrent use by multiple producers.
type Feed struct {
	s    *WelchScratch
	ring *SlotRing
	dst  []float64
	fs   float64
	// reduce is allocated once on first Init and reads the feed's
	// current fields, so re-initializing reuses it.
	reduce func(f []complex128, first bool)
}

// Init readies the feed to accumulate into dst (segLen long),
// transforming through ring (see PairFeed.Init).
func (f *Feed) Init(s *WelchScratch, dst []float64, fs float64, ring *SlotRing, pool *workpool.Pool, mem *arena.Arena) error {
	if fs <= 0 {
		return fmt.Errorf("dsp: sample rate %g", fs)
	}
	if len(dst) != s.segLen {
		return fmt.Errorf("dsp: Welch destination length %d, segment length %d", len(dst), s.segLen)
	}
	if ring == nil {
		return fmt.Errorf("dsp: nil slot ring")
	}
	f.s = s
	f.dst = dst
	f.fs = fs
	if f.reduce == nil {
		f.reduce = func(ft []complex128, first bool) {
			f.s.accumulate(f.dst, ft, first)
		}
	}
	f.ring = ring
	ring.init(s.segLen, s.plan, pool, mem)
	return nil
}

// Feed pushes one full segment (len(seg) == segLen) that more segments
// will follow. The segment is consumed before Feed returns; the caller
// may reuse it immediately.
func (f *Feed) Feed(seg []complex128) error { return f.feed(seg, false) }

// FeedFinal pushes the capture's last segment (see PairFeed.FeedFinal).
func (f *Feed) FeedFinal(seg []complex128) error { return f.feed(seg, true) }

func (f *Feed) feed(seg []complex128, final bool) error {
	if len(seg) != f.s.segLen {
		return fmt.Errorf("dsp: Welch segment length %d, segment length %d", len(seg), f.s.segLen)
	}
	sl := f.ring.next(f.reduce)
	f.s.scatter(sl.fft, seg)
	f.ring.dispatch(sl, final)
	return nil
}

// Finish drains every in-flight transform and applies the Welch
// normalization. At least one segment must have been fed.
func (f *Feed) Finish() error {
	f.ring.drainAll(f.reduce)
	if f.ring.count == 0 {
		return fmt.Errorf("dsp: Welch feed finished with no segments")
	}
	f.s.finishScale(f.dst, f.fs, f.ring.count)
	return nil
}
