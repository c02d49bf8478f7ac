package dsp

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/workpool"
)

// A one-segment capture touches one slot: the ring carves a slot's
// buffer when it first hands the slot out, so a one-segment PairFeed
// grows its arena by exactly one segment buffer, and a one-segment Feed
// run after it on the same ring reuses that buffer and carves nothing.
func TestOneSegmentFeedCarvesOneSlot(t *testing.T) {
	const seg = 4096
	ws, err := NewWelchScratch(seg, Hann)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	a, b := make([]float64, seg), make([]float64, seg)
	x := make([]complex128, seg)
	for i := range a {
		a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	pa, pb, cross := make([]float64, seg), make([]float64, seg), make([]complex128, seg)
	dst := make([]float64, seg)

	mem := arena.New()
	var ring SlotRing
	var pf PairFeed
	if err := pf.Init(ws, pa, pb, cross, 1, &ring, workpool.New(2), mem); err != nil {
		t.Fatal(err)
	}
	if got := mem.Footprint(); got != 0 {
		t.Fatalf("Init carved %d bytes; slots must be carved on first use", got)
	}
	if err := pf.FeedFinal(a, b); err != nil {
		t.Fatal(err)
	}
	if err := pf.Finish(); err != nil {
		t.Fatal(err)
	}
	one := 16 * seg
	if got := mem.Footprint(); got != one {
		t.Errorf("one-segment PairFeed grew the arena by %d bytes, want one segment buffer (%d)", got, one)
	}

	var f Feed
	if err := f.Init(ws, dst, 1, &ring, workpool.New(2), mem); err != nil {
		t.Fatal(err)
	}
	if err := f.FeedFinal(x); err != nil {
		t.Fatal(err)
	}
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Footprint(); got != one {
		t.Errorf("one-segment Feed on the shared ring grew the arena to %d bytes, want %d", got, one)
	}
}

// Feeds of 1 to maxFeedSlots+2 segments through one shared ring — the
// pair feed, then the single-stream feed, as specan runs them — stay
// bit-identical to the buffered WelchPairInto and WelchInto, whether
// the pool runs transforms concurrently or refuses them all, and with
// heap or arena slots.
func TestSharedRingFeedsMatchBuffered(t *testing.T) {
	const seg = 256
	const half = seg / 2
	ws, err := NewWelchScratch(seg, Hann)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for segs := 1; segs <= maxFeedSlots+2; segs++ {
		n := seg + (segs-1)*half
		a, b := make([]float64, n), make([]float64, n)
		x := make([]complex128, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		wantPA, wantPB, wantCross := make([]float64, seg), make([]float64, seg), make([]complex128, seg)
		if err := ws.WelchPairInto(wantPA, wantPB, wantCross, a, b, 7); err != nil {
			t.Fatal(err)
		}
		wantN := make([]float64, seg)
		if err := ws.WelchInto(wantN, x, 7); err != nil {
			t.Fatal(err)
		}

		for _, pool := range []*workpool.Pool{workpool.New(0), workpool.New(3)} {
			for _, mem := range []*arena.Arena{nil, arena.New()} {
				var ring SlotRing
				pa, pb, cross := make([]float64, seg), make([]float64, seg), make([]complex128, seg)
				var pf PairFeed
				if err := pf.Init(ws, pa, pb, cross, 7, &ring, pool, mem); err != nil {
					t.Fatal(err)
				}
				for s := 0; s < segs; s++ {
					feed := pf.Feed
					if s == segs-1 {
						feed = pf.FeedFinal
					}
					if err := feed(a[s*half:s*half+seg], b[s*half:s*half+seg]); err != nil {
						t.Fatal(err)
					}
				}
				if err := pf.Finish(); err != nil {
					t.Fatal(err)
				}

				dst := make([]float64, seg)
				var f Feed
				if err := f.Init(ws, dst, 7, &ring, pool, mem); err != nil {
					t.Fatal(err)
				}
				for s := 0; s < segs; s++ {
					feed := f.Feed
					if s == segs-1 {
						feed = f.FeedFinal
					}
					if err := feed(x[s*half : s*half+seg]); err != nil {
						t.Fatal(err)
					}
				}
				if err := f.Finish(); err != nil {
					t.Fatal(err)
				}

				for k := 0; k < seg; k++ {
					if pa[k] != wantPA[k] || pb[k] != wantPB[k] || cross[k] != wantCross[k] {
						t.Fatalf("%d segments, pool cap %d, arena %v: pair bin %d differs from WelchPairInto",
							segs, pool.Cap(), mem != nil, k)
					}
					if dst[k] != wantN[k] {
						t.Fatalf("%d segments, pool cap %d, arena %v: bin %d differs from WelchInto",
							segs, pool.Cap(), mem != nil, k)
					}
				}
				if want := min(segs, maxFeedSlots); mem != nil && mem.InUse() != want*16*seg {
					t.Errorf("%d segments: arena holds %d bytes of slots, want %d slots (%d bytes)",
						segs, mem.InUse(), want, want*16*seg)
				}
			}
		}
	}
}

// A feed abandoned mid-capture (its producer errored before Finish)
// leaves nothing running once Settle returns, and the ring serves the
// next feed bit-identically.
func TestSettleAbandonedFeed(t *testing.T) {
	const seg = 256
	ws, err := NewWelchScratch(seg, Hann)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := make([]complex128, seg)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := make([]float64, seg)
	if err := ws.WelchInto(want, x, 1); err != nil {
		t.Fatal(err)
	}

	var ring SlotRing
	var f Feed
	dst := make([]float64, seg)
	if err := f.Init(ws, dst, 1, &ring, workpool.New(2), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Feed(x); err != nil {
			t.Fatal(err)
		}
	}
	ring.Settle()
	if ring.inFlight != 0 || len(ring.pending) != 0 {
		t.Fatalf("after Settle: %d in flight, %d pending", ring.inFlight, len(ring.pending))
	}

	if err := f.Init(ws, dst, 1, &ring, workpool.New(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := f.FeedFinal(x); err != nil {
		t.Fatal(err)
	}
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if dst[k] != want[k] {
			t.Fatalf("bin %d after a settled feed differs from WelchInto", k)
		}
	}
}
