package dsp

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/workpool"
)

// pushPair pushes a and b through f in blocks of block samples.
func pushPair(t *testing.T, f *PairFeed, a, b []float64, block int) {
	t.Helper()
	for off := 0; off < len(a); off += block {
		end := min(off+block, len(a))
		if err := f.Push(a[off:end], b[off:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// push pushes x through f in blocks of block samples.
func push(f *Feed, x []complex128, block int) {
	for off := 0; off < len(x); off += block {
		f.Push(x[off:min(off+block, len(x))])
	}
}

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
	band := Band{Lo: 100, Hi: 200}
	pa, pb, cross := make([]float64, band.Len()), make([]float64, band.Len()), make([]complex128, band.Len())
	dst := make([]float64, band.Len())

	mem := arena.New()
	var ring SlotRing
	var pf PairFeed
	if err := pf.Init(ws, seg, band, pa, pb, cross, 1, &ring, workpool.New(2), mem); err != nil {
		t.Fatal(err)
	}
	if got := mem.Footprint(); got != 0 {
		t.Fatalf("Init carved %d bytes; slots must be carved on first use", got)
	}
	pushPair(t, &pf, a, b, 1000)
	if err := pf.Finish(); err != nil {
		t.Fatal(err)
	}
	one := 16 * seg
	if got := mem.Footprint(); got != one {
		t.Errorf("one-segment PairFeed grew the arena by %d bytes, want one segment buffer (%d)", got, one)
	}

	var f Feed
	if err := f.Init(ws, seg, band, dst, 1, &ring, workpool.New(2), mem); err != nil {
		t.Fatal(err)
	}
	push(&f, x, 1000)
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Footprint(); got != one {
		t.Errorf("one-segment Feed on the shared ring grew the arena to %d bytes, want %d", got, one)
	}
}

// Feeds of 1 to maxFeedSlots+2 segments (plus a dropped tail) through
// one shared ring — the pair feed, then the single-stream feed, as
// specan runs them — give bins bit-identical to the buffered
// WelchPairInto and WelchInto over every band, whether the pool runs
// transforms concurrently or refuses them all, with heap or arena
// slots, and for blocks that straddle the half-segment boundaries.
func TestSharedRingFeedsMatchBuffered(t *testing.T) {
	const seg = 256
	const half = seg / 2
	ws, err := NewWelchScratch(seg, Hann)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	bands := []Band{{0, half + 1}, {0, 1}, {half, half + 1}, {37, 60}}
	for segs := 1; segs <= maxFeedSlots+2; segs++ {
		n := seg + (segs-1)*half + half/3
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

		for bi, band := range bands {
			for _, pool := range []*workpool.Pool{workpool.New(0), workpool.New(3)} {
				for _, mem := range []*arena.Arena{nil, arena.New()} {
					var ring SlotRing
					m := band.Len()
					pa, pb, cross := make([]float64, m), make([]float64, m), make([]complex128, m)
					var pf PairFeed
					if err := pf.Init(ws, n, band, pa, pb, cross, 7, &ring, pool, mem); err != nil {
						t.Fatal(err)
					}
					block := []int{n, half, 37}[bi%3]
					pushPair(t, &pf, a, b, block)
					if err := pf.Finish(); err != nil {
						t.Fatal(err)
					}

					dst := make([]float64, m)
					var f Feed
					if err := f.Init(ws, n, band, dst, 7, &ring, pool, mem); err != nil {
						t.Fatal(err)
					}
					push(&f, x, block)
					if err := f.Finish(); err != nil {
						t.Fatal(err)
					}

					for i := 0; i < m; i++ {
						k := band.Lo + i
						if pa[i] != wantPA[k] || pb[i] != wantPB[k] || cross[i] != wantCross[k] {
							t.Fatalf("%d segments, band %v, pool cap %d, arena %v: pair bin %d differs from WelchPairInto",
								segs, band, pool.Cap(), mem != nil, k)
						}
						if dst[i] != wantN[k] {
							t.Fatalf("%d segments, band %v, pool cap %d, arena %v: bin %d differs from WelchInto",
								segs, band, pool.Cap(), mem != nil, k)
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
}

// Bad shapes are refused at Init, and a capture that stops short of its
// last segment fails at Finish.
func TestFeedErrors(t *testing.T) {
	const seg = 64
	ws, err := NewWelchScratch(seg, Hann)
	if err != nil {
		t.Fatal(err)
	}
	var ring SlotRing
	var f Feed
	dst := make([]float64, 4)
	for _, c := range []struct {
		name string
		n    int
		band Band
		fs   float64
	}{
		{"short capture", seg - 1, Band{0, 4}, 1},
		{"band past Nyquist", seg, Band{seg/2 - 2, seg/2 + 2}, 1},
		{"negative band", seg, Band{-1, 3}, 1},
		{"band length", seg, Band{0, 5}, 1},
		{"sample rate", seg, Band{0, 4}, 0},
	} {
		if err := f.Init(ws, c.n, c.band, dst, c.fs, &ring, nil, nil); err == nil {
			t.Errorf("%s: Init accepted", c.name)
		}
	}
	if err := f.Init(ws, 2*seg, Band{0, 4}, dst, 1, &ring, nil, nil); err != nil {
		t.Fatal(err)
	}
	f.Push(make([]complex128, seg+seg/4)) // one segment of three, and a bit
	if err := f.Finish(); err == nil {
		t.Error("Finish accepted a capture that ended before its last segment")
	}
	if ring.inFlight != 0 || ring.open != 0 || len(ring.pending) != 0 {
		t.Errorf("after a failed Finish: %d in flight, %d open, %d pending", ring.inFlight, ring.open, len(ring.pending))
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
	x := make([]complex128, 4*seg)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := make([]float64, seg)
	if err := ws.WelchInto(want, x[:seg], 1); err != nil {
		t.Fatal(err)
	}

	var ring SlotRing
	var f Feed
	band := Band{0, seg/2 + 1}
	dst := make([]float64, band.Len())
	if err := f.Init(ws, len(x), band, dst, 1, &ring, workpool.New(2), nil); err != nil {
		t.Fatal(err)
	}
	f.Push(x[:len(x)-seg/4])
	ring.Settle()
	if ring.inFlight != 0 || ring.open != 0 || len(ring.pending) != 0 {
		t.Fatalf("after Settle: %d in flight, %d open, %d pending", ring.inFlight, ring.open, len(ring.pending))
	}

	if err := f.Init(ws, seg, band, dst, 1, &ring, workpool.New(2), nil); err != nil {
		t.Fatal(err)
	}
	f.Push(x[:seg])
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("bin %d after a settled feed differs from WelchInto", i)
		}
	}
}
