package dsp

import (
	"math/rand"
	"testing"
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

// A one-segment capture touches one slot: the ring allocates a slot's
// buffer when it first hands the slot out, so a one-segment PairFeed
// leaves the ring holding exactly one segment buffer, and a one-segment
// Feed run after it on the same ring reuses that buffer and allocates
// nothing.
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

	var ring SlotRing
	var pf PairFeed
	if err := pf.Init(ws, seg, band, pa, pb, cross, 1, &ring); err != nil {
		t.Fatal(err)
	}
	if got := ring.Footprint(); got != 0 {
		t.Fatalf("Init allocated %d bytes; slots must be allocated on first use", got)
	}
	pushPair(t, &pf, a, b, 1000)
	if err := pf.Finish(); err != nil {
		t.Fatal(err)
	}
	one := 16 * seg
	if got := ring.Footprint(); got != one {
		t.Errorf("one-segment PairFeed left the ring holding %d bytes, want one segment buffer (%d)", got, one)
	}
	slot := heldSlots(&ring)

	var f Feed
	if err := f.Init(ws, seg, band, dst, 1, &ring); err != nil {
		t.Fatal(err)
	}
	push(&f, x, 1000)
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := ring.Footprint(); got != one {
		t.Errorf("one-segment Feed on the shared ring grew it to %d bytes, want %d", got, one)
	}
	if again := heldSlots(&ring); len(again) != 1 || again[0] != slot[0] {
		t.Error("one-segment Feed did not reuse the PairFeed's slot buffer")
	}
}

// heldSlots returns the first element of every slot buffer the ring
// holds, identifying each buffer by its backing array.
func heldSlots(r *SlotRing) []*complex128 {
	var held []*complex128
	for i := range r.slots {
		if cap(r.slots[i]) > 0 {
			held = append(held, &r.slots[i][:1][0])
		}
	}
	return held
}

// Feeds of 1 to 6 segments (plus a dropped tail) through one shared
// ring — the pair feed, then the single-stream feed, as specan runs
// them — give bins bit-identical to the buffered WelchPairInto and
// WelchInto over every band, on a fresh ring or one whose slots a
// longer capture already holds, and for blocks that straddle the
// half-segment boundaries. Whatever the capture length, the ring holds
// at most two segment buffers: the segment being closed and the one
// being opened.
func TestSharedRingFeedsMatchBuffered(t *testing.T) {
	const seg = 256
	const half = seg / 2
	ws, err := NewWelchScratch(seg, Hann)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	bands := []Band{{0, half + 1}, {0, 1}, {half, half + 1}, {37, 60}}
	stale := make([]complex128, seg+4*half)
	for i := range stale {
		stale[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for segs := 1; segs <= 6; segs++ {
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
			for _, warm := range []bool{false, true} {
				var ring SlotRing
				if warm {
					warmRing(t, ws, &ring, stale)
				}
				m := band.Len()
				pa, pb, cross := make([]float64, m), make([]float64, m), make([]complex128, m)
				var pf PairFeed
				if err := pf.Init(ws, n, band, pa, pb, cross, 7, &ring); err != nil {
					t.Fatal(err)
				}
				block := []int{n, half, 37}[bi%3]
				pushPair(t, &pf, a, b, block)
				if err := pf.Finish(); err != nil {
					t.Fatal(err)
				}

				dst := make([]float64, m)
				var f Feed
				if err := f.Init(ws, n, band, dst, 7, &ring); err != nil {
					t.Fatal(err)
				}
				push(&f, x, block)
				if err := f.Finish(); err != nil {
					t.Fatal(err)
				}

				for i := 0; i < m; i++ {
					k := band.Lo + i
					if pa[i] != wantPA[k] || pb[i] != wantPB[k] || cross[i] != wantCross[k] {
						t.Fatalf("%d segments, band %v, warm ring %v: pair bin %d differs from WelchPairInto",
							segs, band, warm, k)
					}
					if dst[i] != wantN[k] {
						t.Fatalf("%d segments, band %v, warm ring %v: bin %d differs from WelchInto",
							segs, band, warm, k)
					}
				}
				want := min(segs, 2)
				if warm {
					want = 2
				}
				if got := ring.Footprint(); got != want*16*seg {
					t.Errorf("%d segments, warm ring %v: ring holds %d bytes of slots, want %d slots (%d bytes)",
						segs, warm, got, want, want*16*seg)
				}
			}
		}
	}
}

// warmRing runs a capture of x through ring, leaving every slot holding a
// segment buffer whose contents a later feed must fully overwrite.
func warmRing(t *testing.T, ws *WelchScratch, ring *SlotRing, x []complex128) {
	t.Helper()
	var f Feed
	if err := f.Init(ws, len(x), Band{0, 1}, make([]float64, 1), 1, ring); err != nil {
		t.Fatal(err)
	}
	push(&f, x, len(x))
	if err := f.Finish(); err != nil {
		t.Fatal(err)
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
		if err := f.Init(ws, c.n, c.band, dst, c.fs, &ring); err == nil {
			t.Errorf("%s: Init accepted", c.name)
		}
	}
	if err := f.Init(ws, 2*seg, Band{0, 4}, dst, 1, &ring); err != nil {
		t.Fatal(err)
	}
	f.Push(make([]complex128, seg+seg/4)) // one segment of three, and a bit
	if err := f.Finish(); err == nil {
		t.Error("Finish accepted a capture that ended before its last segment")
	}
}

// A feed abandoned mid-capture (its producer errored before Finish,
// with a segment half loaded) is settled by the next Init: the walk
// starts over and the ring serves the next feed bit-identically.
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
	if err := f.Init(ws, len(x), band, dst, 1, &ring); err != nil {
		t.Fatal(err)
	}
	f.Push(x[:len(x)-seg/4])

	if err := f.Init(ws, seg, band, dst, 1, &ring); err != nil {
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
