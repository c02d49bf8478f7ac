package dsp

import "math/bits"

// revTileBits is log2 of the tile edge of the cache-tiled bit reversal:
// a tile is 2^revTileBits rows of 2^revTileBits contiguous elements
// (256 B, four cache lines, per row), and the two tiles a step swaps
// fill an 8 KiB stack buffer. On a 2^18-point segment 16-element rows
// ran faster than 8, 32 or 64 (BenchmarkBitReverse).
const revTileBits = 4

// revTile[i] is i with its low revTileBits bits reversed.
var revTile = func() (t [1 << revTileBits]int) {
	for i := range t {
		t[i] = int(bits.Reverse64(uint64(i)) >> (64 - revTileBits))
	}
	return t
}()

// bitReverse permutes x, whose length is a power of two, into
// bit-reversed order in place: x[i] and x[reverse(i)] trade places. It
// moves values and does no arithmetic, so a segment windowed in natural
// order and then reversed holds exactly the bits a windowed scatter
// into reversed places would have written.
//
// Long inputs take the cache-tiled route (COBRA: Carter & Gatlin,
// FOCS 1998): writing an index as (a, c, d) — its top and bottom
// revTileBits bits a and d around a middle c — reversal maps
// (a, c, d) to (rev d, rev c, rev a), so the tile of middle c, 2^b
// runs of 2^b contiguous elements, lands whole on the tile of middle
// rev c. Each pair of tiles is copied run by run into a buffer and
// written back run by run, reversed, so every cache line of the input
// is read once and written once instead of being missed once per
// element as a scattered walk misses it.
func bitReverse(x []complex128) {
	m := bits.TrailingZeros(uint(len(x)))
	if m < 2*revTileBits {
		shift := 64 - uint(m)
		for i := 1; i < len(x); i++ {
			if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
				x[i], x[j] = x[j], x[i]
			}
		}
		return
	}
	bitReverseTiled(x, m)
}

// bitReverseTiled is bitReverse for a 2^m-element x, m ≥ 2·revTileBits.
func bitReverseTiled(x []complex128, m int) {
	const edge = 1 << revTileBits
	const area = edge * edge
	var buf [2 * area]complex128
	mid := uint(m - 2*revTileBits)
	rowStride := 1 << (m - revTileBits)
	for c := 0; c < 1<<mid; c++ {
		rc := 0
		if mid > 0 {
			rc = int(bits.Reverse64(uint64(c)) >> (64 - mid))
		}
		if rc < c {
			continue // swapped when the loop was at rc
		}
		loadTile(buf[:area], x, c*edge, rowStride)
		if rc == c {
			storeTile(x, rc*edge, rowStride, buf[:area])
			continue
		}
		loadTile(buf[area:], x, rc*edge, rowStride)
		storeTile(x, rc*edge, rowStride, buf[:area])
		storeTile(x, c*edge, rowStride, buf[area:])
	}
}

// loadTile copies the tile whose rows start at x[off + a·rowStride]
// into t, row a to t[a·edge:].
func loadTile(t, x []complex128, off, rowStride int) {
	const edge = 1 << revTileBits
	for a := 0; a < edge; a++ {
		copy(t[a*edge:][:edge], x[off+a*rowStride:][:edge])
	}
}

// storeTile writes t, reversed, to the tile whose rows start at
// x[off + r·rowStride]: element s of row r is t[rev s · edge + rev r].
func storeTile(x []complex128, off, rowStride int, t []complex128) {
	const edge = 1 << revTileBits
	for r, rr := range revTile {
		row := x[off+r*rowStride:][:edge]
		for s := range row {
			row[s] = t[revTile[s]*edge+rr]
		}
	}
}
