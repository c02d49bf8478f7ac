// Package arena provides a per-worker bump allocator for the
// measurement working set: one slab per element type, carved
// sequentially, rewound in O(1) when the measurement shape changes.
//
// The campaign engine gives each worker one Arena (see
// savat.WithArena); the worker's MeasureScratch and specan.Scratch
// carve their shape-dependent working buffers — rolling Welch windows,
// in-flight segment transforms, the display accumulator, the buffered
// noise capture — from it instead of the heap. Steady-state cell
// compute then performs zero heap allocations (cmd/benchguard
// -zeroalloc enforces this), the whole working set lives in one
// contiguous block the GC scans as a single object, and buffers a
// worker touches together sit together.
//
// # Lifetime rules
//
// An Arena has exactly one owner (it is NOT safe for concurrent use)
// and advances through epochs:
//
//   - Reset starts a new epoch: the generation counter advances and
//     the slabs rewind. Every slice carved in an earlier epoch is
//     dead — the next epoch will hand the same memory to someone else.
//     Reset may only be called at a point where no carved buffer is
//     live (savat resets when the measurement shape changes, before
//     any working buffer of the new shape is carved).
//   - Consumers that cache carved slices across calls must remember
//     Gen() at carve time and re-carve when it changes, even if the
//     cached slice looks big enough — capacity says nothing about
//     epoch. The pattern is: on epoch change, drop every cached slice;
//     then carve on demand.
//   - Reset on return to the free list. An owner that hands its arena
//     on — savat's campaigns return worker arenas to a process-wide
//     free list so the next campaign's workers start warm — resets it
//     first, once nothing carved from it is live any more (after every
//     worker using it has stopped). The next owner therefore starts a
//     fresh epoch: nothing it caches from the previous owner's carves
//     can match Gen, and the arena is never held by two owners at once.
//   - Buffers that outlive epochs — cached synthesis products, traces
//     copied out by callers — must NOT come from an arena. savat's
//     product caches allocate their published buffers on the heap for
//     exactly this reason.
//
// A nil *Arena is a valid receiver for the carving methods and falls
// back to plain heap allocation, so consumers can be threaded
// unconditionally and pay nothing when no arena is installed.
package arena

// minSlab is the smallest slab grown on first use, in elements. Small
// enough that a stray tiny workload wastes nothing meaningful, large
// enough that typical Welch segments (≤ 64k) need one growth step.
const minSlab = 1024

// Arena is the typed bump allocator. The zero value is ready to use;
// New is provided for symmetry with the rest of the codebase.
type Arena struct {
	gen       uint64
	floats    []float64
	complexes []complex128
	fOff      int
	cOff      int
	used      int // bytes carved this epoch
}

// New returns an empty arena; slabs are sized on first carve.
func New() *Arena { return &Arena{} }

// Gen returns the current epoch. It starts at 1 on a fresh arena so a
// consumer's zero-valued remembered generation never matches — the
// first use always carves. Gen on a nil arena returns 0.
func (a *Arena) Gen() uint64 {
	if a == nil {
		return 0
	}
	return a.gen + 1
}

// Reset starts a new epoch: slabs rewind to empty, capacity is
// retained, and Gen advances. Every slice carved before the Reset is
// dead (see the package lifetime rules). Reset on a nil arena is a
// no-op.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.gen++
	a.fOff, a.cOff = 0, 0
	a.used = 0
}

// Floats carves an n-element float64 slice (full, zeroed, capacity
// clipped to n so appends cannot silently overlap a neighbour). On a
// nil arena it heap-allocates.
func (a *Arena) Floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if a.fOff+n > len(a.floats) {
		a.floats = make([]float64, grownSlab(len(a.floats), n))
		a.fOff = 0 // earlier carves keep the old slab alive themselves
	}
	s := a.floats[a.fOff : a.fOff+n : a.fOff+n]
	a.fOff += n
	a.used += 8 * n
	clear(s) // rewound slabs carry the previous epoch's values
	return s
}

// Complexes carves an n-element complex128 slice with the same
// contract as Floats.
func (a *Arena) Complexes(n int) []complex128 {
	if a == nil {
		return make([]complex128, n)
	}
	if a.cOff+n > len(a.complexes) {
		a.complexes = make([]complex128, grownSlab(len(a.complexes), n))
		a.cOff = 0
	}
	s := a.complexes[a.cOff : a.cOff+n : a.cOff+n]
	a.cOff += n
	a.used += 16 * n
	clear(s)
	return s
}

// InUse returns the bytes carved in the current epoch — the working
// set the owner has actually touched since the last Reset, independent
// of how the slabs grew to hold it (for tests and diagnostics).
func (a *Arena) InUse() int {
	if a == nil {
		return 0
	}
	return a.used
}

// Footprint returns the arena's current slab capacity in bytes (for
// tests and diagnostics).
func (a *Arena) Footprint() int {
	if a == nil {
		return 0
	}
	return 8*len(a.floats) + 16*len(a.complexes)
}

// grownSlab doubles the slab until the pending carve fits, so a warmed
// arena stops growing and every carve of an epoch lands in one block.
func grownSlab(cur, need int) int {
	sz := cur
	if sz < minSlab {
		sz = minSlab
	}
	for sz < need {
		sz *= 2
	}
	if sz < 2*cur {
		sz = 2 * cur
	}
	return sz
}
