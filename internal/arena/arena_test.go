package arena

import "testing"

// Carved slices must be full-length, zeroed, and capacity-clipped so an
// append cannot silently run into the next carve.
func TestCarveContract(t *testing.T) {
	a := New()
	f := a.Floats(3)
	if len(f) != 3 || cap(f) != 3 {
		t.Fatalf("Floats(3): len %d cap %d, want 3/3", len(f), cap(f))
	}
	for i := range f {
		if f[i] != 0 {
			t.Fatalf("Floats carve not zeroed at %d", i)
		}
		f[i] = float64(i + 1)
	}
	g := a.Floats(4)
	for i := range g {
		if g[i] != 0 {
			t.Fatalf("second carve not zeroed at %d (saw neighbour's %g)", i, g[i])
		}
	}
	for i := range f {
		if f[i] != float64(i+1) {
			t.Fatalf("second carve overlapped the first at %d", i)
		}
	}
	c := a.Complexes(5)
	if len(c) != 5 || cap(c) != 5 {
		t.Fatalf("Complexes(5): len %d cap %d, want 5/5", len(c), cap(c))
	}
}

// Reset must advance the epoch and rewind: post-reset carves reuse the
// slab memory the pre-reset carves held.
func TestResetRewindsAndAdvancesGen(t *testing.T) {
	a := New()
	if a.Gen() != 1 {
		t.Fatalf("fresh Gen = %d, want 1 (so zero-valued consumer gens never match)", a.Gen())
	}
	before := a.Floats(8)
	before[0] = 42
	g := a.Gen()
	a.Reset()
	if a.Gen() != g+1 {
		t.Fatalf("Gen after Reset = %d, want %d", a.Gen(), g+1)
	}
	after := a.Floats(8)
	if &before[0] != &after[0] {
		t.Error("post-reset carve did not reuse the rewound slab")
	}
	if after[0] != 0 {
		t.Error("post-reset carve carries the previous epoch's values")
	}
}

// A warmed arena must stop allocating: after one shape repeats, the
// footprint is stable across reset/carve cycles.
func TestFootprintStabilizes(t *testing.T) {
	a := New()
	shape := func() {
		a.Reset()
		a.Floats(3000)
		a.Complexes(5000)
		a.Floats(100)
	}
	shape()
	shape()
	warm := a.Footprint()
	for i := 0; i < 10; i++ {
		shape()
	}
	if a.Footprint() != warm {
		t.Errorf("footprint grew from %d to %d across identical epochs", warm, a.Footprint())
	}
}

// A nil arena must be a valid receiver everywhere, falling back to the
// heap, so consumers thread it unconditionally.
func TestNilArena(t *testing.T) {
	var a *Arena
	if a.Gen() != 0 {
		t.Errorf("nil Gen = %d, want 0", a.Gen())
	}
	a.Reset() // must not panic
	if f := a.Floats(4); len(f) != 4 {
		t.Errorf("nil Floats(4) len = %d", len(f))
	}
	if c := a.Complexes(4); len(c) != 4 {
		t.Errorf("nil Complexes(4) len = %d", len(c))
	}
	if a.Footprint() != 0 {
		t.Errorf("nil Footprint = %d", a.Footprint())
	}
}

// Oversized carves must work mid-epoch (slab growth) and zero-length
// carves must be harmless.
func TestGrowthAndEdgeSizes(t *testing.T) {
	a := New()
	small := a.Floats(minSlab / 2)
	big := a.Floats(4 * minSlab) // forces a new slab mid-epoch
	small[0], big[0] = 1, 2
	if small[0] != 1 || big[0] != 2 {
		t.Fatal("carves from different slabs interfere")
	}
	if z := a.Floats(0); len(z) != 0 {
		t.Errorf("Floats(0) len = %d", len(z))
	}
	if z := a.Complexes(0); len(z) != 0 {
		t.Errorf("Complexes(0) len = %d", len(z))
	}
}

// InUse counts the bytes carved this epoch, across slab growth, and
// Reset zeroes it while Footprint keeps the capacity.
func TestInUse(t *testing.T) {
	a := New()
	a.Floats(minSlab / 2)
	a.Floats(4 * minSlab) // new slab mid-epoch
	a.Complexes(3)
	if got, want := a.InUse(), 8*(minSlab/2+4*minSlab)+16*3; got != want {
		t.Errorf("InUse = %d, want %d", got, want)
	}
	fp := a.Footprint()
	a.Reset()
	if a.InUse() != 0 || a.Footprint() != fp {
		t.Errorf("after Reset: InUse %d, Footprint %d (want 0, %d)", a.InUse(), a.Footprint(), fp)
	}
	var nilArena *Arena
	if nilArena.InUse() != 0 {
		t.Error("nil InUse != 0")
	}
}
