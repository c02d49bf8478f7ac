package savat

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/machine"
)

// isolateScratches gives the test an empty process-wide scratch free
// list and restores the previous one afterwards.
func isolateScratches(t *testing.T) *scratchFreeList {
	t.Helper()
	prev := workerScratches
	workerScratches = &scratchFreeList{}
	t.Cleanup(func() { workerScratches = prev })
	return workerScratches
}

// checkFreeList fails when a scratch sits on the free list twice (two
// later campaigns would both get it) or the list outgrows its bound.
func checkFreeList(t *testing.T, l *scratchFreeList) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) > workerScratchCap {
		t.Errorf("free list holds %d scratches, bound %d", len(l.free), workerScratchCap)
	}
	seen := map[*MeasureScratch]bool{}
	for _, s := range l.free {
		if seen[s] {
			t.Fatalf("scratch %p is on the free list twice", s)
		}
		seen[s] = true
	}
}

func secondsConfig(d float64) Config {
	cfg := DefaultConfig()
	cfg.Duration = d
	return cfg
}

// One scratch reused across a measurement-shape change and back —
// every buffer then holds the previous shape's values in a capacity
// that may exceed the new shape — must give values bit-identical to
// fresh scratches. (The name predates the scratch free list: the
// reused scratch was once arena-backed, the fresh ones heap-backed.)
func TestMeasurerArenaMatchesHeap(t *testing.T) {
	mc := machine.Core2Duo()
	cfgA := FastConfig()
	cfgA.Duration = 1.0 / 16
	cfgB := cfgA
	cfgB.Duration = 1.0 / 32 // different capture length → different shape
	pairs := [][2]Event{{ADD, LDM}, {LDL2, STL2}, {ADD, ADD}}

	measure := func(m *Measurer, a, b Event) float64 {
		t.Helper()
		k, err := BuildKernel(mc, a, b, m.cfg.Frequency)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := m.MeasureKernelSeeds(k, CampaignSeeds(7, a, 0))
		if err != nil {
			t.Fatal(err)
		}
		return meas.SAVAT
	}

	// One scratch reused across every cell and every shape — exactly
	// how a campaign worker's pooled scratch lives.
	s := NewMeasureScratch()
	for _, step := range []struct {
		name string
		cfg  Config
	}{{"first shape", cfgA}, {"after shape change", cfgB}, {"after shape round-trip", cfgA}} {
		reused := NewMeasurer(mc, step.cfg, WithScratch(s))
		for _, p := range pairs {
			want := measure(NewMeasurer(mc, step.cfg), p[0], p[1])
			if got := measure(reused, p[0], p[1]); got != want {
				t.Errorf("%v/%v %s: reused scratch %g != fresh scratch %g (must be bit-identical)",
					p[0], p[1], step.name, got, want)
			}
		}
	}
}

// Concurrent row-mates with per-goroutine scratches sharing one
// SynthCache: the campaign worker topology. A scratch is single-owner
// state, but its buffers feed computations whose PUBLISHED products
// land in the shared cache — under -race (CI runs it) this asserts no
// scratch buffer leaks into cross-worker state, and every contended
// result must still be bit-identical to a cold run. (Named when each
// worker's buffers came from its own arena.)
func TestArenaWorkersConcurrentRowMates(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 16
	row := ADD
	cols := []Event{LDM, STM, MUL, DIV, NOI, LDL2}
	seeds := CampaignSeeds(42, row, 0)

	want := make([]float64, len(cols))
	for i, c := range cols {
		k, err := BuildKernel(mc, row, c, cfg.Frequency)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMeasurer(mc, cfg).MeasureKernelSeeds(k, seeds)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m.SAVAT
	}

	const lapsPerCol = 3
	cache := NewSynthCache(8)
	got := make([]float64, len(cols)*lapsPerCol)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := cols[g%len(cols)]
			k, err := BuildKernel(mc, row, c, cfg.Frequency)
			if err != nil {
				errs[g] = err
				return
			}
			m, err := NewMeasurer(mc, cfg, WithSynthCache(cache), WithScratch(NewMeasureScratch())).
				MeasureKernelSeeds(k, seeds)
			if err != nil {
				errs[g] = err
				return
			}
			got[g] = m.SAVAT
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if want[g%len(cols)] != got[g] {
			t.Errorf("goroutine %d (%v/%v): scratch worker %g != cold %g (must be bit-identical)",
				g, row, cols[g%len(cols)], got[g], want[g%len(cols)])
		}
	}
}

// After one 1 s capture cell — the paper's measurement, one 2^18-point
// Welch segment per product — a worker's scratch holds exactly one
// segment transform buffer, shared by the envelope and noise feeds,
// the band-length display sum, and the O(block) source blocks: no
// rolling segment windows, no second slot. (Named when that working
// set was carved from a per-worker arena.)
func TestOneSecondCellArenaHoldsOneSlot(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := DefaultConfig()
	k, err := BuildKernel(mc, ADD, LDM, cfg.Frequency)
	if err != nil {
		t.Fatal(err)
	}
	s := NewMeasureScratch()
	m, err := NewMeasurer(mc, cfg, WithScratch(s)).MeasureKernel(k, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	band := m.Trace.Band()
	seg := band.N
	if seg != 1<<18 {
		t.Fatalf("1 s capture analyzed in %d-point segments, want one 2^18-point segment", seg)
	}
	slot, sum := 16*seg, 8*len(band.PSD)
	held := s.specan.Footprint()
	if rest := held - slot - sum; rest <= 0 || rest > 256<<10 {
		t.Errorf("scratch holds %d bytes; want one %d-byte slot, a %d-byte display and at most 256 KiB of source blocks",
			held, slot, sum)
	}
}

// Back-to-back campaigns of different capture shapes in one process
// reuse the worker scratches through the free list, and every matrix
// equals the same campaign run alone on fresh scratches. (Named when
// the free list held arenas.)
func TestCampaignsBackToBackReuseArenas(t *testing.T) {
	mc := machine.Core2Duo()
	spec := func(d float64) CampaignSpec {
		return CampaignSpec{Machine: mc.Name, Config: secondsConfig(d), Events: []Event{ADD, LDM}, Repeats: 1, Seed: 3}
	}
	rt := CampaignOptions{Parallelism: 2}
	durations := []float64{0.25, 1, 0.25}

	list := isolateScratches(t)
	var got []*MatrixStats
	for i, d := range durations {
		ms, err := runSpec(spec(d), rt)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ms)
		checkFreeList(t, list)
		if i == 0 && len(list.free) == 0 {
			t.Fatal("campaign returned no scratch to the free list")
		}
	}

	for i, d := range durations {
		isolateScratches(t)
		alone, err := runSpec(spec(d), rt)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%g s campaign", d)
		matricesEqual(t, got[i], alone)
	}
}

// Concurrent campaigns of different shapes draw from one free list
// round after round: no scratch is ever held by both (under -race a
// shared buffer is a reported race; without it, corrupted values), and
// each matrix equals its campaign run alone. (Named when the free list
// held arenas.)
func TestConcurrentCampaignsNeverShareArenas(t *testing.T) {
	mc := machine.Core2Duo()
	spec := func(cfg Config) CampaignSpec {
		return CampaignSpec{Machine: mc.Name, Config: cfg, Events: []Event{ADD, LDM, MUL}, Repeats: 1, Seed: 9}
	}
	rt := CampaignOptions{Parallelism: 2}
	cfgs := []Config{secondsConfig(1.0 / 16), secondsConfig(1.0 / 8)}

	isolateScratches(t)
	want := make([]*MatrixStats, len(cfgs))
	for i, cfg := range cfgs {
		ms, err := runSpec(spec(cfg), rt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ms
	}

	list := isolateScratches(t)
	for round := 0; round < 3; round++ {
		got := make([]*MatrixStats, len(cfgs))
		errs := make([]error, len(cfgs))
		var wg sync.WaitGroup
		for i, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = runSpec(spec(cfg), rt)
			}()
		}
		wg.Wait()
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			matricesEqual(t, got[i], want[i])
		}
		checkFreeList(t, list)
	}
	if len(list.free) == 0 {
		t.Fatal("concurrent campaigns returned no scratch to the free list")
	}
}
