package savat

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arena"
	"repro/internal/machine"
)

// isolateArenas gives the test an empty process-wide arena free list
// and restores the previous one afterwards.
func isolateArenas(t *testing.T) *arenaFreeList {
	t.Helper()
	prev := workerArenas
	workerArenas = &arenaFreeList{}
	t.Cleanup(func() { workerArenas = prev })
	return workerArenas
}

// checkFreeList fails when an arena sits on the free list twice (two
// later campaigns would both get it) or the list outgrows its bound.
func checkFreeList(t *testing.T, l *arenaFreeList) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) > workerArenaCap {
		t.Errorf("free list holds %d arenas, bound %d", len(l.free), workerArenaCap)
	}
	seen := map[*arena.Arena]bool{}
	for _, a := range l.free {
		if seen[a] {
			t.Fatalf("arena %p is on the free list twice", a)
		}
		seen[a] = true
	}
}

func secondsConfig(d float64) Config {
	cfg := DefaultConfig()
	cfg.Duration = d
	return cfg
}

// After one 1 s capture cell — the paper's measurement, one 2^18-point
// Welch segment per product — a worker's arena holds exactly one
// segment transform buffer, shared by the envelope and noise feeds,
// the band-length display sum, and the O(block) source blocks: no
// rolling segment windows, no second slot.
func TestOneSecondCellArenaHoldsOneSlot(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := DefaultConfig()
	k, err := BuildKernel(mc, ADD, LDM, cfg.Frequency)
	if err != nil {
		t.Fatal(err)
	}
	mem := arena.New()
	m, err := NewMeasurer(mc, cfg, WithArena(mem)).MeasureKernel(k, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	band := m.Trace.Band()
	seg := band.N
	if seg != 1<<18 {
		t.Fatalf("1 s capture analyzed in %d-point segments, want one 2^18-point segment", seg)
	}
	slot, sum := 16*seg, 8*len(band.PSD)
	if rest := mem.InUse() - slot - sum; rest <= 0 || rest > 256<<10 {
		t.Errorf("arena holds %d bytes; want one %d-byte slot, a %d-byte display and at most 256 KiB of source blocks",
			mem.InUse(), slot, sum)
	}
}

// Back-to-back campaigns of different capture shapes in one process
// reuse the worker arenas through the free list — each new shape
// resets them — and every matrix equals the same campaign run alone on
// fresh arenas.
func TestCampaignsBackToBackReuseArenas(t *testing.T) {
	mc := machine.Core2Duo()
	spec := func(d float64) CampaignSpec {
		return CampaignSpec{Machine: mc.Name, Config: secondsConfig(d), Events: []Event{ADD, LDM}, Repeats: 1, Seed: 3}
	}
	rt := CampaignOptions{Parallelism: 2}
	durations := []float64{0.25, 1, 0.25}

	list := isolateArenas(t)
	var got []*MatrixStats
	for i, d := range durations {
		ms, err := runSpec(spec(d), rt)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ms)
		checkFreeList(t, list)
		if i == 0 && len(list.free) == 0 {
			t.Fatal("campaign returned no arena to the free list")
		}
	}

	for i, d := range durations {
		isolateArenas(t)
		alone, err := runSpec(spec(d), rt)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%g s campaign", d)
		matricesEqual(t, got[i], alone)
	}
}

// Concurrent campaigns of different shapes draw from one free list
// round after round: no arena is ever held by both (under -race a
// shared slab is a reported race; without it, corrupted values), and
// each matrix equals its campaign run alone.
func TestConcurrentCampaignsNeverShareArenas(t *testing.T) {
	mc := machine.Core2Duo()
	spec := func(cfg Config) CampaignSpec {
		return CampaignSpec{Machine: mc.Name, Config: cfg, Events: []Event{ADD, LDM, MUL}, Repeats: 1, Seed: 9}
	}
	rt := CampaignOptions{Parallelism: 2}
	cfgs := []Config{secondsConfig(1.0 / 16), secondsConfig(1.0 / 8)}

	isolateArenas(t)
	want := make([]*MatrixStats, len(cfgs))
	for i, cfg := range cfgs {
		ms, err := runSpec(spec(cfg), rt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ms
	}

	list := isolateArenas(t)
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
		t.Fatal("concurrent campaigns returned no arena to the free list")
	}
}
