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
// Welch segment per product — a worker's arena holds the two envelope
// windows, the noise window, the display sum, and exactly one in-flight
// transform buffer, shared by the envelope and noise feeds (it used to
// carve four slots per feed: eight 4 MiB buffers).
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
	seg := len(m.Trace.Spectrum.PSD)
	if seg != 1<<18 {
		t.Fatalf("1 s capture analyzed in %d-point segments, want one 2^18-point segment", seg)
	}
	windows := 8*seg + 8*seg + 16*seg // wa, wb (real envelopes), wn (complex noise)
	sum := 8 * seg
	slots := mem.InUse() - windows - sum
	if slot := 16 * seg; slots != slot {
		t.Errorf("arena holds %d bytes of transform slots, want one %d-byte slot", slots, slot)
	}
}

// Back-to-back campaigns of different capture shapes in one process
// reuse the worker arenas through the free list — each new shape
// resets them — and every matrix equals the same campaign run alone on
// fresh arenas.
func TestCampaignsBackToBackReuseArenas(t *testing.T) {
	mc := machine.Core2Duo()
	opts := CampaignOptions{Events: []Event{ADD, LDM}, Repeats: 1, Seed: 3, Parallelism: 2}
	durations := []float64{0.25, 1, 0.25}

	list := isolateArenas(t)
	var got []*MatrixStats
	for i, d := range durations {
		ms, err := RunCampaign(mc, secondsConfig(d), opts)
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
		alone, err := RunCampaign(mc, secondsConfig(d), opts)
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
	opts := CampaignOptions{Events: []Event{ADD, LDM, MUL}, Repeats: 1, Seed: 9, Parallelism: 2}
	cfgs := []Config{secondsConfig(1.0 / 16), secondsConfig(1.0 / 8)}

	isolateArenas(t)
	want := make([]*MatrixStats, len(cfgs))
	for i, cfg := range cfgs {
		ms, err := RunCampaign(mc, cfg, opts)
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
				got[i], errs[i] = RunCampaign(mc, cfg, opts)
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
