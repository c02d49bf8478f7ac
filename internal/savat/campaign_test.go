package savat

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
)

func matricesEqual(t *testing.T, a, b *MatrixStats) {
	t.Helper()
	for i := range a.Mean.Vals {
		for j := range a.Mean.Vals[i] {
			if a.Mean.Vals[i][j] != b.Mean.Vals[i][j] {
				t.Fatalf("mean cell (%d,%d) differs: %v vs %v", i, j, a.Mean.Vals[i][j], b.Mean.Vals[i][j])
			}
			if a.Cells[i][j] != b.Cells[i][j] {
				t.Fatalf("summary cell (%d,%d) differs: %+v vs %+v", i, j, a.Cells[i][j], b.Cells[i][j])
			}
		}
	}
}

// The acceptance scenario: a campaign killed partway via context
// cancellation and rerun over the same cache yields the same
// MatrixStats as an uninterrupted run with the same seed, and the
// resumed run serves every cell the killed one finished from the cache.
func TestRunCampaignContextCancelAndResume(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	opts := CampaignOptions{
		Events:  []Event{ADD, LDM},
		Repeats: 2,
		Seed:    7,
	}

	ref, err := RunCampaign(mc, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the campaign after the first finished cell.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan engine.ProgressEvent, 16)
	finished := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range ch {
			finished++
			cancel()
		}
	}()
	cache := engine.NewCache(64)
	killed := opts
	killed.Parallelism = 1
	killed.Monitor = ch
	killed.Cache = cache
	_, err = RunCampaignContext(ctx, mc, cfg, killed)
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if finished == 0 || finished == 8 {
		t.Fatalf("killed campaign finished %d of 8 cells, want a partial run", finished)
	}

	// Rerun over the same cache: the finished cells are served from it.
	resumed := opts
	resumed.Cache = cache
	res, err := RunCampaignContext(context.Background(), mc, cfg, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Cached != finished || res.Engine.Computed != 8-finished {
		t.Errorf("resumed campaign stats = %+v, want %d cached", res.Engine, finished)
	}
	matricesEqual(t, ref, res)
}

// Cells are keyed by event identity, so a campaign over a reordered
// event subset is served entirely from the cache, and campaign cells
// agree exactly with MeasurePair.
func TestRunCampaignCellIdentityCache(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	cache := engine.NewCache(64)
	opts := CampaignOptions{Events: []Event{ADD, LDM}, Repeats: 2, Seed: 3, Cache: cache}
	first, err := RunCampaign(mc, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Engine.Computed != 8 || first.Engine.Cached != 0 {
		t.Fatalf("first run engine stats = %+v", first.Engine)
	}

	opts.Events = []Event{LDM, ADD} // same pairs, different matrix positions
	second, err := RunCampaign(mc, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Engine.Cached != 8 || second.Engine.Computed != 0 {
		t.Fatalf("reordered run engine stats = %+v", second.Engine)
	}
	if first.Mean.MustAt(ADD, LDM) != second.Mean.MustAt(ADD, LDM) {
		t.Error("cell value differs across event orderings")
	}

	// Campaign cells and MeasurePair share seeds and kernels exactly.
	vals, _, err := NewMeasurer(mc, cfg).MeasurePair(ADD, LDM, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mean := (vals[0] + vals[1]) / 2
	if got := first.Mean.MustAt(ADD, LDM); got != mean {
		t.Errorf("campaign cell %v != MeasurePair mean %v", got, mean)
	}
}

// The Monitor event stream subsumes the removed per-pair Progress
// callback: tallying events by (Row, Col) recovers pair completion
// exactly, and the running Stats on the final event account for every
// cell.
func TestRunCampaignMonitorPairCompletion(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	const repeats = 2
	ch := make(chan engine.ProgressEvent, 16)
	events := 0
	pairsDone := 0
	var last engine.ProgressEvent
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		perPair := make(map[[2]int]int)
		for ev := range ch {
			events++
			last = ev
			p := [2]int{ev.Row, ev.Col}
			perPair[p]++
			if perPair[p] == repeats {
				pairsDone++
			}
		}
	}()
	opts := CampaignOptions{
		Events:  []Event{ADD, LDM},
		Repeats: repeats,
		Seed:    1,
		Monitor: ch,
	}
	if _, err := RunCampaign(mc, cfg, opts); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if pairsDone != 4 {
		t.Fatalf("derived %d finished pairs, want 4", pairsDone)
	}
	if events != 8 {
		t.Errorf("Monitor saw %d events, want 8 (cells)", events)
	}
	if last.Stats.Done != 8 || last.Stats.Total != 8 {
		t.Errorf("final event stats = %+v", last.Stats)
	}
	if last.Health.QueueDepth != 0 {
		t.Errorf("final event health = %+v", last.Health)
	}
}

// Early validation failures must still close the Monitor channel.
func TestRunCampaignContextClosesMonitorOnValidationError(t *testing.T) {
	ch := make(chan engine.ProgressEvent)
	done := make(chan struct{})
	go func() {
		for range ch {
		}
		close(done)
	}()
	_, err := RunCampaign(machine.Config{}, FastConfig(), CampaignOptions{Repeats: 1, Monitor: ch})
	if err == nil {
		t.Fatal("bad machine should fail")
	}
	<-done // hangs here if the channel was leaked open
}
