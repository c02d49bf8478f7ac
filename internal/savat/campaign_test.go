package savat

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/counter"
	"repro/internal/engine"
	"repro/internal/machine"
)

// runSpec runs a test campaign through RunSpecContext with a
// background context.
func runSpec(spec CampaignSpec, opts engine.Options) (*MatrixStats, error) {
	return RunSpecContext(context.Background(), spec, opts)
}

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
func TestRunSpecCancelAndResume(t *testing.T) {
	spec := CampaignSpec{Machine: "Core2Duo", Config: FastConfig(), Events: []Event{ADD, LDM}, Repeats: 2, Seed: 7}

	ref, err := runSpec(spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the campaign after the first finished cell. The reference
	// run left the spec's products in the process-wide layer, where they
	// would make every cell render-only and let the campaign finish
	// before the cancel lands; an empty layer makes the killed run
	// compute them, as a cold process does.
	withFreshSynths(t, synthBudget)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	finished := 0
	kill := func(engine.ProgressEvent) {
		finished++
		cancel()
	}
	cache := engine.NewCache(64)
	_, err = RunSpecContext(ctx, spec, engine.Options{Parallelism: 1, Monitor: kill, Cache: cache})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if finished == 0 || finished == 8 {
		t.Fatalf("killed campaign finished %d of 8 cells, want a partial run", finished)
	}

	// Rerun over the same cache: the finished cells are served from it.
	res, err := runSpec(spec, engine.Options{Cache: cache})
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
func TestRunSpecCellIdentityCache(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	opts := engine.Options{Cache: engine.NewCache(64)}
	spec := CampaignSpec{Machine: mc.Name, Config: cfg, Events: []Event{ADD, LDM}, Repeats: 2, Seed: 3}
	first, err := runSpec(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Engine.Computed != 8 || first.Engine.Cached != 0 {
		t.Fatalf("first run engine stats = %+v", first.Engine)
	}

	spec.Events = []Event{LDM, ADD} // same pairs, different matrix positions
	second, err := runSpec(spec, opts)
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

// The Monitor events subsume the removed per-pair Progress callback:
// tallying events by (Row, Col) recovers pair completion exactly, and
// the running Stats on the final event account for every cell.
func TestRunSpecMonitorPairCompletion(t *testing.T) {
	const repeats = 2
	events := 0
	pairsDone := 0
	var last engine.ProgressEvent
	perPair := make(map[[2]int]int)
	monitor := func(ev engine.ProgressEvent) {
		events++
		last = ev
		p := [2]int{ev.Row, ev.Col}
		perPair[p]++
		if perPair[p] == repeats {
			pairsDone++
		}
	}
	spec := CampaignSpec{Machine: "Core2Duo", Config: FastConfig(), Events: []Event{ADD, LDM}, Repeats: repeats, Seed: 1}
	if _, err := runSpec(spec, engine.Options{Monitor: monitor}); err != nil {
		t.Fatal(err)
	}
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

// rejectedSpecs are campaign specs that fail validation, each with the
// sentinel error it must fail with.
func rejectedSpecs() []struct {
	name string
	spec CampaignSpec
	want error
} {
	valid := CampaignSpec{Machine: "Core2Duo", Config: FastConfig(), Events: []Event{ADD, LDM}, Repeats: 1, Seed: 1}
	badCfg := FastConfig()
	badCfg.Duration = 0
	edit := func(f func(*CampaignSpec)) CampaignSpec {
		s := valid
		f(&s)
		return s
	}
	return []struct {
		name string
		spec CampaignSpec
		want error
	}{
		{"unknown machine", edit(func(s *CampaignSpec) { s.Machine = "Cray1" }), ErrUnknownMachine},
		{"zero repeats", edit(func(s *CampaignSpec) { s.Repeats = 0 }), ErrBadRepeats},
		{"invalid config", edit(func(s *CampaignSpec) { s.Config = badCfg }), ErrBadConfig},
		{"duplicate event", edit(func(s *CampaignSpec) { s.Events = []Event{ADD, LDM, ADD} }), ErrBadSpec},
	}
}

// Every rejected spec fails with its sentinel before the engine starts.
func TestRunCampaignErrors(t *testing.T) {
	for _, c := range rejectedSpecs() {
		if _, err := runSpec(c.spec, engine.Options{}); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// A spec rejected before the engine starts reports no progress.
func TestRunCampaignValidationErrorCallsNoMonitor(t *testing.T) {
	for _, c := range rejectedSpecs() {
		calls := 0
		monitor := func(engine.ProgressEvent) { calls++ }
		if _, err := RunSpecContext(context.Background(), c.spec, engine.Options{Monitor: monitor}); err == nil {
			t.Fatalf("%s: spec should fail", c.name)
		}
		if calls != 0 {
			t.Errorf("%s: Monitor called %d times for a rejected spec", c.name, calls)
		}
	}
}

// TestCellKeyMaterialMatchesFormat pins the cell keys a campaign builds
// from its shared prefix byte for byte to the one-call formula every
// stored cell was keyed with, over every machine, event pair, channel
// (the legacy empty name included) and a range of countermeasure
// chains, seeds and repetitions.
func TestCellKeyMaterialMatchesFormat(t *testing.T) {
	var chains []counter.Chain
	for _, texts := range [][]string{
		nil,
		{"noop-insert:0.2"},
		{"shuffle:4"},
		{"noise-gen:0.5"},
		{"supply-filter:0.3"},
		{"noop-insert:0.1", "shuffle:8", "noise-gen:1", "supply-filter:0.9"},
	} {
		c, err := counter.ParseChain(texts)
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, c)
	}
	events := ExtendedEvents()
	for _, mc := range machine.CaseStudyMachines() {
		for _, channel := range append([]string{""}, machine.ChannelNames()...) {
			for ci, chain := range chains {
				cfg := FastConfig()
				cfg.Channel, cfg.Countermeasures = channel, chain
				prefix := cellKeyPrefix(mc, cfg)
				for i, a := range events {
					for j, b := range events {
						seed := []int64{0, 7, -1, 1 << 62, -1 << 63}[(i+j+ci)%5]
						rep := (i * j) % 1001
						want := fmt.Sprintf("savat-cell/v4|machine=%+v|measure=%+v|pair=%v/%v|seed=%d|rep=%d",
							mc, cfg.Normalized(), a, b, seed, rep)
						if got := cellKeyMaterial(prefix, a, b, seed, rep); got != want {
							t.Fatalf("%s %q %v %v/%v: key\n%s\nwant\n%s", mc.Name, channel, chain, a, b, got, want)
						}
					}
				}
			}
		}
	}
}
