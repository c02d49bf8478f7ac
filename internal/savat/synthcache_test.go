package savat

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/specan"
)

// withFreshSynths swaps the process-wide product layer for an empty one
// of the given byte budget for the duration of the test.
func withFreshSynths(t *testing.T, budget int) *memo.LRU[productKey, synthProduct] {
	t.Helper()
	old := synths
	synths = newSynths(budget)
	t.Cleanup(func() { synths = old })
	return synths
}

// The product layer must evict strictly least-recently-used products
// once their bytes pass its budget, sizing each by its slices'
// capacities.
func TestSynthCacheLRU(t *testing.T) {
	noiseP := synthProduct{noise: make([]float64, 1, 2)}
	env := synthProduct{env: &specan.PairPSD{PA: make([]float64, 3), PB: make([]float64, 3), Cross: make([]complex128, 3)}}
	if got := noiseP.bytes(); got != 16 {
		t.Fatalf("noise product of capacity 2 sized %d bytes, want 16", got)
	}
	if got := env.bytes(); got != 96 {
		t.Fatalf("envelope product of 3 bins sized %d bytes, want 96", got)
	}

	c := newSynths(32) // two noise products
	nk := func(s string) productKey { return productKey{prefix: s} }
	mk := func(key string) {
		if _, err := product(context.Background(), c, nil, nk(key), func(synthProduct) (synthProduct, error) {
			return noiseP, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// has reports a hit; a miss computes an error, which is not stored.
	has := func(key string) bool {
		_, how, _ := c.Get(context.Background(), nk(key), func() (synthProduct, error) {
			return synthProduct{}, errors.New("not cached")
		})
		return how == memo.Hit
	}
	mk("a")
	mk("b")
	if !has("a") { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	mk("c") // evicts b
	if has("b") {
		t.Error("b should have been evicted")
	}
	if !has("a") {
		t.Error("a should have survived (recently used)")
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

// A waiter on another caller's synthesis must give up as soon as its
// own context is cancelled, without disturbing the leader: the
// leader's product is still published, and the next lookup hits it.
func TestSynthCacheWaiterHonoursContext(t *testing.T) {
	c := newSynths(synthBudget)
	get := func(ctx context.Context, compute func() (synthProduct, error)) (synthProduct, error) {
		return product(ctx, c, nil, productKey{prefix: "noise", seed: 1},
			func(synthProduct) (synthProduct, error) { return compute() })
	}
	entered, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := get(context.Background(), func() (synthProduct, error) {
			close(entered)
			<-release
			return synthProduct{noise: []float64{42}}, nil
		})
		leaderDone <- err
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waited := make(chan error, 1)
	go func() {
		_, err := get(ctx, func() (synthProduct, error) {
			t.Error("a follower must not compute while the leader is in flight")
			return synthProduct{}, nil
		})
		waited <- err
	}()
	select {
	case err := <-waited:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled follower: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("cancelled follower is still waiting on the leader")
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	p, err := get(context.Background(), func() (synthProduct, error) {
		t.Error("the leader's product should have been published")
		return synthProduct{}, nil
	})
	if err != nil || len(p.noise) != 1 || p.noise[0] != 42 {
		t.Errorf("after the leader: %v, %v; want the published [42]", p.noise, err)
	}
}

// A product lookup that waits for another worker's computation counts
// as a hit and as a wait, and its wait is timed on savat.stage.wait;
// the leader's lookup is a miss and times no wait.
func TestSynthCacheWaitIsCounted(t *testing.T) {
	obs.Default.SetEnabled(true)
	defer obs.Default.SetEnabled(false)
	const hold = 20 * time.Millisecond
	// The follower waits only if it reaches the layer while the leader
	// still computes; each attempt gives it longer to get there.
	for attempt := 1; attempt <= 10; attempt++ {
		c := newSynths(synthBudget)
		hits0, misses0, waits0 := mSynthHits.Value(), mSynthMisses.Value(), mSynthWaits.Value()
		count0, sum0 := mWait.Count(), mWait.Sum()
		entered, release := make(chan struct{}), make(chan struct{})
		done := make(chan error, 2)
		get := func(compute func() (synthProduct, error)) {
			_, err := product(context.Background(), c, nil, productKey{prefix: "noise", seed: 1},
				func(synthProduct) (synthProduct, error) { return compute() })
			done <- err
		}
		go get(func() (synthProduct, error) {
			close(entered)
			<-release
			return synthProduct{noise: []float64{1}}, nil
		})
		<-entered
		go get(func() (synthProduct, error) {
			t.Error("a follower must not compute while the leader is in flight")
			return synthProduct{}, nil
		})
		time.Sleep(time.Duration(attempt) * hold)
		close(release)
		for range 2 {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		if h, m := mSynthHits.Value()-hits0, mSynthMisses.Value()-misses0; h != 1 || m != 1 {
			t.Fatalf("%d hits, %d misses; want 1 and 1", h, m)
		}
		if mSynthWaits.Value() == waits0 {
			continue // the follower arrived after the leader published: a plain hit
		}
		if n := mWait.Count() - count0; n != 1 {
			t.Fatalf("savat.stage.wait observed %d waits, want 1", n)
		}
		if d := mWait.Sum() - sum0; d <= 0 || d > time.Duration(attempt)*hold+5*time.Second {
			t.Fatalf("savat.stage.wait timed %v", d)
		}
		return
	}
	t.Fatal("the follower never waited for the leader")
}

// Outside a campaign, a scratch keeps its last envelope and noise
// products: a repeated seed is served from the slots, a new seed
// recomputes into the same buffers without allocating, and a scratch
// shared by Measurers of different recipes never serves one recipe's
// products to the other.
func TestMeasureScratchProductSlot(t *testing.T) {
	obs.Default.SetEnabled(true)
	defer obs.Default.SetEnabled(false)
	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 16
	k, err := BuildKernel(mc, ADD, LDM, cfg.Frequency)
	if err != nil {
		t.Fatal(err)
	}

	s := NewMeasureScratch()
	m := NewMeasurer(mc, cfg, WithScratch(s))
	seeds := SynthSeeds{Cal: 1, Env: 2, Noise: 3}
	first, err := m.MeasureKernelSeeds(k, seeds)
	if err != nil {
		t.Fatal(err)
	}
	misses0 := mSynthMisses.Value()
	again, err := m.MeasureKernelSeeds(k, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if d := mSynthMisses.Value() - misses0; d != 0 {
		t.Errorf("repeated seed recomputed %d products, want 0", d)
	}
	if again.SAVAT != first.SAVAT {
		t.Errorf("repeated seed: %g, first measurement %g", again.SAVAT, first.SAVAT)
	}

	envBuf, noiseBuf := &s.envSlot.p.env.PA[0], &s.noiseSlot.p.noise[0]
	misses0 = mSynthMisses.Value()
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() {
		seeds.Env++
		seeds.Noise++
		if _, err := m.MeasureKernelSeeds(k, seeds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("distinct-seed measurement allocates %.1f objects per call, want 0", allocs)
	}
	if got, want := mSynthMisses.Value()-misses0, uint64(2*(runs+1)); got != want {
		t.Errorf("distinct seeds computed %d products, want %d (one envelope + one noise each)", got, want)
	}
	if &s.envSlot.p.env.PA[0] != envBuf || &s.noiseSlot.p.noise[0] != noiseBuf {
		t.Error("distinct seeds moved the slot products to new buffers")
	}

	// Alternate two recipes through one scratch — a different RBW, then
	// a different noise environment — at equal seeds: every value must
	// equal a fresh Measurer's.
	rbw := cfg
	rbw.Analyzer.RBW = 100
	quiet := cfg
	quiet.Environment = noise.Quiet()
	shared := NewMeasureScratch()
	for _, other := range []Config{rbw, quiet} {
		for i, c := range []Config{cfg, other, cfg, other} {
			got, err := NewMeasurer(mc, c, WithScratch(shared)).MeasureKernelSeeds(k, seeds)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewMeasurer(mc, c).MeasureKernelSeeds(k, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if got.SAVAT != want.SAVAT {
				t.Errorf("alternation step %d: shared scratch %g, fresh Measurer %g", i, got.SAVAT, want.SAVAT)
			}
		}
	}
}

// A full Figure-9-shaped campaign must serve at least 10 of every 11
// row cells' envelope products from the cache (one synthesis per row)
// and all but one noise PSD per repetition — the hit rates the <0.5 s
// matrix target is built on — and the rates must be visible on the
// process registry, where /metrics and obs.WriteSummary read them.
func TestCampaignSynthCacheHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("full 11×11 campaign in -short mode")
	}
	obs.Default.SetEnabled(true)
	defer obs.Default.SetEnabled(false)
	withFreshSynths(t, synthBudget)
	hits0, misses0 := mSynthHits.Value(), mSynthMisses.Value()

	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 16
	_, err := runSpec(CampaignSpec{Machine: mc.Name, Config: cfg, Repeats: 1, Seed: 3}, engine.Options{
		Parallelism: 1, // deterministic access order: exactly one env miss per row
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := mSynthHits.Value() - hits0
	misses := mSynthMisses.Value() - misses0
	// 11 rows × 11 cells × (1 env + 1 noise) lookups: 11 env misses
	// (one per row), 1 noise miss (one per repetition), the rest hits.
	if misses > 12 {
		t.Errorf("campaign synthesis cache: %d misses, want ≤12 (one per row + one per repetition)", misses)
	}
	if hits < 228 {
		t.Errorf("campaign synthesis cache: %d hits, want ≥228 of 242 lookups", hits)
	}
	t.Logf("synthesis cache: %d hits / %d misses", hits, misses)
}

// The paper measures one pair set at three distances (Figs 9, 17, 18),
// and no product key holds a distance: a second campaign over the same
// events and seed at another distance computes every cell but no
// envelope or noise product, and its cells equal MeasurePair's at zero
// ULP — the scratch-slot path, computing every product itself.
func TestCampaignAtAnotherDistanceComputesNoProducts(t *testing.T) {
	obs.Default.SetEnabled(true)
	defer obs.Default.SetEnabled(false)
	layer := withFreshSynths(t, synthBudget)
	mc := machine.Core2Duo()
	spec := CampaignSpec{Machine: mc.Name, Config: secondsConfig(1.0 / 16), Events: []Event{ADD, LDM, DIV}, Repeats: 2, Seed: 5}
	if _, err := runSpec(spec, engine.Options{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	resident := layer.Len()
	if resident != 3*2+2 { // one envelope product per row and repetition, one noise product per repetition
		t.Errorf("first campaign left %d products in the layer, want 8", resident)
	}

	spec.Config.Distance = 0.5
	misses0 := mSynthMisses.Value()
	far, err := runSpec(spec, engine.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := mSynthMisses.Value() - misses0; d != 0 {
		t.Errorf("campaign at another distance computed %d products, want 0", d)
	}
	if cells := 3 * 3 * 2; far.Engine.Computed != cells {
		t.Errorf("campaign at another distance computed %d of %d cells", far.Engine.Computed, cells)
	}
	if layer.Len() != resident {
		t.Errorf("layer holds %d products after the second campaign, want %d", layer.Len(), resident)
	}
	for i, a := range spec.Events {
		for j, b := range spec.Events {
			_, want, err := NewMeasurer(mc, spec.Config).MeasurePair(a, b, spec.Repeats, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := far.Cells[i][j]; got != want {
				t.Errorf("%v/%v: campaign %+v, MeasurePair %+v", a, b, got, want)
			}
		}
	}
}

// A product served by the process-wide layer is bit-identical, to the
// last bin of the analyzed band, to the one a cold Measurer computes:
// a row-mate primes the layer with the row's envelope products and the
// repetition's noise PSD, and the warm cell computes neither.
func TestProductLayerHitMatchesCold(t *testing.T) {
	obs.Default.SetEnabled(true)
	defer obs.Default.SetEnabled(false)
	quiet := secondsConfig(1.0 / 16)
	quiet.Environment = noise.Quiet()
	wide := secondsConfig(1.0 / 8)
	wide.Analyzer.RBW = 100
	for _, tc := range []struct {
		mc      machine.Config
		cfg     Config
		a, b, c Event
	}{
		{machine.Core2Duo(), secondsConfig(1.0 / 16), ADD, LDM, DIV},
		{machine.TurionX2(), quiet, LDL2, STM, NOI},
		{machine.Pentium3M(), wide, MUL, ADD, LDM},
	} {
		su, err := resolveSetup(tc.mc, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		layer := newSynths(synthBudget)
		// measure measures a/b through a fresh scratch: through the
		// product layer as a campaign cell does, or with a nil layer
		// through the scratch's own slots, as a cold Measurer does.
		measure := func(layer *memo.LRU[productKey, synthProduct], b Event) Measurement {
			t.Helper()
			k, err := BuildKernel(tc.mc, tc.a, b, tc.cfg.Frequency)
			if err != nil {
				t.Fatal(err)
			}
			meas, err := su.measure(context.Background(), k, CampaignSeeds(9, tc.a, 0), NewMeasureScratch(), layer)
			if err != nil {
				t.Fatal(err)
			}
			return meas
		}
		cold := measure(nil, tc.c)
		coldBand := cold.Trace.Band()
		coldPSD := append([]float64(nil), coldBand.PSD...)

		measure(layer, tc.b)
		misses0 := mSynthMisses.Value()
		warm := measure(layer, tc.c)
		if d := mSynthMisses.Value() - misses0; d != 0 {
			t.Errorf("%s %v/%v: warm cell computed %d products, want 0", tc.mc.Name, tc.a, tc.c, d)
		}
		if warm.SAVAT != cold.SAVAT || warm.BandPower != cold.BandPower {
			t.Errorf("%s %v/%v: warm %.17g (band %.17g W), cold %.17g (band %.17g W)",
				tc.mc.Name, tc.a, tc.c, warm.SAVAT, warm.BandPower, cold.SAVAT, cold.BandPower)
		}
		wb := warm.Trace.Band()
		if wb.Offset != coldBand.Offset || len(wb.PSD) != len(coldPSD) {
			t.Fatalf("%s: warm band %d+%d bins, cold %d+%d", tc.mc.Name, wb.Offset, len(wb.PSD), coldBand.Offset, len(coldPSD))
		}
		for i := range coldPSD {
			if wb.PSD[i] != coldPSD[i] {
				t.Errorf("%s %v/%v: bin %d: warm %g, cold %g", tc.mc.Name, tc.a, tc.c, wb.Offset+i, wb.PSD[i], coldPSD[i])
				break
			}
		}
	}
}

// A product larger than the layer's whole budget is handed to the
// measurement that computed it, which still equals a cold one, but is
// never kept: the next cell computes it again.
func TestProductLayerKeepsNoOversizedProduct(t *testing.T) {
	obs.Default.SetEnabled(true)
	defer obs.Default.SetEnabled(false)
	mc := machine.Core2Duo()
	cfg := secondsConfig(1.0 / 16)
	k, err := BuildKernel(mc, ADD, LDM, cfg.Frequency)
	if err != nil {
		t.Fatal(err)
	}
	seeds := CampaignSeeds(4, ADD, 0)
	want, err := NewMeasurer(mc, cfg).MeasureKernelSeeds(k, seeds)
	if err != nil {
		t.Fatal(err)
	}
	su, err := resolveSetup(mc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layer := newSynths(64) // smaller than any product of the capture
	s := NewMeasureScratch()
	for lap := 0; lap < 2; lap++ {
		misses0 := mSynthMisses.Value()
		got, err := su.measure(context.Background(), k, seeds, s, layer)
		if err != nil {
			t.Fatal(err)
		}
		if got.SAVAT != want.SAVAT {
			t.Errorf("lap %d: %g through an over-budget layer, %g cold", lap, got.SAVAT, want.SAVAT)
		}
		if d := mSynthMisses.Value() - misses0; d != 2 {
			t.Errorf("lap %d: computed %d products, want 2 (neither kept)", lap, d)
		}
		if n := layer.Len(); n != 0 {
			t.Errorf("lap %d: layer keeps %d over-budget products", lap, n)
		}
	}
}
