package savat

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/noise"
	"repro/internal/obs"
)

// The shared cache must evict strictly least-recently-used entries.
func TestSynthCacheLRU(t *testing.T) {
	c := NewSynthCache(2)
	nk := func(s string) productKey { return productKey{prefix: s} }
	mk := func(key string, v float64) {
		if _, err := c.get(context.Background(), nk(key), func() (synthProduct, error) {
			return synthProduct{noise: []float64{v}}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// has reports a hit; a miss computes an error, which is not stored.
	has := func(key string) bool {
		_, how, _ := c.lru.Get(context.Background(), nk(key), func() (synthProduct, error) {
			return synthProduct{}, errors.New("not cached")
		})
		return how == memo.Hit
	}
	mk("a", 1)
	mk("b", 2)
	if !has("a") { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	mk("c", 3) // evicts b
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
	c := NewSynthCache(4)
	key := productKey{prefix: "noise", seed: 1}
	entered, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.get(context.Background(), key, func() (synthProduct, error) {
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
		_, err := c.get(ctx, key, func() (synthProduct, error) {
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
	p, err := c.get(context.Background(), key, func() (synthProduct, error) {
		t.Error("the leader's product should have been published")
		return synthProduct{}, nil
	})
	if err != nil || len(p.noise) != 1 || p.noise[0] != 42 {
		t.Errorf("after the leader: %v, %v; want the published [42]", p.noise, err)
	}
}

// Without a shared cache, a scratch keeps its last envelope and noise
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
	hits0, misses0 := mSynthHits.Value(), mSynthMisses.Value()

	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 16
	_, err := runSpec(CampaignSpec{Machine: mc.Name, Config: cfg, Repeats: 1, Seed: 3}, CampaignOptions{
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
