package savat

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/counter"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/obs"
)

// withFreshSimCache swaps the process-wide simulation cache for an
// empty one of the given capacity for the duration of the test.
func withFreshSimCache(t *testing.T, capacity int) *simCache {
	t.Helper()
	old := sims
	sims = newSimCache(capacity)
	t.Cleanup(func() { sims = old })
	return sims
}

// Every calibration and every alternation simulation runs exactly once
// per distinct recipe, however many goroutines and concurrent campaigns
// race for it: em and power campaigns and both seeds share one kernel
// and one simulation per pair, a program countermeasure adds exactly
// one rewritten kernel and one simulation per pair, and kernels rebuilt
// outside the cache hit the alternation entries by content.
func TestSimCacheNoDuplicate(t *testing.T) {
	c := withFreshSimCache(t, simCacheCap)
	obs.Default.SetEnabled(true)
	defer func() {
		obs.Default.SetEnabled(false)
		obs.Default.Reset()
	}()
	obs.Default.Reset()

	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 64
	events := []Event{ADD, LDM, DIV}
	pairs := len(events) * len(events)
	chain, err := counter.ParseChain([]string{"noop-insert:0.1"})
	if err != nil {
		t.Fatal(err)
	}

	type campaign struct {
		channel string
		seed    int64
		chain   counter.Chain
	}
	campaigns := []campaign{
		{"em", 1, nil}, {"em", 2, nil}, {"power", 1, nil}, {"power", 2, nil},
		{"em", 1, chain},
	}
	start := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for _, cp := range campaigns {
		wg.Add(1)
		go func(cp campaign) {
			defer wg.Done()
			<-start
			ccfg := cfg
			ccfg.Channel, ccfg.Countermeasures = cp.channel, cp.chain
			_, err := runSpec(CampaignSpec{Machine: mc.Name, Config: ccfg, Events: events, Repeats: 2, Seed: cp.seed}, engine.Options{Parallelism: 2})
			errs <- err
		}(cp)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			a, b := events[g%len(events)], events[(g/len(events))%len(events)]
			if _, _, err := NewMeasurer(mc, cfg).MeasurePair(a, b, 1, int64(g)); err != nil {
				errs <- err
				return
			}
			k, err := BuildKernel(mc, b, a, cfg.Frequency) // outside the cache
			if err == nil {
				_, err = NewMeasurer(mc, cfg).MeasureKernel(k, rand.New(rand.NewSource(int64(g))))
			}
			errs <- err
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Recipes: one base kernel per pair, plus one rewritten kernel per
	// pair for the countermeasure campaign; each has its own program.
	want := uint64(2 * pairs)
	if got := obs.Default.Counter("savat.kernelcache.misses").Value(); got != want {
		t.Errorf("kernel builds = %d, want %d (one per distinct recipe)", got, want)
	}
	if got := obs.Default.Counter("savat.altcache.misses").Value(); got != want {
		t.Errorf("alternation simulations = %d, want %d (one per distinct recipe)", got, want)
	}
	if got := obs.Default.Counter("savat.altcache.hits").Value(); got == 0 {
		t.Error("no alternation hits: campaigns did not share simulations")
	}
	if c.kernels.Len() != int(want) || c.alts.Len() != int(want) {
		t.Errorf("cache holds %d kernels, %d alternations; want %d each", c.kernels.Len(), c.alts.Len(), want)
	}
}

// Values never depend on the cache: a cold-cache measurement and a
// warm one — served kernels and alternations another channel
// populated — agree bit for bit.
func TestSimCacheValueIndependent(t *testing.T) {
	withFreshSimCache(t, simCacheCap)
	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 64
	cold, _, err := NewMeasurer(mc, cfg).MeasurePair(LDM, MUL, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	power := cfg
	power.Channel = "power"
	if _, _, err := NewMeasurer(mc, power).MeasurePair(LDM, MUL, 1, 9); err != nil {
		t.Fatal(err)
	}
	warm, _, err := NewMeasurer(mc, cfg).MeasurePair(LDM, MUL, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for r := range cold {
		if cold[r] != warm[r] {
			t.Errorf("rep %d: cold %g, warm %g", r, cold[r], warm[r])
		}
	}
}

// Kernels are keyed for alternation by content: two builds of one pair
// share a sum, a program countermeasure changes it, and a hand-built
// Kernel value computes the same sum as the sealed original.
func TestKernelContentSum(t *testing.T) {
	mc := machine.Core2Duo()
	k1, err := BuildKernel(mc, ADD, LDL2, 80e3)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := BuildKernel(mc, ADD, LDL2, 80e3)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 || k1.contentSum() != k2.contentSum() {
		t.Error("two builds of one pair must be distinct values with equal content sums")
	}
	hand := &Kernel{A: k1.A, B: k1.B, LoopCount: k1.LoopCount, Frequency: k1.Frequency, Program: k1.Program, PhaseAt: k1.PhaseAt}
	if hand.contentSum() != k1.contentSum() {
		t.Error("unsealed kernel's computed sum differs from the sealed one")
	}
	chain, err := counter.ParseChain([]string{"noop-insert:0.2"})
	if err != nil {
		t.Fatal(err)
	}
	k3, err := applyProgramCountermeasures(k1, chain, 3)
	if err != nil {
		t.Fatal(err)
	}
	if k3.contentSum() == k1.contentSum() {
		t.Error("rewritten program kept the original content sum")
	}
}

// A sequence kernel is calibrated once per process: two lookups of the
// same halves, and two measurements of the same sequences, are served
// one kernel, and the one-event sequences of a pair are served the
// pair's entry.
func TestSequenceKernelCalibratedOnce(t *testing.T) {
	c := withFreshSimCache(t, simCacheCap)
	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 64
	m := NewMeasurer(mc, cfg)
	ctx := context.Background()
	lookup := func(a, b Sequence) *Kernel {
		t.Helper()
		ha, err := halfOf(a)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := halfOf(b)
		if err != nil {
			t.Fatal(err)
		}
		k, err := m.su.kernel(ctx, ha, hb, 0)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	a, b := Sequence{LDM, ADD, LDM}, Sequence{ADD, ADD, ADD}
	first := lookup(a, b)
	if again := lookup(a, b); again != first {
		t.Error("a second lookup of the same halves calibrated another kernel")
	}
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := m.MeasureSequence(a, b, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.kernels.Len(); n != 1 {
		t.Errorf("two measurements of one sequence pair left %d kernels, want 1", n)
	}

	pair, err := m.Kernel(ctx, ADD, LDM, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq := lookup(Sequence{ADD}, Sequence{LDM}); seq != pair {
		t.Error("Sequence{ADD}/Sequence{LDM} was not served the ADD/LDM pair's kernel")
	}
	if n := c.kernels.Len(); n != 2 {
		t.Errorf("cache holds %d kernels, want 2", n)
	}
}

// A campaign cell whose kernel, alternation and synthesis products are
// all cached allocates nothing: the kernel key holds the pair's halves
// as values, and only a miss turns them into sequences.
func TestCachedCellAllocatesNothing(t *testing.T) {
	cfg := FastConfig()
	cfg.Duration = 1.0 / 64
	su, err := resolveSetup(machine.Core2Duo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cell := func() {
		if _, err := su.cell(ctx, ADD, LDM, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	cell() // fills every cache the cell reads
	if allocs := testing.AllocsPerRun(10, cell); allocs != 0 {
		t.Errorf("a fully cached cell allocates %.1f objects, want 0", allocs)
	}
}
