package savat

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/counter"
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
			_, err := RunCampaign(mc, ccfg, CampaignOptions{Events: events, Repeats: 2, Seed: cp.seed, Parallelism: 2})
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

// More distinct recipes than the capacity keep the cache at its bound,
// evicting least-recently-used entries, which a later request
// recomputes.
func TestOnceLRUBound(t *testing.T) {
	const capacity = 4
	c := newOnceLRU[int, int](capacity)
	computes := 0
	get := func(k int) int {
		t.Helper()
		v, computed, err := c.get(context.Background(), k, func() (int, error) { return 10 * k, nil })
		if err != nil || v != 10*k {
			t.Fatalf("get(%d) = %d, %v", k, v, err)
		}
		if computed {
			computes++
		}
		return v
	}
	for k := 0; k < 3*capacity; k++ {
		get(k)
		get(0) // keep 0 most recent
		if n := c.Len(); n > capacity {
			t.Fatalf("after %d recipes Len = %d > capacity %d", k+1, n, capacity)
		}
	}
	if c.Len() != capacity {
		t.Errorf("Len = %d, want %d", c.Len(), capacity)
	}
	if computes != 3*capacity {
		t.Errorf("%d computations for %d distinct keys", computes, 3*capacity)
	}
	before := computes
	get(0) // recently used: still cached
	get(1) // evicted long ago: recomputed
	if computes != before+1 {
		t.Errorf("computations %d → %d, want exactly one recompute", before, computes)
	}
}

// A waiter blocked on another caller's computation returns as soon as
// its own context is cancelled; waiters with a live context still get
// the leader's value, and nobody computes twice.
func TestOnceLRUWaiterHonorsContext(t *testing.T) {
	c := newOnceLRU[string, int](8)
	entered, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.get(context.Background(), "k", func() (int, error) {
			close(entered)
			<-release
			return 42, nil
		})
		leader <- err
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, _, err := c.get(ctx, "k", func() (int, error) { return 0, errors.New("waiter computed") })
		cancelled <- err
	}()
	live := make(chan int, 1)
	go func() {
		v, _, _ := c.get(context.Background(), "k", func() (int, error) { return 0, errors.New("waiter computed") })
		live <- v
	}()
	cancel()
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return while the leader was still computing")
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if v := <-live; v != 42 {
		t.Errorf("live waiter got %d, want the leader's 42", v)
	}
}

// Errors reach the callers but are never stored: the next request
// computes again.
func TestOnceLRUErrorsNotCached(t *testing.T) {
	c := newOnceLRU[int, int](8)
	boom := errors.New("boom")
	if _, computed, err := c.get(context.Background(), 1, func() (int, error) { return 0, boom }); !errors.Is(err, boom) || computed {
		t.Fatalf("failing compute: computed=%v err=%v", computed, err)
	}
	if c.Len() != 0 {
		t.Errorf("failed entry stored: Len = %d", c.Len())
	}
	v, computed, err := c.get(context.Background(), 1, func() (int, error) { return 7, nil })
	if err != nil || !computed || v != 7 {
		t.Errorf("retry after failure: v=%d computed=%v err=%v", v, computed, err)
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
