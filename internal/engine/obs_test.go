package engine

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// withObs enables the process observability registry for one test,
// resetting counters so assertions see only this test's traffic.
func withObs(t *testing.T) {
	t.Helper()
	obs.Default.Reset()
	obs.Default.SetEnabled(true)
	t.Cleanup(func() {
		obs.Default.SetEnabled(false)
		obs.Default.Reset()
	})
}

func TestProgressEventHealth(t *testing.T) {
	withObs(t)
	cache := NewCache(64)
	spec := testSpec(2, 3, 2)

	collect := func(opts Options) []ProgressEvent {
		t.Helper()
		var events []ProgressEvent
		opts.Monitor = func(ev ProgressEvent) { events = append(events, ev) }
		if _, err := Run(context.Background(), spec, opts); err != nil {
			t.Fatal(err)
		}
		return events
	}

	events := collect(Options{Cache: cache, Parallelism: 2})
	if len(events) != 12 {
		t.Fatalf("got %d events, want 12", len(events))
	}
	last := events[len(events)-1]
	if last.Health.CacheHitRate != 0 {
		t.Errorf("fresh run cache hit rate = %v", last.Health.CacheHitRate)
	}
	if last.Health.QueueDepth != 0 || last.Health.InFlight < 0 {
		t.Errorf("final health = %+v", last.Health)
	}
	if last.Health.LatencyP99 <= 0 {
		t.Errorf("enabled registry but LatencyP99 = %v", last.Health.LatencyP99)
	}
	for _, ev := range events {
		h := ev.Health
		if h.QueueDepth < 0 || h.QueueDepth > spec.Rows*spec.Cols*spec.Reps {
			t.Fatalf("queue depth out of range: %+v", h)
		}
		if h.CacheHitRate < 0 || h.CacheHitRate > 1 {
			t.Fatalf("cache hit rate out of range: %+v", h)
		}
	}

	// Same cache, same spec: every cell cached, hit rate climbs to 1.
	events = collect(Options{Cache: cache, Parallelism: 2})
	last = events[len(events)-1]
	if last.Health.CacheHitRate != 1 {
		t.Errorf("resumed run cache hit rate = %v, want 1", last.Health.CacheHitRate)
	}
}

func TestHealthZeroQuantilesWhenDisabled(t *testing.T) {
	obs.Default.Reset()
	var last ProgressEvent
	if _, err := Run(context.Background(), testSpec(2, 2, 1), Options{Monitor: func(ev ProgressEvent) { last = ev }}); err != nil {
		t.Fatal(err)
	}
	if last.Health.LatencyP50 != 0 || last.Health.LatencyP99 != 0 {
		t.Errorf("disabled registry but latency quantiles = %+v", last.Health)
	}
	if last.Health.QueueDepth != 0 {
		t.Errorf("final queue depth = %d", last.Health.QueueDepth)
	}
}

// TestCacheGaugesMatchCacheStats pins the acceptance contract: the
// observability snapshot's cache gauges are the engine cache's own
// counters, read at snapshot time, so they can never drift from
// Cache.Stats().
func TestCacheGaugesMatchCacheStats(t *testing.T) {
	withObs(t)
	cache := NewCache(64)
	spec := testSpec(3, 2, 2)
	if _, err := Run(context.Background(), spec, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	// Second run over the same cache: all hits.
	res, err := Run(context.Background(), spec, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cached != 12 {
		t.Fatalf("second run stats = %+v", res.Stats)
	}

	cs := cache.Stats()
	snap := obs.Default.Snapshot()
	for name, want := range map[string]int64{
		"engine.cache.hits":      int64(cs.Hits),
		"engine.cache.misses":    int64(cs.Misses),
		"engine.cache.disk_hits": int64(cs.DiskHits),
		"engine.cache.entries":   int64(cache.Len()),
	} {
		got, ok := snap.Gauge(name)
		if !ok || got != want {
			t.Errorf("%s = %d,%v want %d", name, got, ok, want)
		}
	}
	// The cached-cells counter sees exactly the cells served from cache.
	if got, _ := snap.Counter("engine.cells.cached"); got != uint64(res.Stats.Cached) {
		t.Errorf("engine.cells.cached = %d, want %d", got, res.Stats.Cached)
	}
	if got, _ := snap.Counter("engine.cells.computed"); got != 12 {
		t.Errorf("engine.cells.computed = %d, want 12", got)
	}
	if hs, ok := snap.Histogram("engine.cell"); !ok || hs.Count != 12 {
		t.Errorf("engine.cell histogram count = %+v,%v", hs.Count, ok)
	}
}
