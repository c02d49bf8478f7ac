package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// valueSpec is a one-row campaign whose cell col is keyed by keys[col]
// and computes vals[col], counting compute calls in computes.
func valueSpec(keys []string, vals []float64, computes *int64) Spec {
	return Spec{
		Rows: 1, Cols: len(keys), Reps: 1,
		Key: func(_, col, _ int) string { return keys[col] },
		Compute: func(_ context.Context, _, col, _ int) (float64, error) {
			atomic.AddInt64(computes, 1)
			return vals[col], nil
		},
	}
}

// runSerial runs spec on one worker, so cells reach the cache in grid
// order.
func runSerial(t *testing.T, cache *Cache, spec Spec) *Result {
	t.Helper()
	res, err := Run(context.Background(), spec, Options{Parallelism: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The memory layer is a bounded LRU; an evicted cell comes back through
// the store, and a fresh cache over the same directory sees every cell.
func TestCacheLRUEvictionAndDiskLayer(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewStoreCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	var computes int64
	keys := []string{"a", "b", "c"}
	runSerial(t, cache, valueSpec(keys, []float64{1, 2, 3}, &computes)) // c evicts a from memory
	if cache.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cache.Len())
	}
	stale := []float64{-1, -1, -1} // what a recompute would produce

	// a must come back via the disk layer, c from memory.
	if res := runSerial(t, cache, valueSpec(keys[:1], stale, &computes)); res.Stats.Cached != 1 || res.Values[0][0][0] != 1 {
		t.Fatalf("evicted cell: stats %+v, value %v; want 1 from disk", res.Stats, res.Values[0][0][0])
	}
	if res := runSerial(t, cache, valueSpec(keys[2:], stale, &computes)); res.Stats.Cached != 1 || res.Values[0][0][0] != 3 {
		t.Fatalf("resident cell: stats %+v, value %v; want 3 from memory", res.Stats, res.Values[0][0][0])
	}
	if cs := cache.Stats(); cs.DiskHits != 1 || cs.Hits != 2 || cs.Misses != 3 {
		t.Fatalf("cache stats = %+v, want 2 hits (one from disk), 3 misses", cs)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	// A second cache over the same directory sees everything.
	cache2, err := NewStoreCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	res := runSerial(t, cache2, valueSpec(keys, stale, &computes))
	for col, want := range []float64{1, 2, 3} {
		if got := res.Values[0][col][0]; got != want {
			t.Fatalf("fresh cache cell %s = %v, want %v", keys[col], got, want)
		}
	}
	if computes != 3 {
		t.Fatalf("compute ran %d times, want 3 (only the first run)", computes)
	}

	// Memory-only caches miss cleanly.
	if res := runSerial(t, NewCache(2), valueSpec(keys[:1], stale, &computes)); res.Stats.Computed != 1 || res.Values[0][0][0] != -1 {
		t.Fatalf("memory-only cache: stats %+v, value %v", res.Stats, res.Values[0][0][0])
	}
}

// A store-backed cache must persist every computed cell across
// Close/reopen on the same directory, bit-exactly — non-finite values
// included.
func TestStoreCachePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewStoreCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"cell-a", "cell-b", "cell-c", "cell-d", "cell-e"}
	vals := []float64{42.5, -1.25e-21, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff80000deadbeef)} // a NaN with a payload
	var computes int64
	runSerial(t, cache, valueSpec(keys, vals, &computes))
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewStoreCache(1, dir) // capacity 1: force disk reads
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	spec := valueSpec(keys, vals, &computes)
	spec.Compute = func(context.Context, int, int, int) (float64, error) {
		return 0, fmt.Errorf("cell recomputed after reopen")
	}
	res := runSerial(t, reopened, spec)
	for col, want := range vals {
		if got := res.Values[0][col][0]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("key %s: %v → %v (bits must match)", keys[col], want, got)
		}
	}
	if st := reopened.Stats(); st.DiskHits != uint64(len(keys)) {
		t.Fatalf("capacity-1 cache stats %+v, want %d disk hits", st, len(keys))
	}
}

// Two engines sharing one store-backed Cache must compute each
// distinct cell exactly once between them, even with a store write
// behind every computed cell.
func TestFlightDedupOnStoreBackedCache(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewStoreCache(DefaultCacheCapacity, dir)
	if err != nil {
		t.Fatal(err)
	}
	var computes int64

	spec := Spec{
		Rows: 3, Cols: 3, Reps: 2,
		Key: func(row, col, rep int) string {
			return Key(fmt.Sprintf("store-flight|%d|%d|%d", row, col, rep))
		},
		Compute: func(_ context.Context, row, col, rep int) (float64, error) {
			atomic.AddInt64(&computes, 1)
			time.Sleep(2 * time.Millisecond) // widen the in-flight window
			return float64(row*100 + col*10 + rep), nil
		},
	}
	unique := spec.Rows * spec.Cols * spec.Reps

	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(context.Background(), spec, Options{Parallelism: 4, Cache: cache})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt64(&computes); got != int64(unique) {
		t.Errorf("compute ran %d times, want exactly %d", got, unique)
	}
	stA, stB := results[0].Stats, results[1].Stats
	if stA.Computed+stB.Computed != unique {
		t.Errorf("computed %d+%d, want sum %d", stA.Computed, stB.Computed, unique)
	}
	if sat := stA.Cached + stB.Cached + stA.Deduped + stB.Deduped; sat != unique {
		t.Errorf("cached+deduped %d, want %d", sat, unique)
	}

	// Everything the campaigns computed is durable after Sync, and a
	// third campaign over a fresh cache on the same store directory is
	// served entirely from disk.
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewStoreCache(DefaultCacheCapacity, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	third, err := Run(context.Background(), spec, Options{Parallelism: 4, Cache: resumed})
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats.Computed != 0 || third.Stats.Cached != unique {
		t.Errorf("store-resumed run stats = %+v, want all %d cached", third.Stats, unique)
	}
	for row := 0; row < spec.Rows; row++ {
		for col := 0; col < spec.Cols; col++ {
			for rep := 0; rep < spec.Reps; rep++ {
				want := float64(row*100 + col*10 + rep)
				if got := third.Values[row][col][rep]; got != want {
					t.Fatalf("cell (%d,%d,%d) = %v, want %v", row, col, rep, got, want)
				}
			}
		}
	}
}
