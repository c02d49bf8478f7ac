package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Two engines sharing one Flight and one Cache, running the same
// campaign concurrently, must compute each distinct cell exactly once
// between them: every other completion is Cached or Deduped, and both
// matrices come out bit-identical.
func TestFlightDedupAcrossEngines(t *testing.T) {
	cache := NewCache(DefaultCacheCapacity)
	fl := NewFlight()
	var computes int64

	spec := Spec{
		Rows: 3, Cols: 3, Reps: 2,
		Key: func(row, col, rep int) string {
			return fmt.Sprintf("flight-test|%d|%d|%d", row, col, rep)
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
		eng := New(Options{Parallelism: 4, Cache: cache, Flight: fl})
		wg.Add(1)
		go func(i int, eng *Engine) {
			defer wg.Done()
			results[i], errs[i] = eng.Run(context.Background(), spec)
		}(i, eng)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt64(&computes); got != int64(unique) {
		t.Errorf("compute ran %d times, want exactly %d (one per unique cell)", got, unique)
	}
	stA, stB := results[0].Stats, results[1].Stats
	if stA.Computed+stB.Computed != unique {
		t.Errorf("computed counts %d+%d should sum to %d unique cells", stA.Computed, stB.Computed, unique)
	}
	if done := stA.Done + stB.Done; done != 2*unique {
		t.Errorf("done %d, want %d", done, 2*unique)
	}
	if satisfied := stA.Cached + stB.Cached + stA.Deduped + stB.Deduped; satisfied != unique {
		t.Errorf("cached+deduped %d, want %d (everything not computed)", satisfied, unique)
	}
	for row := 0; row < spec.Rows; row++ {
		for col := 0; col < spec.Cols; col++ {
			for rep := 0; rep < spec.Reps; rep++ {
				a := results[0].Values[row][col][rep]
				b := results[1].Values[row][col][rep]
				if a != b || a != float64(row*100+col*10+rep) {
					t.Fatalf("cell (%d,%d,%d): %v vs %v", row, col, rep, a, b)
				}
			}
		}
	}
}

// A failed leader must not poison its key: waiters observe the error,
// loop, and one of them becomes the next leader and computes the cell
// for real.
func TestFlightLeaderFailureDoesNotPoison(t *testing.T) {
	fl := NewFlight()
	c1, leader := fl.lead("k")
	if !leader {
		t.Fatal("first camper should lead")
	}
	c2, leader := fl.lead("k")
	if leader {
		t.Fatal("second camper should wait")
	}

	fl.finish("k", c1, 0, errors.New("boom"))
	if _, err := c2.Wait(context.Background()); err == nil {
		t.Fatal("waiter should see the leader's failure")
	}
	// The key retired with the failure, so the waiter can retry as leader.
	c3, leader := fl.lead("k")
	if !leader {
		t.Fatal("key should be free after a failed leader")
	}
	fl.finish("k", c3, 42, nil)
	if v, err := c3.Wait(context.Background()); err != nil || v != 42 {
		t.Fatalf("got (%v, %v), want (42, nil)", v, err)
	}
}

// A waiter whose own context is cancelled gets the context error
// without waiting for the leader.
func TestFlightWaitHonorsContext(t *testing.T) {
	fl := NewFlight()
	if _, leader := fl.lead("k"); !leader {
		t.Fatal("first camper should lead")
	}
	c, leader := fl.lead("k")
	if leader {
		t.Fatal("second camper should wait")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
