package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// testSpec builds a deterministic grid whose cell values encode their
// coordinates, keyed so that results are shareable across runs.
func testSpec(rows, cols, reps int) Spec {
	return Spec{
		Rows: rows, Cols: cols, Reps: reps,
		Key: func(r, c, p int) string {
			return fmt.Sprintf("test-cell/v1|%d|%d|%d", r, c, p)
		},
		Compute: func(_ context.Context, _ any, r, c, p int) (float64, error) {
			return float64(r*10000 + c*100 + p), nil
		},
	}
}

func wantValue(r, c, p int) float64 { return float64(r*10000 + c*100 + p) }

func checkValues(t *testing.T, res *Result, spec Spec) {
	t.Helper()
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			for p := 0; p < spec.Reps; p++ {
				if got := res.Values[r][c][p]; got != wantValue(r, c, p) {
					t.Fatalf("cell (%d,%d,%d) = %v, want %v", r, c, p, got, wantValue(r, c, p))
				}
			}
		}
	}
}

func TestRunComputesAllCells(t *testing.T) {
	spec := testSpec(3, 4, 2)
	res, err := Run(context.Background(), spec, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, spec)
	st := res.Stats
	if st.Total != 24 || st.Done != 24 || st.Computed != 24 || st.Cached != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Elapsed <= 0 || st.CellsPerSecond() <= 0 {
		t.Errorf("elapsed %v, rate %v", st.Elapsed, st.CellsPerSecond())
	}
}

func TestRunCacheHitMissAccounting(t *testing.T) {
	cache := NewCache(64)
	spec := testSpec(2, 2, 3)

	first, err := Run(context.Background(), spec, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Computed != 12 || first.Stats.Cached != 0 {
		t.Fatalf("first run stats = %+v", first.Stats)
	}
	cs := cache.Stats()
	if cs.Misses != 12 || cs.Hits != 0 {
		t.Fatalf("cache stats after first run = %+v", cs)
	}

	// Same spec, same cache: every cell must be served from memory.
	ch := make(chan ProgressEvent, 16)
	var events []ProgressEvent
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range ch {
			events = append(events, ev)
		}
	}()
	second, err := Run(context.Background(), spec, Options{Cache: cache, Monitor: ch})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Cached != 12 || second.Stats.Computed != 0 {
		t.Fatalf("second run stats = %+v", second.Stats)
	}
	checkValues(t, second, spec)
	if len(events) != 12 {
		t.Fatalf("got %d monitor events, want 12", len(events))
	}
	for i, ev := range events {
		if !ev.Cached || ev.Duration != 0 {
			t.Fatalf("expected cached event, got %+v", ev)
		}
		if ev.Stats.Done != i+1 {
			t.Fatalf("event %d has Stats.Done %d: events out of completion order", i, ev.Stats.Done)
		}
	}
	final := events[len(events)-1].Stats
	if final.Done != 12 || final.Cached != 12 {
		t.Errorf("final event stats = %+v", final)
	}
}

// Cells are deterministic, so a failing cell is computed once: its
// error fails the campaign, wrapped with the cell's coordinates.
func TestFailingCellRunsOnce(t *testing.T) {
	var calls atomic.Int64
	broken := errors.New("always broken")
	spec := testSpec(1, 1, 1)
	spec.Compute = func(context.Context, any, int, int, int) (float64, error) {
		calls.Add(1)
		return 0, broken
	}
	_, err := Run(context.Background(), spec, Options{})
	if !errors.Is(err, broken) {
		t.Fatalf("err = %v, want %v", err, broken)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compute called %d times, want 1", n)
	}
	if want := "cell (0,0,0)"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q should name %q", err, want)
	}
}

// Cancel mid-campaign, then rerun the same spec over the same durable
// cache (closed and reopened, as a restarted process would): the cells
// the interrupted run finished come back as cache hits, only the rest
// are computed, and the matrix is identical to an uninterrupted run.
func TestCancellationResumeFromCache(t *testing.T) {
	spec := testSpec(3, 3, 2)
	ref, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := spec
	var mu sync.Mutex
	computed := 0
	interrupted.Compute = func(c context.Context, state any, r, cc, p int) (float64, error) {
		mu.Lock()
		computed++
		if computed == 5 {
			cancel() // simulate the campaign being killed partway
		}
		mu.Unlock()
		return spec.Compute(c, state, r, cc, p)
	}
	cacheA, err := NewStoreCache(64, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ctx, interrupted, Options{Parallelism: 1, Cache: cacheA})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := cacheA.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume in a fresh cache over the same directory: only the store
	// carries state.
	cacheB, err := NewStoreCache(64, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cacheB.Close()
	res, err := Run(context.Background(), spec, Options{Cache: cacheB})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cached != computed || res.Stats.Computed != 18-computed {
		t.Errorf("resumed run stats = %+v, want %d cached, %d computed", res.Stats, computed, 18-computed)
	}
	for r := range ref.Values {
		for c := range ref.Values[r] {
			for p := range ref.Values[r][c] {
				if ref.Values[r][c][p] != res.Values[r][c][p] {
					t.Fatalf("cell (%d,%d,%d) differs after resume: %v vs %v",
						r, c, p, ref.Values[r][c][p], res.Values[r][c][p])
				}
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Run(context.Background(), Spec{}, Options{}); err == nil {
		t.Error("empty spec should fail")
	}
	bad := testSpec(2, 2, 2)
	bad.Compute = nil
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Error("nil compute should fail")
	}
	bad = testSpec(2, 2, 2)
	bad.Key = nil
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Error("nil key should fail")
	}
}

// Worker state must be created once per worker and threaded through every
// Compute call that worker makes, without affecting values.
func TestWorkerStatePerWorker(t *testing.T) {
	type counter struct{ calls int }
	var mu sync.Mutex
	states := make(map[*counter]bool)
	spec := testSpec(4, 4, 2)
	spec.NewWorkerState = func() any {
		s := &counter{}
		mu.Lock()
		states[s] = true
		mu.Unlock()
		return s
	}
	spec.Compute = func(_ context.Context, state any, r, c, p int) (float64, error) {
		s := state.(*counter)
		mu.Lock()
		if !states[s] {
			mu.Unlock()
			return 0, fmt.Errorf("unknown state %p", s)
		}
		s.calls++
		mu.Unlock()
		return wantValue(r, c, p), nil
	}
	res, err := Run(context.Background(), spec, Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, spec)
	if len(states) == 0 || len(states) > 3 {
		t.Errorf("created %d worker states, want 1..3", len(states))
	}
	total := 0
	for s := range states {
		total += s.calls
	}
	if total != 32 {
		t.Errorf("state-threaded calls = %d, want 32", total)
	}
}

// Without NewWorkerState, Compute's state is nil.
func TestComputeStateWithoutWorkerState(t *testing.T) {
	spec := testSpec(2, 2, 1)
	spec.Compute = func(_ context.Context, state any, r, c, p int) (float64, error) {
		if state != nil {
			return 0, fmt.Errorf("state = %v, want nil", state)
		}
		return wantValue(r, c, p), nil
	}
	res, err := Run(context.Background(), spec, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, spec)
}

// Run starts no more workers than the grid has cells, so a small grid
// at high parallelism builds no idle worker state.
func TestWorkersBoundedByCells(t *testing.T) {
	var states atomic.Int64
	spec := testSpec(1, 1, 2)
	spec.NewWorkerState = func() any {
		states.Add(1)
		return nil
	}
	res, err := Run(context.Background(), spec, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, spec)
	if n := states.Load(); n > 2 {
		t.Errorf("NewWorkerState called %d times for 2 cells, want at most 2", n)
	}
}
