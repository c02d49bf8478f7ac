package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
		Compute: func(_ context.Context, r, c, p int) (float64, error) {
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
	var events []ProgressEvent
	second, err := Run(context.Background(), spec, Options{Cache: cache, Monitor: func(ev ProgressEvent) {
		events = append(events, ev)
	}})
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
	spec.Compute = func(context.Context, int, int, int) (float64, error) {
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
	interrupted.Compute = func(c context.Context, r, cc, p int) (float64, error) {
		mu.Lock()
		computed++
		if computed == 5 {
			cancel() // simulate the campaign being killed partway
		}
		mu.Unlock()
		return spec.Compute(c, r, cc, p)
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

// Run calls Monitor from its workers but never two calls at once, and
// in completion order: at Parallelism 8 the callback sees Stats.Done
// run 1…N with no overlap. Run it under -race: the unsynchronized
// append is the check that the calls are serialized.
func TestMonitorCallsSerializedInOrder(t *testing.T) {
	spec := testSpec(6, 6, 3)
	var inside atomic.Int32
	var dones []int
	res, err := Run(context.Background(), spec, Options{Parallelism: 8, Monitor: func(ev ProgressEvent) {
		if inside.Add(1) != 1 {
			t.Error("Monitor entered concurrently")
		}
		dones = append(dones, ev.Stats.Done)
		runtime.Gosched() // widen the window a concurrent call would land in
		inside.Add(-1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, spec)
	if len(dones) != 108 {
		t.Fatalf("Monitor called %d times, want 108", len(dones))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("call %d saw Stats.Done %d, want %d", i, d, i+1)
		}
	}
}

// Cells are dispatched repetition fastest, then row, then column: with
// one worker, Monitor sees every cell in exactly that order.
func TestDispatchOrder(t *testing.T) {
	spec := testSpec(3, 4, 2)
	var got [][3]int
	if _, err := Run(context.Background(), spec, Options{Parallelism: 1, Monitor: func(ev ProgressEvent) {
		got = append(got, [3]int{ev.Row, ev.Col, ev.Rep})
	}}); err != nil {
		t.Fatal(err)
	}
	var want [][3]int
	for c := 0; c < spec.Cols; c++ {
		for r := 0; r < spec.Rows; r++ {
			for p := 0; p < spec.Reps; p++ {
				want = append(want, [3]int{r, c, p})
			}
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("dispatch order\n got %v\nwant %v", got, want)
	}
}

// Run computes at most min(Parallelism, cells) cells at once, and
// reaches that bound: the first cells block until that many are in
// flight, so a run below it would never finish.
func TestWorkersBoundedByCells(t *testing.T) {
	for _, tc := range []struct{ reps, par, want int }{
		{2, 8, 2},  // fewer cells than workers
		{12, 3, 3}, // more cells than workers
	} {
		var cur, peak atomic.Int64
		var once sync.Once
		full := make(chan struct{})
		spec := testSpec(1, 1, tc.reps)
		spec.Compute = func(_ context.Context, r, c, p int) (float64, error) {
			n := cur.Add(1)
			for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
			}
			if n == int64(tc.want) {
				once.Do(func() { close(full) })
			}
			<-full
			cur.Add(-1)
			return wantValue(r, c, p), nil
		}
		res, err := Run(context.Background(), spec, Options{Parallelism: tc.par})
		if err != nil {
			t.Fatal(err)
		}
		checkValues(t, res, spec)
		if n := peak.Load(); n != int64(tc.want) {
			t.Errorf("%d cells at Parallelism %d: peak concurrent Compute calls = %d, want %d", tc.reps, tc.par, n, tc.want)
		}
	}
}
