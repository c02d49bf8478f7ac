package engine

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Two engines sharing one Cache, running the same campaign
// concurrently, must compute each distinct cell exactly once between
// them: every other completion is Cached or Deduped, and both matrices
// come out bit-identical.
func TestFlightDedupAcrossEngines(t *testing.T) {
	cache := NewCache(DefaultCacheCapacity)
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

// blockingCell is a one-cell campaign keyed "contested" whose compute
// signals entered on its first call and then blocks until release is
// closed or its context ends; fail, when set, is what it returns after
// release (every later call returns it at once).
type blockingCell struct {
	entered, release chan struct{}
	fail             error
	calls            int64
	once             sync.Once
}

func newBlockingCell(fail error) *blockingCell {
	return &blockingCell{entered: make(chan struct{}), release: make(chan struct{}), fail: fail}
}

func (b *blockingCell) spec() Spec {
	return Spec{
		Rows: 1, Cols: 1, Reps: 1,
		Key: func(int, int, int) string { return "contested" },
		Compute: func(ctx context.Context, _, _, _ int) (float64, error) {
			atomic.AddInt64(&b.calls, 1)
			b.once.Do(func() { close(b.entered) })
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-b.release:
			}
			return 7, b.fail
		},
	}
}

// waiterFrame matches a goroutine parked in a cache lookup, waiting for
// another caller's in-flight computation of the same key.
var waiterFrame = regexp.MustCompile(`\[select[^\]]*\]:\nrepro/internal/memo\.\(\*LRU\[[^\]]*\]\)\.Get\(`)

// awaitWaiter blocks until some goroutine waits in the cache for an
// in-flight cell.
func awaitWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if waiterFrame.Match(buf[:runtime.Stack(buf, true)]) {
			return
		}
	}
	t.Fatal("no campaign ever waited for the in-flight cell")
}

// countingCell is the same one-cell campaign computed without blocking.
func countingCell(calls *int64) Spec {
	return Spec{
		Rows: 1, Cols: 1, Reps: 1,
		Key: func(int, int, int) string { return "contested" },
		Compute: func(context.Context, int, int, int) (float64, error) {
			atomic.AddInt64(calls, 1)
			return 7, nil
		},
	}
}

// A failed leader must not poison its key: the campaign waiting on it
// shares the failure (cells are deterministic, so it would only recur),
// nothing is cached, and a later campaign computes the cell for real.
func TestFlightLeaderFailureDoesNotPoison(t *testing.T) {
	cache := NewCache(8)
	boom := errors.New("boom")
	leader := newBlockingCell(boom)
	var waiterCalls int64
	waiterSpec := countingCell(&waiterCalls)
	waiterSpec.Compute = func(context.Context, int, int, int) (float64, error) {
		atomic.AddInt64(&waiterCalls, 1)
		return 0, boom
	}

	errs := make(chan error, 2)
	go func() {
		_, err := Run(context.Background(), leader.spec(), Options{Cache: cache})
		errs <- err
	}()
	<-leader.entered
	go func() {
		_, err := Run(context.Background(), waiterSpec, Options{Cache: cache})
		errs <- err
	}()
	awaitWaiter(t)
	close(leader.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("campaign error %v, want the leader's %v", err, boom)
		}
	}
	if waiterCalls != 0 {
		t.Fatalf("waiting campaign recomputed the failed cell %d times", waiterCalls)
	}
	if cache.Len() != 0 {
		t.Fatalf("failed cell cached: Len = %d", cache.Len())
	}

	var calls int64
	res, err := Run(context.Background(), countingCell(&calls), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || res.Stats.Computed != 1 || res.Values[0][0][0] != 7 {
		t.Fatalf("after a failed leader: %d computes, stats %+v, value %v", calls, res.Stats, res.Values[0][0][0])
	}
}

// A campaign waiting on another's in-flight cell stops as soon as its
// own context is cancelled, without waiting for the leader.
func TestFlightWaitHonorsContext(t *testing.T) {
	cache := NewCache(8)
	leader := newBlockingCell(nil)
	defer close(leader.release)
	go func() {
		_, _ = Run(context.Background(), leader.spec(), Options{Cache: cache})
	}()
	<-leader.entered

	ctx, cancel := context.WithCancel(context.Background())
	var calls int64
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, countingCell(&calls), Options{Cache: cache})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return while the leader was still computing")
	}
	if calls != 0 {
		t.Fatalf("waiter computed the cell %d times; the leader holds it", calls)
	}
}

// Cancelling one campaign must not fail another that shares its
// store-backed cache: B, waiting on A's in-flight cell when A is
// cancelled, takes the cell over and finishes with the values of an
// uncancelled run, and the cell is computed at most twice in total.
func TestCancelledLeaderDoesNotFailWaiter(t *testing.T) {
	var refCalls int64
	ref, err := Run(context.Background(), countingCell(&refCalls), Options{})
	if err != nil {
		t.Fatal(err)
	}

	cache, err := NewStoreCache(8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	leader := newBlockingCell(nil)
	defer close(leader.release)
	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := Run(ctxA, leader.spec(), Options{Cache: cache})
		errA <- err
	}()
	<-leader.entered

	var calls int64
	doneB := make(chan struct{})
	var resB *Result
	var errB error
	go func() {
		defer close(doneB)
		resB, errB = Run(context.Background(), countingCell(&calls), Options{Cache: cache})
	}()
	awaitWaiter(t)
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign A: %v, want context.Canceled", err)
	}
	<-doneB
	if errB != nil {
		t.Fatalf("campaign B failed with A's cancellation: %v", errB)
	}
	if resB.Values[0][0][0] != ref.Values[0][0][0] {
		t.Fatalf("campaign B value %v, want %v", resB.Values[0][0][0], ref.Values[0][0][0])
	}
	if total := atomic.LoadInt64(&leader.calls) + calls; total > 2 {
		t.Fatalf("cell computed %d times, want at most 2", total)
	}
	if resB.Stats.Computed != 1 {
		t.Fatalf("campaign B stats %+v, want the cell computed by B", resB.Stats)
	}
}
