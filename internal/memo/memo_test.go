package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// More distinct keys than the capacity keep the cache at its bound,
// evicting least-recently-used entries, which a later request
// recomputes.
func TestLRUBound(t *testing.T) {
	const capacity = 4
	evictions := 0
	c := New[int, int](capacity, nil, func() { evictions++ })
	computes := 0
	get := func(k int) int {
		t.Helper()
		v, how, err := c.Get(context.Background(), k, func() (int, error) { return 10 * k, nil })
		if err != nil || v != 10*k {
			t.Fatalf("Get(%d) = %d, %v", k, v, err)
		}
		if how == Computed {
			computes++
		}
		return v
	}
	for k := 0; k < 3*capacity; k++ {
		get(k)
		get(0) // keep 0 most recent
		if n := c.Len(); n > capacity {
			t.Fatalf("after %d keys Len = %d > capacity %d", k+1, n, capacity)
		}
	}
	if c.Len() != capacity {
		t.Errorf("Len = %d, want %d", c.Len(), capacity)
	}
	if computes != 3*capacity {
		t.Errorf("%d computations for %d distinct keys", computes, 3*capacity)
	}
	if evictions != computes-capacity {
		t.Errorf("%d evictions, want %d", evictions, computes-capacity)
	}
	before := computes
	get(0) // recently used: still cached
	get(1) // evicted long ago: recomputed
	if computes != before+1 {
		t.Errorf("computations %d → %d, want exactly one recompute", before, computes)
	}
}

// A sized LRU bounds the sum of its entries' sizes, not their count:
// under a stream of inserts many times over the budget, the resident
// size never passes it, equals the sum over the resident entries, and
// the least recent entries leave first.
func TestLRUSizedBound(t *testing.T) {
	const budget = 100
	evictions := 0
	c := New[int, int](budget, func(v int) int { return v }, func() { evictions++ })
	inserted := 0
	for k := 0; k < 200; k++ {
		size := 1 + (k*37)%40 // 1..40: several entries fit, never all
		if _, _, err := c.Get(context.Background(), k, func() (int, error) { return size, nil }); err != nil {
			t.Fatal(err)
		}
		inserted += size
		c.mu.Lock()
		sum, prev := 0, k+1
		for e := c.head; e != nil; e = e.next {
			sum += e.size
			if e.key >= prev {
				t.Fatalf("after key %d: key %d is more recent than key %d", k, prev, e.key)
			}
			prev = e.key
		}
		used := c.used
		c.mu.Unlock()
		if used > budget || used != sum {
			t.Fatalf("after key %d: resident size %d (entries sum to %d), budget %d", k, used, sum, budget)
		}
	}
	if inserted < 10*budget || evictions == 0 {
		t.Fatalf("stream of %d inserted units caused %d evictions; want one far over the %d budget", inserted, evictions, budget)
	}
}

// A value larger than the whole budget reaches its leader and every
// waiter but is never kept, and it evicts nothing: the resident entries
// stay, and the next request for it computes again.
func TestLRUOversizedNotKept(t *testing.T) {
	const budget = 10
	c := New[string, int](budget, func(v int) int { return v }, nil)
	if _, _, err := c.Get(context.Background(), "small", func() (int, error) { return 4, nil }); err != nil {
		t.Fatal(err)
	}
	release, leader := leadBlocked(c, "big")
	ctx := newWaitingCtx()
	waiter := make(chan int, 1)
	go func() {
		v, _, _ := c.Get(ctx, "big", func() (int, error) { return 0, errors.New("waiter computed") })
		waiter <- v
	}()
	<-ctx.waiting
	release(budget+1, nil)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if v := <-waiter; v != budget+1 {
		t.Errorf("waiter got %d, want the leader's %d", v, budget+1)
	}
	if n := c.Len(); n != 1 {
		t.Errorf("Len = %d after an oversized value, want 1 (the small entry only)", n)
	}
	if _, how, _ := c.Get(context.Background(), "small", func() (int, error) { return 4, nil }); how != Hit {
		t.Errorf("resident entry evicted by an oversized value: outcome %v", how)
	}
	if _, how, _ := c.Get(context.Background(), "big", func() (int, error) { return budget + 1, nil }); how != Computed {
		t.Errorf("oversized value was kept: outcome %v, want Computed", how)
	}
}

// leadBlocked starts a leader computing key on c whose compute blocks
// until release is called with the result to return. done receives the
// leader's error once Get returns.
func leadBlocked(c *LRU[string, int], key string) (release func(int, error), done <-chan error) {
	entered := make(chan struct{})
	out := make(chan func() (int, error))
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), key, func() (int, error) {
			close(entered)
			return (<-out)()
		})
		errc <- err
	}()
	<-entered
	return func(v int, err error) {
		out <- func() (int, error) { return v, err }
	}, errc
}

// waitingCtx is a live context that reports when a caller first
// selects on it — the moment a waiter starts waiting for a leader.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx() *waitingCtx {
	return &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// A waiter blocked on another caller's computation returns as soon as
// its own context is cancelled; waiters with a live context still get
// the leader's value, and nobody computes twice.
func TestLRUWaiterHonorsContext(t *testing.T) {
	c := New[string, int](8, nil, nil)
	release, leader := leadBlocked(c, "k")

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, "k", func() (int, error) { return 0, errors.New("waiter computed") })
		cancelled <- err
	}()
	live := make(chan int, 1)
	go func() {
		v, _, _ := c.Get(context.Background(), "k", func() (int, error) { return 0, errors.New("waiter computed") })
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
	release(42, nil)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if v := <-live; v != 42 {
		t.Errorf("live waiter got %d, want the leader's 42", v)
	}
}

// Errors reach the callers but are never stored: the next request
// computes again.
func TestLRUErrorsNotCached(t *testing.T) {
	c := New[int, int](8, nil, nil)
	boom := errors.New("boom")
	if _, how, err := c.Get(context.Background(), 1, func() (int, error) { return 0, boom }); !errors.Is(err, boom) || how != Computed {
		t.Fatalf("failing compute: outcome=%v err=%v", how, err)
	}
	if c.Len() != 0 {
		t.Errorf("failed entry stored: Len = %d", c.Len())
	}
	v, how, err := c.Get(context.Background(), 1, func() (int, error) { return 7, nil })
	if err != nil || how != Computed || v != 7 {
		t.Errorf("retry after failure: v=%d outcome=%v err=%v", v, how, err)
	}
}

// The one error rule: a leader cancelled by its own context hands the
// key over to a live waiter, which computes it; any other failure is
// shared with the waiter, which does not compute again.
func TestLRUErrorRule(t *testing.T) {
	t.Run("context error re-leads", func(t *testing.T) {
		c := New[string, int](8, nil, nil)
		release, leader := leadBlocked(c, "k")
		ctx := newWaitingCtx()
		var computes int64
		var v int
		var how Outcome
		var err error
		waiter := make(chan struct{})
		go func() {
			defer close(waiter)
			v, how, err = c.Get(ctx, "k", func() (int, error) {
				atomic.AddInt64(&computes, 1)
				return 42, nil
			})
		}()
		<-ctx.waiting
		release(0, context.Canceled)
		if err := <-leader; !errors.Is(err, context.Canceled) {
			t.Fatalf("leader returned %v", err)
		}
		<-waiter
		if err != nil || v != 42 || how != Computed || computes != 1 {
			t.Fatalf("waiter after a cancelled leader: v=%d outcome=%v err=%v computes=%d; want it to compute 42",
				v, how, err, computes)
		}
		if v, how, _ := c.Get(context.Background(), "k", func() (int, error) { return 0, errors.New("recomputed") }); v != 42 || how != Hit {
			t.Fatalf("re-led value not cached: v=%d outcome=%v", v, how)
		}
	})
	t.Run("other error shared", func(t *testing.T) {
		c := New[string, int](8, nil, nil)
		release, leader := leadBlocked(c, "k")
		ctx := newWaitingCtx()
		var computes int64
		waiter := make(chan error, 1)
		go func() {
			_, _, err := c.Get(ctx, "k", func() (int, error) {
				atomic.AddInt64(&computes, 1)
				return 42, nil
			})
			waiter <- err
		}()
		<-ctx.waiting
		boom := errors.New("boom")
		release(0, boom)
		if err := <-leader; !errors.Is(err, boom) {
			t.Fatalf("leader returned %v", err)
		}
		if err := <-waiter; !errors.Is(err, boom) {
			t.Fatalf("waiter returned %v, want the leader's %v", err, boom)
		}
		if computes != 0 {
			t.Fatalf("waiter computed %d times after a deterministic failure", computes)
		}
	})
}
