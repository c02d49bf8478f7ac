// Package memo is the one exactly-once cache of the repository: a
// bounded, content-keyed LRU whose misses are computed exactly once
// however many callers race for them. Every memoized layer of a
// campaign — per-cell results, calibrated kernels, alternation
// simulations, synthesis products — is an LRU from this package.
package memo

import (
	"context"
	"errors"
	"sync"
)

// Outcome reports how Get satisfied a lookup.
type Outcome int

const (
	// Hit: the value was resident.
	Hit Outcome = iota
	// Waited: another caller was computing the key; this one waited for
	// its result.
	Waited
	// Computed: this caller led the computation of the key.
	Computed
)

// LRU is a bounded cache that computes each missing entry exactly once:
// concurrent misses on one key elect a leader, the leader runs compute,
// and every other caller waits for its result under its own context.
//
// Errors are never stored. A leader's failure is shared with the
// callers already waiting, except a context error: the leader's
// cancellation is its own, so a waiter whose context is still live
// re-enters and may lead the computation itself. Compute must be a
// deterministic function of the key, so any other error would only
// recur.
//
// Correctness rests on the key contract: two computations may share a
// key only when their results are interchangeable. Keys are comparable
// values, so a struct key makes a hit allocation-free. An LRU is safe
// for concurrent use; create one with New.
type LRU[K comparable, V any] struct {
	mu         sync.Mutex
	cap, used  int // bound on, and sum of, the resident entries' sizes
	size       func(V) int
	onEvict    func()
	entries    map[K]*entry[K, V]
	head, tail *entry[K, V] // doubly linked; head = most recent
	calls      map[K]*call[V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int
	prev, next *entry[K, V]
}

// call is one in-progress computation; done is closed after val and
// err are set.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty LRU whose resident entries' sizes sum to at
// most capacity (≥ 1). size, when non-nil, gives a value's size, run
// under the cache lock; nil sizes every entry 1, so capacity is an
// entry count. A value larger than capacity is handed to its caller
// and waiters but never kept. onEvict, when non-nil, runs under the
// cache lock once per evicted entry.
func New[K comparable, V any](capacity int, size func(V) int, onEvict func()) *LRU[K, V] {
	return &LRU[K, V]{
		cap:     capacity,
		size:    size,
		onEvict: onEvict,
		entries: make(map[K]*entry[K, V]),
		calls:   make(map[K]*call[V]),
	}
}

// Get returns the value for key, calling compute on a miss when no
// other caller is already computing it. compute runs in the calling
// goroutine, outside the cache lock; ctx bounds only the wait for
// another caller's computation.
func (c *LRU[K, V]) Get(ctx context.Context, key K, compute func() (V, error)) (V, Outcome, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.moveToFront(e)
			v := e.val
			c.mu.Unlock()
			return v, Hit, nil
		}
		if cl, ok := c.calls[key]; ok {
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				var zero V
				return zero, Waited, ctx.Err()
			case <-cl.done:
			}
			if isContextErr(cl.err) && ctx.Err() == nil {
				continue // the leader was cancelled, not the computation
			}
			return cl.val, Waited, cl.err
		}
		cl := &call[V]{done: make(chan struct{})}
		c.calls[key] = cl
		c.mu.Unlock()

		cl.val, cl.err = compute()
		c.mu.Lock()
		if cl.err == nil {
			c.insert(key, cl.val)
		}
		delete(c.calls, key)
		c.mu.Unlock()
		close(cl.done)
		return cl.val, Computed, cl.err
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Len returns the number of resident entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// insert adds key as the most recent entry, evicting least recent
// entries until the sizes fit capacity; a value larger than capacity is
// not kept. Only a leader inserts, so key is not resident. Callers hold
// c.mu.
func (c *LRU[K, V]) insert(key K, v V) {
	size := 1
	if c.size != nil {
		size = c.size(v)
	}
	if size > c.cap {
		return
	}
	e := &entry[K, V]{key: key, val: v, size: size}
	c.entries[key] = e
	c.moveToFront(e)
	c.used += size
	for c.used > c.cap {
		ev := c.tail
		c.unlink(ev)
		delete(c.entries, ev.key)
		c.used -= ev.size
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

func (c *LRU[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	if e.prev != nil || c.tail == e {
		c.unlink(e)
	}
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *LRU[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
