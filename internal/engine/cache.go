package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"repro/internal/memo"
	"repro/internal/store"
)

// DefaultCacheCapacity is the in-memory LRU size used when a Run is
// given no cache (≈34 full 11×11×10 campaigns).
const DefaultCacheCapacity = 4096

// Key hashes arbitrary cell-identity material into the fixed-width
// content address used by the cache and by campaign fingerprints.
// Callers pass a canonical dump of everything that determines a cell's
// value (machine config, measurement config, pair, seed, repetition);
// two cells share a cache slot exactly when that material matches.
func Key(material string) string {
	h := sha256.Sum256([]byte(material))
	return hex.EncodeToString(h[:])
}

// Cache memoizes per-cell results under content-addressed keys and
// computes each distinct cell exactly once across every Run that
// shares it. Its memory layer is a memo.LRU; its optional durable layer
// is the append-only segment log of internal/store
// (NewStoreCache), the only way a finished cell outlives its process
// and so what lets interrupted or repeated campaigns skip finished
// cells across processes.
//
// A cell missing from memory is led by one caller, which reads the
// store and, only when that misses too, computes the cell and hands the
// value to the store. Concurrent lookups of the same key wait for the
// leader instead (Stats.Deduped): campaigns submitted together never
// compute a cell twice. A leader's failure reaches its waiters under
// memo's error rule — a cancelled campaign's cells are recomputed by
// the campaigns still waiting for them; any other failure is shared,
// because cells are deterministic and would only fail again.
//
// Correctness rests on the cache-key contract: two cells share a key
// exactly when their values are bit-identical by construction, so
// handing one campaign's cell value to another can never change a
// matrix. All methods are safe for concurrent use.
type Cache struct {
	lru *memo.LRU[string, float64]
	st  *store.Store // nil = memory only

	hits, misses, diskHits atomic.Uint64
}

// NewCache returns a memory-only cache holding up to capacity entries
// (capacity <= 0 uses DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	return newCache(capacity, nil)
}

// NewStoreCache returns a cache whose durable layer is the append-only
// segment log of internal/store rooted at dir (created if needed). A
// directory another open store cache holds, in this process or
// another, is refused with an error wrapping store.ErrLocked.
//
// Each computed cell is appended to the store's segment file, where it
// survives a process kill, and the store fsyncs it within 25 ms; call
// Sync (or Close, which the CLI closers do) to make every cell durable
// at a boundary. Values round-trip bit-exactly, non-finite included.
func NewStoreCache(capacity int, dir string) (*Cache, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("engine: store cache: %w", err)
	}
	return newCache(capacity, st), nil
}

func newCache(capacity int, st *store.Store) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{lru: memo.New[string, float64](capacity, nil, mEvictions.Inc), st: st}
}

// source says how a cell lookup was satisfied.
type source int

const (
	cached   source = iota // memory or store
	deduped                // another caller's in-flight computation
	computed               // this caller's compute
)

// get returns the value for key from memory, the store, another
// caller's in-flight computation, or compute — run at most once per key
// across concurrent callers. Store write failures are deliberately
// swallowed: the cache is an accelerator, and a full or read-only disk
// must not fail the campaign; persistent failures resurface on Sync and
// Close.
func (c *Cache) get(ctx context.Context, key string, compute func() (float64, error)) (float64, source, error) {
	disk := false
	v, how, err := c.lru.Get(ctx, key, func() (float64, error) {
		if c.st != nil {
			if data, ok := c.st.Get(key); ok {
				if v, ok := store.DecodeFloat64(data); ok {
					disk = true
					return v, nil
				}
			}
		}
		v, err := compute()
		if err == nil && c.st != nil {
			_ = c.st.Put(key, store.EncodeFloat64(v))
		}
		return v, err
	})
	switch {
	case how == memo.Hit || disk:
		c.hits.Add(1)
		if disk {
			c.diskHits.Add(1)
		}
		return v, cached, err
	case how == memo.Waited:
		c.misses.Add(1)
		return v, deduped, err
	default:
		c.misses.Add(1)
		return v, computed, err
	}
}

// Sync blocks until every value handed to the store so far is durable.
// Memory-only caches return nil immediately.
func (c *Cache) Sync() error {
	if c.st == nil {
		return nil
	}
	return c.st.Sync()
}

// Close flushes and releases the store. Memory-only caches return nil
// immediately; the cache must not be used after Close.
func (c *Cache) Close() error {
	if c.st == nil {
		return nil
	}
	return c.st.Close()
}

// Len returns the number of entries resident in memory.
func (c *Cache) Len() int { return c.lru.Len() }

// CacheStats counts cache traffic since creation.
type CacheStats struct {
	Hits     uint64 // lookups served by memory or the store (DiskHits included)
	Misses   uint64 // lookups computed, or waited for, instead
	DiskHits uint64 // hits that needed the store
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), DiskHits: c.diskHits.Load()}
}
