package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/store"
)

// DefaultCacheCapacity is the in-memory LRU size used when an Engine is
// created without an explicit cache (≈34 full 11×11×10 campaigns).
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

// Cache memoizes per-cell results under content-addressed keys. It has
// an in-memory LRU layer and, optionally, a durable layer — the batched
// append-only segment log of internal/store (NewStoreCache): every Put
// is handed to the store, and a Get that misses in memory falls back to
// it (promoting the value back into the LRU). The store is the only way
// a finished cell outlives its process, and so what lets interrupted or
// repeated campaigns skip finished cells across processes. All methods
// are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	st       *store.Store // nil = memory only; immutable, read without mu

	hits, misses, diskHits uint64
}

type cacheEntry struct {
	key string
	val float64
}

// NewCache returns a memory-only cache holding up to capacity entries
// (capacity <= 0 uses DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	return newCache(capacity, nil)
}

func newCache(capacity int, st *store.Store) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		st:       st,
	}
}

// Get returns the cached value for key, consulting memory first and
// then the store. The store read happens outside the cache lock, so a
// slow disk miss never stalls concurrent in-memory hits.
func (c *Cache) Get(key string) (float64, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()

	if c.st != nil {
		if v, ok := loadFloat(c.st, key); ok {
			c.mu.Lock()
			if el, raced := c.items[key]; raced {
				// Another goroutine promoted (or Put) the key while we
				// were reading; keep its entry.
				c.ll.MoveToFront(el)
				v = el.Value.(*cacheEntry).val
			} else {
				c.insertLocked(key, v)
			}
			c.hits++
			c.diskHits++
			c.mu.Unlock()
			return v, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return 0, false
}

// Put stores the value for key in memory and hands it to the store's
// write-behind buffer when one is present. Store write failures are
// deliberately swallowed: the cache is an accelerator, and a full or
// read-only disk must not fail the campaign; persistent failures
// resurface on Sync and Close.
func (c *Cache) Put(key string, v float64) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
	} else {
		c.insertLocked(key, v)
	}
	c.mu.Unlock()
	if c.st != nil {
		_ = c.st.Put(key, store.EncodeFloat64(v))
	}
}

// insertLocked adds a fresh entry, evicting the LRU tail past capacity.
func (c *Cache) insertLocked(key string, v float64) {
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: v})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).key)
		mEvictions.Inc()
	}
}

// Sync blocks until every Put accepted so far is durable in the store.
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
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats counts cache traffic since creation.
type CacheStats struct {
	Hits     uint64 // Get calls served (DiskHits included)
	Misses   uint64 // Get calls not served by either layer
	DiskHits uint64 // hits that needed the store
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, DiskHits: c.diskHits}
}
