package engine

import (
	"fmt"

	"repro/internal/store"
)

// NewStoreCache returns a cache whose durable layer is the append-only
// segment log of internal/store rooted at dir (created if needed).
//
// Puts are write-behind — batched to disk by the store's flusher — so
// campaign workers never block on the disk; call Sync (or Close, which
// the CLI closers do) to force durability at a boundary. Values
// round-trip bit-exactly, non-finite included.
func NewStoreCache(capacity int, dir string) (*Cache, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("engine: store cache: %w", err)
	}
	return newCache(capacity, st), nil
}

// NewStoreCacheWith wraps an already-open store (tests tune its
// Options) in a cache. The cache owns the store from then on: Close
// closes it.
func NewStoreCacheWith(capacity int, st *store.Store) *Cache {
	return newCache(capacity, st)
}

// loadFloat reads one cell value from the store; a record that does not
// decode as a float64 is a miss.
func loadFloat(st *store.Store, key string) (float64, bool) {
	data, ok := st.Get(key)
	if !ok {
		return 0, false
	}
	return store.DecodeFloat64(data)
}
