package savat

import (
	"context"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/specan"
)

// Synthesis-product cache metrics, on the process registry so campaign
// hit rates show up in /metrics and obs.WriteSummary. A hit means a
// measurement skipped an entire synthesis + Welch pass.
var (
	mSynthHits   = obs.Default.Counter("savat.synthcache.hits")
	mSynthMisses = obs.Default.Counter("savat.synthcache.misses")
)

// SynthCache memoizes synthesis products — envelope pair-Welch products
// (specan.PairPSD) and noise PSDs — across measurements that share a
// stochastic realization. Entries are keyed by the full recipe (stage
// seed plus every synthesis and segmentation parameter), so a hit is
// exact: the cached products are bit-identical to what the measurement
// would have computed. Combined with CampaignSeeds' scoping, a campaign
// row synthesizes instruction A's envelope once and every row-mate
// reuses its products, and each repetition's noise capture is analyzed
// once for the whole matrix.
//
// A SynthCache is a memo.LRU: safe for concurrent use, and each key is
// computed exactly once across concurrent callers — the rest wait for
// the leader's result under their own context. Published products are
// immutable and shared read-only; eviction is safe because live
// references keep the backing arrays alive.
type SynthCache struct {
	lru *memo.LRU[productKey, synthProduct]
}

// productKey identifies one synthesis product: the (mc, cfg)-fixed
// recipe prefix (see Measurer.productKeys, built once per Measurer and
// compared by content, so equal recipes match across Measurers) plus
// the stage seed. A comparable struct rather than a concatenated
// string so the steady-state lookup path performs no per-measurement
// key allocation.
type productKey struct {
	prefix string
	seed   int64
}

// synthProduct is one cached product. Exactly one field is set; typed
// fields rather than an `any` so storing a noise PSD does not box its
// slice header on every insert. Envelope and noise keys never collide
// (their prefixes differ), so one LRU holds both kinds.
type synthProduct struct {
	env   *specan.PairPSD
	noise []float64
}

// NewSynthCache returns a concurrency-safe cache bounded to capacity
// entries (an envelope entry and a noise entry each count as one).
// Campaigns size it to their repetition working set.
func NewSynthCache(capacity int) *SynthCache {
	if capacity < 2 {
		capacity = 2
	}
	return &SynthCache{lru: memo.New[productKey, synthProduct](capacity, nil)}
}

// get returns the product for key, computing it at most once across
// concurrent callers; ctx bounds only the wait for another caller's
// computation. compute must return buffers the cache may own — never
// scratch-aliased ones. A failed computation is shared with the
// callers already waiting and not stored (see memo.LRU).
func (c *SynthCache) get(ctx context.Context, key productKey, compute func() (synthProduct, error)) (synthProduct, error) {
	p, how, err := c.lru.Get(ctx, key, compute)
	countLookup(mSynthHits, mSynthMisses, how, err)
	return p, err
}

// Len returns the number of cached entries (for tests and diagnostics).
func (c *SynthCache) Len() int { return c.lru.Len() }

// productSlot is a scratch's one-entry memo of one product kind, used
// when its Measurer has no shared SynthCache: the last product and its
// key. A repeated key is a hit; any other key recomputes into the
// slot's own buffers, so a stream of distinct seeds through one
// scratch allocates no product-sized buffers after the first.
type productSlot struct {
	key productKey
	ok  bool
	p   synthProduct
}

// get returns the slot's product when key matches, and otherwise the
// product compute writes over the slot's buffers. Lookups count on the
// same hit and miss counters as SynthCache.
func (sl *productSlot) get(key productKey, compute func(dst synthProduct) (synthProduct, error)) (synthProduct, error) {
	if sl.ok && sl.key == key {
		mSynthHits.Inc()
		return sl.p, nil
	}
	sl.ok = false // compute may leave the buffers half overwritten
	p, err := compute(sl.p)
	if err != nil {
		return synthProduct{}, err
	}
	mSynthMisses.Inc()
	sl.key, sl.p, sl.ok = key, p, true
	return p, nil
}
