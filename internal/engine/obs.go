package engine

import "repro/internal/obs"

// Engine scheduling metrics. Cell latency feeds the quantiles surfaced
// on ProgressEvent.Health; the cache gauges are bound as functions in
// Run so a snapshot always reports the run cache's own counters —
// never a second accounting that could drift. All are no-ops until the
// observability registry is enabled.
var (
	mCellLatency   = obs.Default.Histogram("engine.cell")
	mCellsComputed = obs.Default.Counter("engine.cells.computed")
	mCellsCached   = obs.Default.Counter("engine.cells.cached")
	mCellsDeduped  = obs.Default.Counter("engine.cells.deduped")
	mEvictions     = obs.Default.Counter("engine.cache.evictions")
	mInFlight      = obs.Default.Gauge("engine.inflight")
	mQueueDepth    = obs.Default.Gauge("engine.queue")
)

// bindCacheGauges publishes the cache's own traffic counters as gauge
// functions, evaluated only at snapshot time. Re-binding (a later Run)
// replaces the previous binding; the snapshot reflects the cache of the
// most recently started Run.
func bindCacheGauges(c *Cache) {
	obs.Default.GaugeFunc("engine.cache.hits", func() int64 { return int64(c.Stats().Hits) })
	obs.Default.GaugeFunc("engine.cache.misses", func() int64 { return int64(c.Stats().Misses) })
	obs.Default.GaugeFunc("engine.cache.disk_hits", func() int64 { return int64(c.Stats().DiskHits) })
	obs.Default.GaugeFunc("engine.cache.entries", func() int64 { return int64(c.Len()) })
}
