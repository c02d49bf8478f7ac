package engine

import "time"

// Stats is a snapshot of a campaign's scheduling statistics. A copy is
// attached to every ProgressEvent, so a consumer always sees a
// consistent running total, and the final values are returned on the
// campaign Result.
//
// Stats, ProgressEvent, and Health are wire format: the campaign
// service streams them to API clients over /v1/campaigns/{id}/events,
// so every field carries an explicit, stable json tag and a golden
// round-trip test (wire_test.go) pins the serialized shape. Renaming a
// Go field must not change the JSON.
type Stats struct {
	// Total is the number of cells in the campaign grid.
	Total int `json:"total"`
	// Done counts finished cells, however they were satisfied.
	Done int `json:"done"`
	// Cached counts cells served from the result cache — memory or its
	// durable store — without running the compute function.
	Cached int `json:"cached"`
	// Computed counts cells that ran the compute function.
	Computed int `json:"computed"`
	// Deduped counts cells satisfied by an identical cell computed
	// concurrently by another campaign sharing this run's Cache —
	// in-flight deduplication, as opposed to the after-the-fact kind
	// counted by Cached.
	Deduped int `json:"deduped"`
	// Elapsed is the wall time since the campaign started.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// CellsPerSecond returns the overall completion rate, cached cells
// included (0 before any time has elapsed).
func (s Stats) CellsPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Done) / s.Elapsed.Seconds()
}

// ProgressEvent reports one finished cell to the campaign's Monitor:
// which cell, whether it was served from the cache or
// computed, and how long the computation took.
type ProgressEvent struct {
	// Row, Col, Rep locate the cell in the campaign grid.
	Row int `json:"row"`
	Col int `json:"col"`
	Rep int `json:"rep"`
	// Cached reports that the value came from the result cache: memory,
	// or its durable store when a rerun resumes an interrupted campaign.
	Cached bool `json:"cached,omitempty"`
	// Deduped reports that the value came from an identical in-flight
	// cell computed by another campaign (see Stats.Deduped).
	Deduped bool `json:"deduped,omitempty"`
	// Duration is the compute time for this cell (0 when Cached).
	Duration time.Duration `json:"duration_ns"`
	// Stats is a consistent snapshot taken when this cell finished.
	Stats Stats `json:"stats"`
	// Health is a pipeline-health snapshot taken when this cell
	// finished.
	Health Health `json:"health"`
}

// Health is the pipeline-health view attached to every ProgressEvent:
// how the campaign is flowing right now, derived from the engine's own
// accounting plus the observability layer's cell-latency histogram.
type Health struct {
	// CacheHitRate is Cached/Done so far (0 before any cell finishes).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// QueueDepth counts cells neither finished nor being computed.
	QueueDepth int `json:"queue_depth"`
	// InFlight counts cells currently inside the compute function.
	InFlight int `json:"in_flight"`
	// LatencyP50/P90/P99 are conservative per-cell compute latency
	// quantiles (upper bound of the containing log₂ bucket). All zero
	// when the observability registry is disabled — enable it (serve
	// -metrics-addr, or obs.Default.SetEnabled(true)) to populate them.
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP90 time.Duration `json:"latency_p90_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
}
