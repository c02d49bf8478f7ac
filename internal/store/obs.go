package store

import "repro/internal/obs"

// Store metrics. Counters aggregate across every store in the process
// (a process normally runs one). All are no-ops until the
// observability registry is enabled; the always-on per-store numbers
// live in Stats.
var (
	mFsyncLatency = obs.Default.Histogram("store.flush") // one fsync
	mPuts         = obs.Default.Counter("store.puts")
	mAppendBytes  = obs.Default.Counter("store.append.bytes")
	mTruncations  = obs.Default.Counter("store.truncations")
)
