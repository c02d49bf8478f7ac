package savat

import "repro/internal/obs"

// Measurement-pipeline stage metrics on the process registry, resolved
// once so no instrumentation site ever pays a map lookup. No-ops until
// the registry is enabled.
var (
	mKernel       = obs.Default.Histogram("savat.stage.kernel")      // kernel lookup, calibrating it on a miss
	mMeasure      = obs.Default.Histogram("savat.measure")           // the pipeline from a kernel to its SAVAT value
	mAlternation  = obs.Default.Histogram("savat.stage.alternation") // alternation lookup, simulating it on a miss
	mRadiate      = obs.Default.Histogram("savat.stage.radiate")     // radiator init + group phase amplitudes
	mSynthesize   = obs.Default.Histogram("savat.stage.synthesize")  // envelope and noise synthesis (+ Welch products when streamed)
	mKernelHits   = obs.Default.Counter("savat.kernelcache.hits")    // simulation-cache kernel hits
	mKernelMisses = obs.Default.Counter("savat.kernelcache.misses")  // kernels actually calibrated (or rewritten)
	mAltHits      = obs.Default.Counter("savat.altcache.hits")       // simulation-cache alternation hits
	mAltMisses    = obs.Default.Counter("savat.altcache.misses")     // alternation simulations actually run
)
