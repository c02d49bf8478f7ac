package savat

import "repro/internal/obs"

// measureObs bundles the measurement pipeline's stage-metric handles,
// resolved once per registry so no instrumentation site ever pays a
// map lookup. The default instance binds to obs.Default; a Measurer
// built with WithObs carries its own. Every handle is a no-op until
// its registry is enabled.
type measureObs struct {
	kernel       *obs.Histogram // kernel lookup, calibrating it on a miss
	measure      *obs.Histogram // the pipeline from a kernel to its SAVAT value
	alternation  *obs.Histogram // alternation lookup, simulating it on a miss
	radiate      *obs.Histogram // radiator init + group phase amplitudes
	synthesize   *obs.Histogram // envelope and noise synthesis (+ Welch products when streamed)
	kernelHits   *obs.Counter   // simulation-cache kernel hits
	kernelMisses *obs.Counter   // kernels actually calibrated (or rewritten)
	altHits      *obs.Counter   // simulation-cache alternation hits
	altMisses    *obs.Counter   // alternation simulations actually run
}

func newMeasureObs(r *obs.Registry) *measureObs {
	return &measureObs{
		kernel:       r.Histogram("savat.stage.kernel"),
		measure:      r.Histogram("savat.measure"),
		alternation:  r.Histogram("savat.stage.alternation"),
		radiate:      r.Histogram("savat.stage.radiate"),
		synthesize:   r.Histogram("savat.stage.synthesize"),
		kernelHits:   r.Counter("savat.kernelcache.hits"),
		kernelMisses: r.Counter("savat.kernelcache.misses"),
		altHits:      r.Counter("savat.altcache.hits"),
		altMisses:    r.Counter("savat.altcache.misses"),
	}
}

var defaultMeasureObs = newMeasureObs(obs.Default)
