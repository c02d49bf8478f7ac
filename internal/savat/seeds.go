package savat

import "math/rand"

// SynthSeeds are the three independent rng seeds of one measurement's
// stochastic stages. Splitting the single measurement rng into
// per-stage seeds is what makes synthesis work shareable across cells:
// two cells whose Env seeds (and synthesis parameters) match consume
// the exact same envelope realization, so its spectral products can be
// computed once and reused, with no draw-order coupling between stages.
type SynthSeeds struct {
	// Cal seeds the radiator calibration (per-component spatial phases)
	// — the paper's "position the antenna, then measure" step.
	Cal int64
	// Env seeds the envelope timeline realization (period jitter, drift,
	// amplitude fluctuation).
	Env int64
	// Noise seeds the environment noise capture.
	Noise int64
}

// Stage tags keep the per-stage seed streams disjoint.
const (
	tagCal uint64 = iota + 1
	tagEnv
	tagNoise
	tagCounter
)

// mixSeed hashes its inputs into a valid rand.NewSource seed (always
// positive) with splitmix64-style finalization per input word.
func mixSeed(vals ...uint64) int64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h ^= v * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 31)) * 0x94D049BB133111EB
	}
	h ^= h >> 29
	return int64(h&0x7FFFFFFFFFFFFFFF) + 1
}

// CampaignSeeds derives the deterministic per-cell seeds a campaign
// uses for the (pair, repetition) cell whose row event is a. The
// scoping mirrors the paper's physical campaign, one repetition at a
// time:
//
//   - Cal depends on (base, rep) only: one antenna placement per
//     campaign repetition, shared by every cell measured in it.
//   - Env depends on (base, a, rep): one envelope timeline realization
//     per instruction-A row — the row's kernels share instruction A's
//     timing character, so every cell of the row reuses the
//     realization (and, through the synthesis-product cache, its
//     spectral products).
//   - Noise depends on (base, rep) only: the environment does not care
//     which instructions run.
//
// The column event never enters: it reaches the measurement through
// the kernel (activity rates, duty, loop count), not through the rng.
// Cells therefore remain fully determined by (machine, config, pair,
// base seed, repetition), independent of matrix position and campaign
// composition, and exactly equal to MeasurePair's.
func CampaignSeeds(base int64, a Event, rep int) SynthSeeds {
	return SynthSeeds{
		Cal:   mixSeed(uint64(base), tagCal, uint64(rep)),
		Env:   mixSeed(uint64(base), tagEnv, uint64(a), uint64(rep)),
		Noise: mixSeed(uint64(base), tagNoise, uint64(rep)),
	}
}

// CounterSeed derives the deterministic countermeasure seed for the
// pair (a, b): the randomized program transform (no-op insertion,
// shuffling) is applied once per pair — the campaign's kernel, like the
// paper's fixed binary, is built once and shared across repetitions —
// so the seed scopes to (base, pair) and not to the repetition. It
// draws from a stage tag disjoint from the synthesis stages, so adding
// the countermeasure dimension leaves every Cal/Env/Noise stream
// bit-identical to the pre-countermeasure pipeline.
func CounterSeed(base int64, a, b Event) int64 {
	return mixSeed(uint64(base), tagCounter, uint64(a), uint64(b))
}

// seedsFromRNG derives per-stage seeds from a caller's measurement rng
// — the rng-taking entry points remain deterministic functions of the
// rng state, and both pipeline implementations (streaming and
// reference) derive the identical seeds from the identical rng.
func seedsFromRNG(rng *rand.Rand) SynthSeeds {
	return SynthSeeds{Cal: rng.Int63(), Env: rng.Int63(), Noise: rng.Int63()}
}
