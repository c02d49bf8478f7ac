package conform

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/savat"
)

// PipelineTolerances bound the metamorphic invariants that run the
// live measurement pipeline (as opposed to checking an already
// measured matrix).
type PipelineTolerances struct {
	// NoiseFloorRatio bounds how far a same/same pair's received band
	// power may sit above the NOI/NOI noise floor (paper §III: with no
	// A/B difference there is no alternation tone, so the band holds
	// only noise). Calibrated headroom: measured ratios stay ≤ 1.4.
	NoiseFloorRatio float64
	// FrequencyError bounds |achieved − requested|/requested for the
	// calibrated alternation frequency.
	FrequencyError float64
	// PeriodLinearity bounds the relative spread of period/LoopCount
	// across a frequency sweep — the "one full alternation takes
	// inst_loop_count times the per-iteration cost" linearity that the
	// paper's calibration procedure relies on.
	PeriodLinearity float64
	// PairsPerSecond bounds the relative spread of pairs-per-second
	// across a frequency sweep. Halving the frequency doubles
	// inst_loop_count, so their product — the divisor that turns band
	// power into per-pair energy — must stay put.
	PairsPerSecond float64
	// SAVATInvariance bounds the relative spread of the SAVAT value
	// itself across a frequency sweep: energy per pair is an intrinsic
	// property of the pair, not of the alternation rate used to
	// measure it.
	SAVATInvariance float64
}

// DefaultPipelineTolerances returns bounds with roughly 2–3× headroom
// over the measured behaviour of the shipped machine models.
func DefaultPipelineTolerances() PipelineTolerances {
	return PipelineTolerances{
		NoiseFloorRatio: 2.0,
		FrequencyError:  0.05,
		PeriodLinearity: 0.05,
		PairsPerSecond:  0.05,
		SAVATInvariance: 0.30,
	}
}

// VerifyNoiseFloorDiagonal measures every same/same pair in events and
// checks its received band power against the NOI/NOI noise floor:
// identical halves produce no alternation tone, so the measurement
// band must hold nothing but the environment (within
// tol.NoiseFloorRatio). The rng seed fixes the noise realization per
// pair, so the check is deterministic.
func VerifyNoiseFloorDiagonal(mc machine.Config, cfg savat.Config, events []savat.Event, seed int64, tol PipelineTolerances) (*Report, error) {
	floor, err := savat.NewMeasurer(mc, cfg).Measure(savat.NOI, savat.NOI, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("conform: NOI/NOI floor: %w", err)
	}
	if floor.BandPower <= 0 {
		return nil, fmt.Errorf("conform: NOI/NOI floor band power %g", floor.BandPower)
	}
	r := &Report{}
	for _, e := range events {
		m, err := savat.NewMeasurer(mc, cfg).Measure(e, e, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, fmt.Errorf("conform: %v/%v: %w", e, e, err)
		}
		ratio := m.BandPower / floor.BandPower
		r.Add(Check{
			Name:  fmt.Sprintf("noise-floor/%v-%v", e, e),
			Pass:  ratio <= tol.NoiseFloorRatio && ratio >= 1/tol.NoiseFloorRatio,
			Value: ratio, Bound: tol.NoiseFloorRatio,
			Detail: fmt.Sprintf("band %.3g W vs floor %.3g W", m.BandPower, floor.BandPower),
		})
	}
	return r, nil
}

// VerifyLoopCountScaling sweeps the alternation frequency for one pair
// and checks the loop-count family of invariants (paper §III): the
// calibrated kernel achieves the requested frequency, the achieved
// period is linear in inst_loop_count, pairs-per-second is invariant
// under the sweep, and so is the SAVAT value itself. Frequencies must
// all satisfy the configuration's Nyquist bound.
func VerifyLoopCountScaling(mc machine.Config, cfg savat.Config, a, b savat.Event, freqs []float64, seed int64, tol PipelineTolerances) (*Report, error) {
	if len(freqs) < 2 {
		return nil, fmt.Errorf("conform: frequency sweep needs ≥2 points, have %d", len(freqs))
	}
	r := &Report{}
	perIter := make([]float64, 0, len(freqs))
	pairsPS := make([]float64, 0, len(freqs))
	savats := make([]float64, 0, len(freqs))
	for _, f := range freqs {
		c := cfg
		c.Frequency = f
		m, err := savat.NewMeasurer(mc, c).Measure(a, b, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, fmt.Errorf("conform: %v/%v at %g Hz: %w", a, b, f, err)
		}
		r.addBound(
			fmt.Sprintf("loop-scaling/%v-%v/achieved-frequency@%gHz", a, b, f),
			math.Abs(m.ActualFrequency-f)/f, tol.FrequencyError,
			fmt.Sprintf("achieved %.1f Hz with inst_loop_count %d", m.ActualFrequency, m.LoopCount))
		perIter = append(perIter, 1/(m.ActualFrequency*float64(m.LoopCount)))
		pairsPS = append(pairsPS, m.PairsPerSecond)
		savats = append(savats, m.SAVAT)
	}
	pair := fmt.Sprintf("%v-%v", a, b)
	r.addBound("loop-scaling/"+pair+"/period-linearity", relSpread(perIter), tol.PeriodLinearity,
		fmt.Sprintf("period per loop iteration over %d frequencies", len(freqs)))
	r.addBound("loop-scaling/"+pair+"/pairs-per-second", relSpread(pairsPS), tol.PairsPerSecond,
		fmt.Sprintf("%.4g pairs/s typical", pairsPS[0]))
	r.addBound("loop-scaling/"+pair+"/savat-invariance", relSpread(savats), tol.SAVATInvariance,
		fmt.Sprintf("%.3g zJ typical", savats[0]*1e21))
	return r, nil
}

// relSpread returns (max−min)/mean of xs (0 for an empty or all-zero
// slice).
func relSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	min, max, sum := xs[0], xs[0], 0.0
	for _, x := range xs {
		min = math.Min(min, x)
		max = math.Max(max, x)
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	return (max - min) / mean
}

// VerifyPermutationInvariance runs the campaign spec twice, with its
// grid events in two different orders, and demands exactly equal
// per-pair energies: campaign cells are seeded by event identity, not
// matrix position, so the measured physics must not depend on where a
// pair happens to sit (the matrix analogue of the paper placing
// identical instructions at different program addresses).
func VerifyPermutationInvariance(spec savat.CampaignSpec) (*Report, error) {
	events := spec.GridEvents()
	if len(events) < 2 {
		return nil, fmt.Errorf("conform: permutation check needs ≥2 events, have %d", len(events))
	}
	perm := make([]savat.Event, len(events))
	for i, e := range events {
		perm[(i+1)%len(events)] = e
	}
	run := func(evs []savat.Event) (*savat.MatrixStats, error) {
		s := spec
		s.Events = evs
		return savat.RunSpecContext(context.Background(), s, engine.Options{})
	}
	base, err := run(events)
	if err != nil {
		return nil, err
	}
	rot, err := run(perm)
	if err != nil {
		return nil, err
	}
	mismatch := 0
	detail := ""
	worst := 0.0
	for _, a := range events {
		for _, b := range events {
			va := base.Mean.MustAt(a, b)
			vb := rot.Mean.MustAt(a, b)
			if va != vb {
				mismatch++
				if d := math.Abs(va - vb); d > worst {
					worst = d
					detail = fmt.Sprintf("worst at %v/%v: %g vs %g", a, b, va, vb)
				}
			}
		}
	}
	r := &Report{}
	r.addBound("permutation/order-invariance", float64(mismatch), 0, detail)
	return r, nil
}
