package savat

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/counter"
	"repro/internal/engine"
)

// applyProgramCountermeasures returns the kernel with the chain's
// program countermeasures applied (no-op insertion, shuffling), seeded
// deterministically. A chain without program countermeasures returns k
// unchanged — same pointer and content, so the pre-countermeasure
// pipeline is untouched. The input kernel is never
// mutated; a transformed kernel is a fresh value sharing the calibrated
// loop count (the paper's methodology fixes the binary, then measures).
func applyProgramCountermeasures(k *Kernel, chain counter.Chain, seed int64) (*Kernel, error) {
	if !chain.HasProgram() {
		return k, nil
	}
	prog, phaseAt, err := counter.TransformProgram(k.Program, k.PhaseAt, chain, uint64(seed))
	if err != nil {
		return nil, err
	}
	k2 := *k
	k2.Program, k2.PhaseAt = prog, phaseAt
	k2.sum = sumKernel(prog, phaseAt)
	return &k2, nil
}

// CountermeasureReport scores a countermeasure chain by running the
// matched campaign pair — the spec as given (protected) and the spec
// with its chain stripped (baseline) — and comparing the two SAVAT
// matrices. It answers the question a countermeasure designer brings to
// the paper's methodology: how much signal does the attacker lose, and
// how much harder do instruction pairs become to tell apart?
type CountermeasureReport struct {
	// Spec is the protected campaign (non-empty countermeasure chain).
	Spec CampaignSpec
	// Events is the grid, in matrix order.
	Events []Event
	// Baseline and Protected are the two measured campaigns.
	Baseline, Protected *MatrixStats
	// AttenuationDB[i][j] is the per-cell SAVAT attenuation
	// 10·log10(baseline/protected): positive when the countermeasure
	// reduced the attacker's per-pair signal energy.
	AttenuationDB [][]float64
	// MeanAttenuationDB averages AttenuationDB over the off-diagonal
	// cells — the cells that carry actual A≠B signal rather than the
	// measurement floor.
	MeanAttenuationDB float64
	// DistinguishabilityBeforeDB and DistinguishabilityAfterDB score how
	// far the off-diagonal cells rise above their own rows' and columns'
	// A/A floors: mean over i≠j of max(0, 10·log10(cell/max(diag_i,
	// diag_j))). DistinguishabilityLossDB is before − after — the
	// matrix-level damage to the attacker's ability to tell pairs apart.
	DistinguishabilityBeforeDB float64
	DistinguishabilityAfterDB  float64
	DistinguishabilityLossDB   float64
}

// RunCountermeasureReport measures the matched campaign pair for spec
// (which must carry a non-empty countermeasure chain) and scores the
// chain. opts supplies how the campaigns run. Its Monitor sees the
// baseline campaign's cells and then the protected campaign's, each
// numbered from 1 by its own run's Stats, so the call whose Stats.Done
// equals Stats.Total ends a campaign. The Cache is shared by both runs;
// their cell keys differ in the countermeasure dimension, so the runs
// never collide.
func RunCountermeasureReport(ctx context.Context, spec CampaignSpec, opts engine.Options) (*CountermeasureReport, error) {
	spec = spec.Normalized()
	su, err := spec.validated()
	if err != nil {
		return nil, err
	}
	if len(spec.Config.Countermeasures) == 0 {
		return nil, fmt.Errorf("%w: report needs a non-empty countermeasure chain", ErrBadCountermeasure)
	}

	base := spec
	base.Config.Countermeasures = nil
	baseSu, err := resolveSetup(su.base, base.Config)
	if err != nil {
		return nil, err
	}

	baseline, err := runCampaign(ctx, &baseSu, base, opts)
	if err != nil {
		return nil, fmt.Errorf("savat: countermeasure baseline: %w", err)
	}
	protected, err := runCampaign(ctx, &su, spec, opts)
	if err != nil {
		return nil, fmt.Errorf("savat: countermeasure protected: %w", err)
	}

	events := spec.GridEvents()
	n := len(events)
	r := &CountermeasureReport{
		Spec: spec, Events: events,
		Baseline: baseline, Protected: protected,
		AttenuationDB: make([][]float64, n),
	}
	var attSum float64
	var attN int
	for i := 0; i < n; i++ {
		r.AttenuationDB[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a := db10(baseline.Mean.Vals[i][j] / protected.Mean.Vals[i][j])
			r.AttenuationDB[i][j] = a
			if i != j {
				attSum += a
				attN++
			}
		}
	}
	if attN > 0 {
		r.MeanAttenuationDB = attSum / float64(attN)
	}
	r.DistinguishabilityBeforeDB = distinguishabilityDB(baseline.Mean.Vals)
	r.DistinguishabilityAfterDB = distinguishabilityDB(protected.Mean.Vals)
	r.DistinguishabilityLossDB = r.DistinguishabilityBeforeDB - r.DistinguishabilityAfterDB
	return r, nil
}

// db10 is 10·log10(x), with non-finite and non-positive ratios clamped
// to 0 dB (no measurable change).
func db10(x float64) float64 {
	if !(x > 0) || math.IsInf(x, 0) {
		return 0
	}
	return 10 * math.Log10(x)
}

// distinguishabilityDB scores one SAVAT matrix: the mean over the
// off-diagonal cells of how far each rises above the larger of its
// row's and column's A/A diagonals (clamped at 0 — a cell at or below
// the floor contributes no distinguishability).
func distinguishabilityDB(vals [][]float64) float64 {
	n := len(vals)
	var sum float64
	var cnt int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			floor := math.Max(vals[i][i], vals[j][j])
			d := db10(vals[i][j] / floor)
			if d < 0 {
				d = 0
			}
			sum += d
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// WriteTable renders the report for terminals: the chain, the
// matrix-level scores, and the per-cell attenuation table in dB.
func (r *CountermeasureReport) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "countermeasures: %s  (machine %s, channel %s)\n",
		r.Spec.Config.Countermeasures, r.Spec.Machine, r.Spec.Config.Channel); err != nil {
		return err
	}
	fmt.Fprintf(w, "mean off-diagonal SAVAT attenuation: %+.2f dB\n", r.MeanAttenuationDB)
	fmt.Fprintf(w, "distinguishability: %.2f dB -> %.2f dB (loss %+.2f dB)\n\n",
		r.DistinguishabilityBeforeDB, r.DistinguishabilityAfterDB, r.DistinguishabilityLossDB)
	fmt.Fprintf(w, "per-cell attenuation (dB), A\\B:\n%8s", "")
	for _, e := range r.Events {
		fmt.Fprintf(w, "%8s", e)
	}
	fmt.Fprintln(w)
	for i, e := range r.Events {
		fmt.Fprintf(w, "%8s", e)
		for j := range r.Events {
			fmt.Fprintf(w, "%8.2f", r.AttenuationDB[i][j])
		}
		fmt.Fprintln(w)
	}
	return nil
}
