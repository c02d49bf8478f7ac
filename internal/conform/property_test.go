package conform

import (
	"context"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/savat"
)

// The acceptance matrix for the property suite: the full 11-event
// Figure 9 campaign on the default machine at the fast capture length,
// measured once and shared across tests.
const propertySeed = 1

var fastMatrix = sync.OnceValues(func() (*savat.MatrixStats, error) {
	return runCampaign(savat.FastConfig(), savat.Events(), propertySeed, engine.Options{})
})

// runCampaign runs a one-repetition test campaign of events on the
// Core 2 Duo through savat.RunSpecContext.
func runCampaign(cfg savat.Config, events []savat.Event, seed int64, opts engine.Options) (*savat.MatrixStats, error) {
	spec := savat.CampaignSpec{Machine: "Core2Duo", Config: cfg, Events: events, Repeats: 1, Seed: seed}
	return savat.RunSpecContext(context.Background(), spec, opts)
}

var referenceMatrix = sync.OnceValues(func() (*savat.Matrix, error) {
	return ReferenceMatrix(machine.Core2Duo(), savat.FastConfig(), savat.Events(), propertySeed)
})

func TestPropertySuiteFastPathMatrix(t *testing.T) {
	st, err := fastMatrix()
	if err != nil {
		t.Fatal(err)
	}
	r := VerifyMatrixStats("fast-11x11", st, DefaultMatrixTolerances())
	t.Log("\n" + r.String())
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySuiteReferenceMatrix(t *testing.T) {
	m, err := referenceMatrix()
	if err != nil {
		t.Fatal(err)
	}
	r := VerifyMatrix("reference-11x11", m, DefaultMatrixTolerances())
	t.Log("\n" + r.String())
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFastVsReferenceMatrix ties the two 11×11 matrices together: the
// campaign fast path and the direct-rendering reference, seeded
// identically per cell, must agree within the differential bound.
func TestFastVsReferenceMatrix(t *testing.T) {
	st, err := fastMatrix()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceMatrix()
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i, row := range st.Mean.Vals {
		for j, v := range row {
			d := relDiff(v, ref.Vals[i][j])
			if d > worst {
				worst = d
			}
			if d > DiffRelTol {
				t.Errorf("%v/%v: fast %g vs reference %g (rel %g)",
					st.Mean.Events[i], st.Mean.Events[j], v, ref.Vals[i][j], d)
			}
		}
	}
	t.Logf("worst fast-vs-reference cell: %.3g relative", worst)
}

func TestNoiseFloorDiagonal(t *testing.T) {
	r, err := VerifyNoiseFloorDiagonal(machine.Core2Duo(), savat.FastConfig(), savat.Events(),
		propertySeed, DefaultPipelineTolerances())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestLoopCountScaling(t *testing.T) {
	// All frequencies satisfy Nyquist at the default 2^18 Hz capture rate.
	freqs := []float64{40e3, 80e3, 120e3}
	r, err := VerifyLoopCountScaling(machine.Core2Duo(), savat.FastConfig(), savat.LDM, savat.NOI,
		freqs, propertySeed, DefaultPipelineTolerances())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestLoopCountScalingRejectsShortSweep(t *testing.T) {
	_, err := VerifyLoopCountScaling(machine.Core2Duo(), savat.FastConfig(), savat.LDM, savat.NOI,
		[]float64{80e3}, propertySeed, DefaultPipelineTolerances())
	if err == nil {
		t.Fatal("single-frequency sweep accepted")
	}
}

func TestPermutationInvariance(t *testing.T) {
	events := []savat.Event{savat.NOI, savat.ADD, savat.MUL, savat.LDM, savat.STM}
	r, err := VerifyPermutationInvariance(savat.CampaignSpec{
		Machine: "Core2Duo", Config: savat.FastConfig(), Events: events, Repeats: 1, Seed: propertySeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestChannelMatrices sweeps the matrix-shape property suite over every
// registered side channel: the radiated EM seam and the conducted power
// and impedance channels must all produce matrices with finite
// non-negative cells, noise-floor diagonals, and swap symmetry — the
// invariants are physics of the alternation methodology, not of any one
// coupling table.
func TestChannelMatrices(t *testing.T) {
	events := []savat.Event{savat.NOI, savat.ADD, savat.MUL, savat.LDM, savat.STM}
	for _, name := range machine.ChannelNames() {
		ch, err := machine.ChannelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := savat.FastConfig()
		cfg.Channel = name
		if name != "em" {
			cfg.Environment = ch.Environment()
		}
		st, err := runCampaign(cfg, events, propertySeed, engine.Options{})
		if err != nil {
			t.Fatalf("channel %s: %v", name, err)
		}
		r := VerifyMatrix("channel-"+name, st.Mean, DefaultMatrixTolerances())
		t.Log("\n" + r.String())
		if err := r.Err(); err != nil {
			t.Errorf("channel %s: %v", name, err)
		}
	}
}

// TestDistanceFlatConducted pins the conducted-channel invariant: a
// power-rail instrument does not move when the "antenna distance"
// changes, so campaigns differing only in Config.Distance must produce
// bit-identical matrices — under emsim.LawFlat the distance enters no
// coupling, no asymmetry decay, and no seed.
func TestDistanceFlatConducted(t *testing.T) {
	events := []savat.Event{savat.NOI, savat.ADD, savat.LDM}
	distances := []float64{0.10, 0.50, 1.00}
	for _, name := range []string{"power", "impedance"} {
		ch, err := machine.ChannelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var ms []*savat.Matrix
		for _, d := range distances {
			cfg := savat.FastConfig()
			cfg.Channel = name
			cfg.Environment = ch.Environment()
			cfg.Distance = d
			st, err := runCampaign(cfg, events, propertySeed, engine.Options{})
			if err != nil {
				t.Fatalf("channel %s at %g m: %v", name, d, err)
			}
			ms = append(ms, st.Mean)
		}
		r, err := VerifyDistanceFlat(distances, ms)
		if err != nil {
			t.Fatal(err)
		}
		t.Log("\n" + r.String())
		if err := r.Err(); err != nil {
			t.Errorf("channel %s: %v", name, err)
		}
	}
}

func TestDistanceDecayMeasured(t *testing.T) {
	events := []savat.Event{savat.NOI, savat.ADD, savat.MUL, savat.LDM, savat.STM}
	distances := []float64{0.10, 0.50, 1.00}
	var ms []*savat.Matrix
	for _, d := range distances {
		cfg := savat.FastConfig()
		cfg.Distance = d
		st, err := runCampaign(cfg, events, propertySeed, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, st.Mean)
	}
	r, err := VerifyDistanceDecay(distances, ms, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}
