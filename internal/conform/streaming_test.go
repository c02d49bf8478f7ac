package conform

import (
	"context"
	"testing"

	"repro/internal/savat"
)

// TestStreamingParallelCampaign runs a campaign over three engine
// workers, each streaming multi-segment captures through its own
// scratch, and checks the result against a one-worker campaign. Exact
// equality is required: cells are independent of scheduling, and each
// capture's segments reduce in capture order. Run under -race (CI
// does) this doubles as the data-race check on the workers' scratches,
// free list and shared caches inside the campaign engine.
func TestStreamingParallelCampaign(t *testing.T) {
	cfg := savat.DefaultConfig()
	cfg.Duration = 1.0 / 16
	cfg.Analyzer.RBW = 50 // several Welch segments per capture
	events := []savat.Event{savat.ADD, savat.LDM, savat.DIV}
	spec := savat.CampaignSpec{Machine: "Core2Duo", Config: cfg, Events: events, Repeats: 2, Seed: 5}

	parallel, err := savat.RunSpecContext(context.Background(), spec, savat.CampaignOptions{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := savat.RunSpecContext(context.Background(), spec, savat.CampaignOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range events {
		for _, b := range events {
			pv := parallel.Mean.MustAt(a, b)
			sv := sequential.Mean.MustAt(a, b)
			if pv != sv {
				t.Errorf("%v/%v: parallel campaign %g != sequential %g (must be bit-identical)", a, b, pv, sv)
			}
		}
	}
}
