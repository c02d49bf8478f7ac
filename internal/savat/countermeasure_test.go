package savat

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/counter"
	"repro/internal/engine"
	"repro/internal/machine"
)

func reportSpec() CampaignSpec {
	spec := DefaultCampaignSpec()
	spec.Config = FastConfig()
	spec.Config.Duration = 1.0 / 8
	spec.Events = []Event{LDM, NOI, ADD}
	spec.Repeats = 2
	spec.Seed = 13
	spec.Config.Countermeasures = counter.Chain{{Name: counter.NoopInsert, Param: 0.1}}
	return spec
}

func TestRunCountermeasureReport(t *testing.T) {
	spec := reportSpec()
	rep, err := RunCountermeasureReport(context.Background(), spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The acceptance property: random no-op insertion yields measurable
	// SAVAT attenuation (the run-time frequency shift moves the
	// alternation line out of the ±1 kHz band).
	if rep.MeanAttenuationDB <= 0.5 {
		t.Errorf("noop-insert:0.1 mean attenuation %.2f dB, want measurably positive", rep.MeanAttenuationDB)
	}
	if rep.DistinguishabilityLossDB != rep.DistinguishabilityBeforeDB-rep.DistinguishabilityAfterDB {
		t.Error("distinguishability loss is not before − after")
	}
	if n := len(rep.Events); len(rep.AttenuationDB) != n || len(rep.AttenuationDB[0]) != n {
		t.Fatalf("attenuation grid %dx%d for %d events", len(rep.AttenuationDB), len(rep.AttenuationDB[0]), n)
	}

	// The baseline leg must be bit-identical to running the stripped spec
	// directly: the report changes nothing about how campaigns measure.
	base := spec
	base.Config.Countermeasures = nil
	direct, err := runSpec(base, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep.Baseline.Cells)
	b, _ := json.Marshal(direct.Cells)
	if string(a) != string(b) {
		t.Error("report baseline diverges from a direct run of the stripped spec")
	}

	// Rendering must not fail and must name the chain.
	var buf bytes.Buffer
	if err := rep.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "noop-insert:0.1") {
		t.Errorf("table does not name the chain:\n%s", buf.String())
	}

	// A chain-less spec has no matched pair to compare.
	if _, err := RunCountermeasureReport(context.Background(), base, engine.Options{}); !errors.Is(err, ErrBadCountermeasure) {
		t.Errorf("chain-less report: got %v, want ErrBadCountermeasure", err)
	}
}

// A report's Monitor sees the baseline campaign's cells, numbered
// 1…N by that run's Stats, then the protected campaign's, numbered
// 1…N again, each final call carrying its campaign's final Stats; a
// rejected report calls it never.
func TestRunCountermeasureReportMonitor(t *testing.T) {
	spec := reportSpec()
	spec.Events = []Event{LDM, NOI}
	var dones []int
	var finals []engine.Stats
	monitor := func(ev engine.ProgressEvent) {
		dones = append(dones, ev.Stats.Done)
		if ev.Stats.Done == ev.Stats.Total {
			st := ev.Stats
			st.Elapsed = 0 // Run's own Stats are timed at its return
			finals = append(finals, st)
		}
	}
	rep, err := RunCountermeasureReport(context.Background(), spec, engine.Options{Monitor: monitor})
	if err != nil {
		t.Fatal(err)
	}
	cells := 4 * spec.Repeats
	if len(dones) != 2*cells {
		t.Fatalf("Monitor called %d times, want %d (two campaigns of %d cells)", len(dones), 2*cells, cells)
	}
	for i, d := range dones {
		if want := i%cells + 1; d != want {
			t.Fatalf("call %d saw Stats.Done %d, want %d", i, d, want)
		}
	}
	base, prot := rep.Baseline.Engine, rep.Protected.Engine
	base.Elapsed, prot.Elapsed = 0, 0
	if len(finals) != 2 || finals[0] != base || finals[1] != prot {
		t.Errorf("final calls carried %+v, want the baseline's %+v and the protected run's %+v", finals, base, prot)
	}

	chainless := spec
	chainless.Config.Countermeasures = nil
	dones = nil
	if _, err := RunCountermeasureReport(context.Background(), chainless, engine.Options{Monitor: monitor}); err == nil {
		t.Fatal("chain-less report should fail")
	}
	if len(dones) != 0 {
		t.Errorf("rejected report called the Monitor %d times", len(dones))
	}
}

// TestMeasurerChannelAndChain covers the measurement-level seam: an
// unknown channel fails with the sentinel, a conducted channel measures
// distance-flat, and a model-only chain changes the result without
// touching the program.
func TestMeasurerChannelAndChain(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 8

	bad := cfg
	bad.Channel = "acoustic"
	if _, err := NewMeasurer(mc, bad).Measure(LDM, NOI, rand.New(rand.NewSource(1))); !errors.Is(err, ErrUnknownChannel) {
		t.Errorf("unknown channel: got %v, want ErrUnknownChannel", err)
	}

	// Power channel: the configured distance must not matter.
	power := cfg
	power.Channel = "power"
	power.Environment = machine.Channels()["power"].Environment()
	near, err := NewMeasurer(mc, power).Measure(LDM, NOI, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	power.Distance = 3.0
	far, err := NewMeasurer(mc, power).Measure(LDM, NOI, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if near.SAVAT != far.SAVAT {
		t.Errorf("power channel depends on distance: %g at 0.1 m vs %g at 3 m", near.SAVAT, far.SAVAT)
	}

	// Supply filtering attenuates the conducted measurement.
	filtered := power
	filtered.Distance = cfg.Distance
	filtered.Countermeasures = counter.Chain{{Name: counter.SupplyFilter, Param: 20e3}}
	filt, err := NewMeasurer(mc, filtered).Measure(LDM, NOI, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !(filt.SAVAT < near.SAVAT) {
		t.Errorf("supply filter did not attenuate: %g vs unfiltered %g", filt.SAVAT, near.SAVAT)
	}
}
