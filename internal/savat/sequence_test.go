package savat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/counter"
	"repro/internal/machine"
)

func TestSequenceString(t *testing.T) {
	if s := (Sequence{ADD, LDM, MUL}).String(); s != "ADD+LDM+MUL" {
		t.Errorf("String = %q", s)
	}
	if s := (Sequence{}).String(); s != "∅" {
		t.Errorf("empty String = %q", s)
	}
}

func TestSequenceValidate(t *testing.T) {
	good := []Sequence{
		{ADD},
		{ADD, MUL, DIV},
		{LDM, ADD, STM},   // both main-memory class
		{LDL1, STL1, NOI}, // both L1 class
		{BPH, BPM, ADD},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", s, err)
		}
	}
	bad := []Sequence{
		{},
		{ADD, ADD, ADD, ADD, ADD},
		{LDM, LDL1},      // mixed cache levels
		{LDL2, ADD, STM}, // mixed cache levels
		{Event(99)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%v) should fail", s)
		}
	}
}

// Neither the kernel builder nor a sequence measurement accepts an
// invalid sequence, frequency or machine.
func TestSequenceKernelErrors(t *testing.T) {
	mc := machine.Core2Duo()
	for _, c := range []struct {
		name string
		mc   machine.Config
		a    Sequence
		f    float64
	}{
		{"empty sequence", mc, Sequence{}, 80e3},
		{"long sequence", mc, Sequence{ADD, ADD, ADD, ADD, ADD}, 80e3},
		{"zero frequency", mc, Sequence{ADD}, 0},
		{"NaN frequency", mc, Sequence{ADD}, math.NaN()},
		{"+Inf frequency", mc, Sequence{ADD}, math.Inf(1)},
		{"-Inf frequency", mc, Sequence{ADD}, math.Inf(-1)},
		{"bad machine", machine.Config{}, Sequence{ADD}, 80e3},
	} {
		if k, err := buildKernel(c.mc, c.a, Sequence{ADD}, c.f, SweepOffset); err == nil {
			t.Errorf("%s should fail, got a kernel with LoopCount %d", c.name, k.LoopCount)
		}
		cfg := FastConfig()
		cfg.Frequency = c.f
		if m, err := NewMeasurer(c.mc, cfg).MeasureSequence(c.a, Sequence{ADD}, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%s: measurement should fail, got %v zJ", c.name, m.ZJ())
		}
	}
}

// A sequence kernel must calibrate to the intended frequency like a
// single-instruction kernel.
func TestSequenceKernelFrequency(t *testing.T) {
	mc := machine.Core2Duo()
	k, err := buildKernel(mc, Sequence{ADD, MUL, DIV}, Sequence{LDM, ADD}, 80e3, SweepOffset)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := k.Alternation(mc, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f := alt.ActualFrequency(); f < 76e3 || f > 84e3 {
		t.Errorf("sequence kernel achieved %v Hz", f)
	}
}

// A single-event sequence is the plain single-instruction measurement:
// one builder, one calibration, the same rng draws.
func TestSingleEventSequenceMatchesSingle(t *testing.T) {
	mc := machine.Core2Duo()
	for _, chain := range []string{"", "noop-insert:0.5"} {
		cfg := FastConfig()
		if chain != "" {
			c, err := counter.ParseChain([]string{chain})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Countermeasures = c
		}
		got, err := NewMeasurer(mc, cfg).MeasureSequence(Sequence{ADD}, Sequence{LDM}, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		single, err := NewMeasurer(mc, cfg).Measure(ADD, LDM, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		if got.SAVAT != single.SAVAT || got.LoopCount != single.LoopCount || got.A != ADD || got.B != LDM {
			t.Errorf("chain %q: single-event sequence %v/%v %.6g zJ (N=%d) vs single %v/%v %.6g zJ (N=%d)",
				chain, got.A, got.B, got.ZJ(), got.LoopCount, single.A, single.B, single.ZJ(), single.LoopCount)
		}
	}
}

// Longer differing sequences carry more signal per pair: A = three loud
// events vs B = three quiet ones should exceed the single-pair SAVAT.
func TestSequenceAccumulatesSignal(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	rng := rand.New(rand.NewSource(6))
	three, err := NewMeasurer(mc, cfg).MeasureSequence(Sequence{LDM, ADD, LDM}, Sequence{ADD, ADD, ADD}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(6))
	single, err := NewMeasurer(mc, cfg).MeasureSequence(Sequence{LDM, ADD, ADD}, Sequence{ADD, ADD, ADD}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if three.SAVAT <= single.SAVAT {
		t.Errorf("two LDM differences (%v zJ) should exceed one (%v zJ)", three.ZJ(), single.ZJ())
	}
}

// The paper's additivity estimate is in the right ballpark but imprecise.
func TestSequenceAdditivity(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	rng := rand.New(rand.NewSource(7))
	measured, estimated, err := SequenceAdditivity(mc,
		Sequence{LDM, DIV}, Sequence{ADD, ADD}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if measured <= 0 || estimated <= 0 {
		t.Fatalf("measured %v estimated %v", measured, estimated)
	}
	ratio := measured / estimated
	if ratio < 0.25 || ratio > 4 {
		t.Errorf("additivity ratio %v outside plausibility band", ratio)
	}

	// The estimate is the paper's sum: each differing position's single
	// SAVAT less its own floor, plus one sequence floor — recomputed here
	// on a fresh Measurer per measurement, drawing the same rng stream.
	rng = rand.New(rand.NewSource(7))
	a, b := Sequence{LDM, DIV}, Sequence{ADD, ADD}
	seq, err := NewMeasurer(mc, cfg).MeasureSequence(a, b, rng)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := range a {
		m, err := NewMeasurer(mc, cfg).Measure(a[i], b[i], rng)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := NewMeasurer(mc, cfg).Measure(a[i], a[i], rng)
		if err != nil {
			t.Fatal(err)
		}
		if d := m.SAVAT - fl.SAVAT*float64(fl.LoopCount)/float64(m.LoopCount); d > 0 {
			want += d
		}
	}
	fl, err := NewMeasurer(mc, cfg).MeasureSequence(a, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	want += fl.SAVAT * float64(fl.LoopCount) / float64(seq.LoopCount)
	if measured != seq.SAVAT || estimated != want {
		t.Errorf("SequenceAdditivity = (%v, %v), independent Measurers give (%v, %v)", measured, estimated, seq.SAVAT, want)
	}
}

// Branch-prediction extension events: a mispredict stream is
// distinguishable from a predicted stream (the Section VII suggestion).
func TestBranchPredictionEvents(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	rng := rand.New(rand.NewSource(8))
	bpmBph, err := NewMeasurer(mc, cfg).Measure(BPM, BPH, rng)
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(8))
	floor, err := NewMeasurer(mc, cfg).Measure(BPH, BPH, rng)
	if err != nil {
		t.Fatal(err)
	}
	if bpmBph.SAVAT <= floor.SAVAT {
		t.Errorf("BPM/BPH (%v zJ) should exceed the BPH/BPH floor (%v zJ)",
			bpmBph.ZJ(), floor.ZJ())
	}
	// The kernel must actually mispredict in the BPM half: its half is
	// much slower than the BPH half.
	k, err := BuildKernel(mc, BPH, BPM, 80e3)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := k.Alternation(mc, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if alt.PhaseStats[1].MeanCycles <= 1.5*alt.PhaseStats[0].MeanCycles {
		t.Errorf("BPM half (%v cycles) should be much slower than BPH half (%v)",
			alt.PhaseStats[1].MeanCycles, alt.PhaseStats[0].MeanCycles)
	}
}

func TestExtensionEventTable(t *testing.T) {
	if len(ExtendedEvents()) != int(NumExtEvents) {
		t.Fatal("ExtendedEvents length")
	}
	if !BPH.IsExtension() || !BPM.IsExtension() || ADD.IsExtension() {
		t.Error("IsExtension wrong")
	}
	if !BPH.IsBranch() || !BPM.IsBranch() || JmpFalse() {
		t.Error("IsBranch wrong")
	}
	if BPH.String() != "BPH" || BPM.String() != "BPM" {
		t.Error("extension names wrong")
	}
	if e, err := EventByName("BPM"); err != nil || e != BPM {
		t.Error("EventByName(BPM) failed")
	}
	// Naive methodology rejects extensions.
	if _, err := NaiveMeasure(machine.Core2Duo(), BPH, BPM, 0.1, DefaultScopeConfig(), 1, 1); err == nil {
		t.Error("naive with extension events should fail")
	}
}

// JmpFalse exists to keep the assertion above readable.
func JmpFalse() bool { return LDM.IsBranch() }
