package savat

import (
	"math/rand"
	"testing"

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

func TestBuildSequenceKernelErrors(t *testing.T) {
	mc := machine.Core2Duo()
	if _, err := BuildSequenceKernel(mc, Sequence{}, Sequence{ADD}, 80e3); err == nil {
		t.Error("empty sequence should fail")
	}
	if _, err := BuildSequenceKernel(mc, Sequence{ADD}, Sequence{ADD}, 0); err == nil {
		t.Error("zero frequency should fail")
	}
	if _, err := BuildSequenceKernel(machine.Config{}, Sequence{ADD}, Sequence{ADD}, 80e3); err == nil {
		t.Error("bad machine should fail")
	}
}

// A sequence kernel must calibrate to the intended frequency like a
// single-instruction kernel.
func TestSequenceKernelFrequency(t *testing.T) {
	mc := machine.Core2Duo()
	k, err := BuildSequenceKernel(mc, Sequence{ADD, MUL, DIV}, Sequence{LDM, ADD}, 80e3)
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

// A single-event sequence must agree with the plain single-instruction
// measurement (same methodology, same structure).
func TestSingleEventSequenceMatchesSingle(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	rngA := rand.New(rand.NewSource(5))
	seq, err := MeasureSequence(mc, Sequence{ADD}, Sequence{LDM}, cfg, rngA)
	if err != nil {
		t.Fatal(err)
	}
	rngB := rand.New(rand.NewSource(5))
	single, err := NewMeasurer(mc, cfg).Measure(ADD, LDM, rngB)
	if err != nil {
		t.Fatal(err)
	}
	ratio := seq.SAVAT / single.SAVAT
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("single-event sequence %.3g vs single %.3g (ratio %.2f)",
			seq.ZJ(), single.ZJ()*1e21, ratio)
	}
}

// Longer differing sequences carry more signal per pair: A = three loud
// events vs B = three quiet ones should exceed the single-pair SAVAT.
func TestSequenceAccumulatesSignal(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	rng := rand.New(rand.NewSource(6))
	three, err := MeasureSequence(mc, Sequence{LDM, ADD, LDM}, Sequence{ADD, ADD, ADD}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(6))
	one, err := MeasureSequence(mc, Sequence{LDM, ADD, ADD}, Sequence{ADD, ADD, ADD}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if three.SAVAT <= one.SAVAT {
		t.Errorf("two LDM differences (%v zJ) should exceed one (%v zJ)", three.ZJ(), one.ZJ())
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
	seq, err := MeasureSequence(mc, a, b, cfg, rng)
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
	fl, err := MeasureSequence(mc, a, a, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	want += fl.SAVAT * float64(fl.Measurement.LoopCount) / float64(seq.Measurement.LoopCount)
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
