package counter_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/counter"
	"repro/internal/emsim"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/savat"
)

func TestParse(t *testing.T) {
	good := map[string]counter.Spec{
		"noop-insert:0.1":    {Name: counter.NoopInsert, Param: 0.1},
		"shuffle:8":          {Name: counter.Shuffle, Param: 8},
		"noise-gen:5e-16":    {Name: counter.NoiseGen, Param: 5e-16},
		"supply-filter:40e3": {Name: counter.SupplyFilter, Param: 40e3},
		" shuffle : 2 ":      {Name: counter.Shuffle, Param: 2},
	}
	for text, want := range good {
		s, err := counter.Parse(text)
		if err != nil {
			t.Errorf("Parse(%q): %v", text, err)
			continue
		}
		if s != want {
			t.Errorf("Parse(%q) = %+v, want %+v", text, s, want)
		}
	}
	bad := []string{
		"",                 // no colon
		"noop-insert",      // no parameter
		"noop-insert:x",    // unparsable parameter
		"noop-insert:0",    // p outside (0,1)
		"noop-insert:1",    // p outside (0,1)
		"shuffle:1",        // window below 2
		"shuffle:65",       // window above 64
		"shuffle:2.5",      // non-integer window
		"noise-gen:0",      // non-positive PSD
		"noise-gen:-1e-17", // negative PSD
		"supply-filter:0",  // non-positive cutoff
		"degauss:1",        // unknown name
	}
	for _, text := range bad {
		if _, err := counter.Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted", text)
		}
	}
}

func TestParseChainRoundTrip(t *testing.T) {
	texts := []string{"noop-insert:0.1", "supply-filter:20000"}
	c, err := counter.ParseChain(texts)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.String(); got != "noop-insert:0.1,supply-filter:20000" {
		t.Errorf("chain renders as %q", got)
	}
	c2, err := counter.ParseChain([]string{c[0].String(), c[1].String()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, c2) {
		t.Errorf("String/Parse round trip changed the chain: %+v vs %+v", c, c2)
	}
	if ch, err := counter.ParseChain(nil); err != nil || ch != nil {
		t.Errorf("empty chain parsed to %v, %v", ch, err)
	}
	if err := (counter.Chain{{Name: "bogus"}}).Validate(); err == nil {
		t.Error("invalid chain validated")
	}
}

func TestHasProgram(t *testing.T) {
	if (counter.Chain{{Name: counter.NoiseGen, Param: 1e-17}, {Name: counter.SupplyFilter, Param: 1e4}}).HasProgram() {
		t.Error("model-only chain claims a program countermeasure")
	}
	if !(counter.Chain{{Name: counter.Shuffle, Param: 4}}).HasProgram() {
		t.Error("shuffle chain claims no program countermeasure")
	}
}

// semanticProgram is a small loop with arithmetic, a store/load pair, and
// a back-branch: enough structure that a broken branch relocation or an
// unsafe swap changes the architectural result.
func semanticProgram() ([]isa.Instruction, map[int]int) {
	return []isa.Instruction{
		{Op: isa.MOVI, Rd: 1, Imm: 6},
		{Op: isa.MOVI, Rd: 2, Imm: 0},
		{Op: isa.MOVI, Rd: 3, Imm: 0},
		{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 3}, // loop head, phase marker
		{Op: isa.MULI, Rd: 4, Rs1: 2, Imm: 5},
		{Op: isa.ST, Rd: 4, Rs1: 3},
		{Op: isa.LD, Rd: 5, Rs1: 3},
		{Op: isa.ADDR, Rd: 2, Rs1: 2, Rs2: 5},
		{Op: isa.SUBI, Rd: 1, Rs1: 1, Imm: 1},
		{Op: isa.BNE, Rd: 1, Rs1: 0, Imm: -7},
		{Op: isa.HALT},
	}, map[int]int{3: 0}
}

// runResult executes a program and returns the architectural facts a
// countermeasure must preserve: the accumulator, the halt state, and the
// phase-sample ID sequence.
func runResult(t *testing.T, prog []isa.Instruction, phaseAt map[int]int) (uint32, bool, []int) {
	t.Helper()
	res, err := machine.MustNew(machine.Core2Duo()).RunPhases(prog, phaseAt, machine.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(res.Samples))
	for i, s := range res.Samples {
		ids[i] = s.ID
	}
	return res.CPU.Reg(2), res.Halted, ids
}

func TestTransformProgramPreservesSemantics(t *testing.T) {
	prog, phaseAt := semanticProgram()
	wantAcc, wantHalt, wantIDs := runResult(t, prog, phaseAt)
	if !wantHalt {
		t.Fatal("baseline program did not halt")
	}
	if len(wantIDs) != 6 {
		t.Fatalf("baseline produced %d phase samples, want 6", len(wantIDs))
	}

	chains := []counter.Chain{
		{{Name: counter.NoopInsert, Param: 0.4}},
		{{Name: counter.Shuffle, Param: 3}},
		{{Name: counter.NoopInsert, Param: 0.3}, {Name: counter.Shuffle, Param: 2}},
	}
	for _, c := range chains {
		for seed := uint64(0); seed < 20; seed++ {
			got, gotPhase, err := counter.TransformProgram(prog, phaseAt, c, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c, seed, err)
			}
			acc, halted, ids := runResult(t, got, gotPhase)
			if acc != wantAcc || !halted || !reflect.DeepEqual(ids, wantIDs) {
				t.Fatalf("%s seed %d: transformed program computes r2=%d halted=%v phases=%v, want r2=%d phases=%v",
					c, seed, acc, halted, ids, wantAcc, wantIDs)
			}
		}
	}
	// The inputs must be untouched.
	origProg, origPhase := semanticProgram()
	if !reflect.DeepEqual(prog, origProg) || !reflect.DeepEqual(phaseAt, origPhase) {
		t.Fatal("TransformProgram mutated its inputs")
	}
}

func TestTransformProgramDeterministicAndSeeded(t *testing.T) {
	prog, phaseAt := semanticProgram()
	c := counter.Chain{{Name: counter.NoopInsert, Param: 0.4}}
	a1, p1, err := counter.TransformProgram(prog, phaseAt, c, 7)
	if err != nil {
		t.Fatal(err)
	}
	a2, p2, err := counter.TransformProgram(prog, phaseAt, c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed produced different programs")
	}

	// A model-only chain is a strict identity: same slices back, no copy.
	modelOnly := counter.Chain{{Name: counter.SupplyFilter, Param: 1e4}}
	got, gotPhase, err := counter.TransformProgram(prog, phaseAt, modelOnly, 7)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &prog[0] {
		t.Error("model-only chain copied the program")
	}
	if !reflect.DeepEqual(gotPhase, phaseAt) {
		t.Error("model-only chain changed the phase map")
	}
}

// TestTransformProgramOnKernel runs the transform over a real calibrated
// alternation kernel: the relocated back-branch must keep the A/B
// alternation intact for the measurement pipeline's phase accounting.
func TestTransformProgramOnKernel(t *testing.T) {
	mc := machine.Core2Duo()
	k, err := savat.BuildKernel(mc, savat.ADD, savat.NOI, 80e3)
	if err != nil {
		t.Fatal(err)
	}
	prog, phaseAt, err := counter.TransformProgram(k.Program, k.PhaseAt,
		counter.Chain{{Name: counter.NoopInsert, Param: 0.2}, {Name: counter.Shuffle, Param: 4}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) <= len(k.Program) {
		t.Fatalf("no-op insertion did not grow the kernel: %d -> %d", len(k.Program), len(prog))
	}
	m := machine.MustNew(mc)
	base, err := m.RunPhases(k.Program, k.PhaseAt, machine.RunOptions{MaxSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.RunPhases(prog, phaseAt, machine.RunOptions{MaxSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(base.Samples) {
		t.Fatalf("transformed kernel produced %d phase samples, want %d", len(got.Samples), len(base.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i].ID != base.Samples[i].ID {
			t.Fatalf("phase %d is %d, want %d: alternation order broken", i, got.Samples[i].ID, base.Samples[i].ID)
		}
	}
}

func TestApplySources(t *testing.T) {
	var tab emsim.SourceTable
	tab[0].Near, tab[0].Far, tab[0].Diffuse = 1, 2, 4
	// Cutoff equal to the alternation frequency → 1/√2 on conducted terms.
	got := counter.ApplySources(tab, counter.Chain{{Name: counter.SupplyFilter, Param: 80e3}}, 80e3)
	if got[0].Near != 1 || got[0].Far != 2 {
		t.Errorf("supply filter touched radiated terms: %+v", got[0])
	}
	if want := 4 / 1.4142135623730951; got[0].Diffuse != want {
		t.Errorf("filtered diffuse coupling %g, want %g", got[0].Diffuse, want)
	}
	// A model-free chain changes nothing.
	if counter.ApplySources(tab, counter.Chain{{Name: counter.NoopInsert, Param: 0.1}}, 80e3) != tab {
		t.Error("non-filter chain changed the source table")
	}
}

func TestApplyEnvironmentAndJitter(t *testing.T) {
	env := noise.Quiet()
	withGen := counter.ApplyEnvironment(env, counter.Chain{{Name: counter.NoiseGen, Param: 3e-16}})
	if want := env.RFBackgroundPSD + 3e-16; withGen.RFBackgroundPSD != want {
		t.Errorf("noise generator raised floor to %g, want %g", withGen.RFBackgroundPSD, want)
	}
	var jit emsim.Jitter
	jit = counter.ApplyJitter(jit, counter.Chain{
		{Name: counter.NoopInsert, Param: 0.2},
		{Name: counter.Shuffle, Param: 10},
	})
	if jit.FreqOffset != 0.1 {
		t.Errorf("no-op insertion frequency offset %g, want 0.1", jit.FreqOffset)
	}
	if math.Abs(jit.DriftStd-(0.05*0.2+0.0002*10)) > 1e-15 {
		t.Errorf("combined drift %g", jit.DriftStd)
	}
}

// A shuffle never moves an instruction across a branch target: cut at
// every branch, HALT, phase marker and branch target, each stretch of
// the shuffled program holds the same instructions as the original's,
// and every rewritten Figure 9 kernel still reaches its phase markers.
// (Swapping the instruction before a loop head into the loop once
// turned the Core 2 Duo LDL1/SUB kernel's pre-touch loop endless.)
func TestShuffleKeepsBranchTargets(t *testing.T) {
	mc := machine.Core2Duo()
	m := machine.MustNew(mc)
	chain := counter.Chain{{Name: counter.Shuffle, Param: 4}}
	for a := savat.Event(0); a < savat.NumEvents; a++ {
		for b := savat.Event(0); b < savat.NumEvents; b++ {
			k, err := savat.BuildKernel(mc, a, b, 80e3)
			if err != nil {
				t.Fatal(err)
			}
			cut := make([]bool, len(k.Program)+1)
			for i, in := range k.Program {
				_, marker := k.PhaseAt[i]
				if marker || in.IsBranch() || in.Op == isa.HALT {
					cut[i], cut[i+1] = true, true
				}
				if in.IsBranch() {
					cut[i+1+int(in.Imm)] = true
				}
			}
			seed := uint64(97*int64(a) + 13*int64(b) + 1)
			prog, phaseAt, err := counter.TransformProgram(k.Program, k.PhaseAt, chain, seed)
			if err != nil {
				t.Fatal(err)
			}
			for start := 0; start < len(prog); {
				end := start + 1
				for !cut[end] {
					end++
				}
				want := map[isa.Instruction]int{}
				for i := start; i < end; i++ {
					want[k.Program[i]]++
					want[prog[i]]--
				}
				for in, d := range want {
					if d != 0 {
						t.Fatalf("%v/%v: %v crosses a cut into or out of [%d, %d)", a, b, in, start, end)
					}
				}
				start = end
			}
			res, err := m.RunPhases(prog, phaseAt, machine.RunOptions{MaxSamples: 4, MaxSteps: 2_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Samples) != 4 {
				t.Fatalf("%v/%v: shuffled kernel gave %d of 4 phase samples within 2 M steps", a, b, len(res.Samples))
			}
		}
	}
}
