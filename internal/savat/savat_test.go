package savat

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/activity"
	"repro/internal/engine"
	"repro/internal/machine"
)

func TestEventTable(t *testing.T) {
	if len(Events()) != 11 {
		t.Fatalf("expected 11 events, got %d", len(Events()))
	}
	// Figure 9 order.
	want := []string{"LDM", "STM", "LDL2", "STL2", "LDL1", "STL1", "NOI", "ADD", "SUB", "MUL", "DIV"}
	for i, e := range Events() {
		if e.String() != want[i] {
			t.Errorf("event %d = %v, want %v", i, e, want[i])
		}
	}
	for _, e := range Events() {
		if e != NOI && e.X86() == "" {
			t.Errorf("%v missing x86 instruction", e)
		}
		if e.Description() == "" {
			t.Errorf("%v missing description", e)
		}
	}
	if !LDM.IsLoad() || !STM.IsStore() || ADD.IsMem() || !STL1.IsMem() {
		t.Error("load/store classification wrong")
	}
	if Event(99).Valid() || Event(99).X86() != "" || Event(99).Description() != "" {
		t.Error("invalid event handling wrong")
	}
	if !strings.Contains(Event(99).String(), "99") {
		t.Error("invalid event string")
	}
	if len(LoadEvents()) != 3 || len(StoreEvents()) != 3 {
		t.Error("load/store event sets wrong")
	}
}

func TestEventByName(t *testing.T) {
	for _, e := range Events() {
		got, err := EventByName(e.String())
		if err != nil || got != e {
			t.Errorf("EventByName(%v) = %v, %v", e, got, err)
		}
	}
	if _, err := EventByName("FROB"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestArrayBytes(t *testing.T) {
	mc := machine.Core2Duo()
	l1 := mc.Mem.L1.SizeBytes
	l2 := mc.Mem.L2.SizeBytes
	if got := arrayBytes(LDL1, mc); got >= l1 {
		t.Errorf("L1 array %d must fit in L1 %d", got, l1)
	}
	if got := arrayBytes(LDL2, mc); got <= l1 || got > l2/2 {
		t.Errorf("L2 array %d must exceed L1 %d and fit in half of L2 %d", got, l1, l2)
	}
	if got := arrayBytes(LDM, mc); got <= l2 {
		t.Errorf("memory array %d must exceed L2 %d", got, l2)
	}
	if got := arrayBytes(ADD, mc); got <= 0 {
		t.Error("non-memory events still sweep a dummy region")
	}
}

func TestBuildKernelErrors(t *testing.T) {
	mc := machine.Core2Duo()
	if _, err := BuildKernel(mc, Event(99), ADD, 80e3); err == nil {
		t.Error("invalid event should fail")
	}
	if _, err := BuildKernel(mc, ADD, ADD, 0); !errors.Is(err, ErrBadFrequency) {
		t.Errorf("zero frequency: err = %v, want ErrBadFrequency", err)
	}
	if _, err := BuildKernel(mc, ADD, ADD, math.NaN()); !errors.Is(err, ErrBadFrequency) {
		t.Errorf("NaN frequency: err = %v, want ErrBadFrequency", err)
	}
	if _, err := BuildKernel(mc, ADD, ADD, 1e9); !errors.Is(err, ErrBadFrequency) {
		t.Errorf("absurd frequency: err = %v, want ErrBadFrequency", err)
	}
	if _, err := BuildKernel(machine.Config{}, ADD, ADD, 80e3); err == nil {
		t.Error("invalid machine should fail")
	}
}

// The calibrated kernel must achieve the intended alternation frequency
// within a small tolerance, for representative pairs on every machine.
func TestKernelFrequencyCalibration(t *testing.T) {
	pairs := [][2]Event{{ADD, ADD}, {ADD, LDM}, {DIV, STL2}}
	for _, mc := range machine.CaseStudyMachines() {
		for _, p := range pairs {
			k, err := BuildKernel(mc, p[0], p[1], 80e3)
			if err != nil {
				t.Fatalf("%s %v/%v: %v", mc.Name, p[0], p[1], err)
			}
			alt, err := k.Alternation(mc, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			f := alt.ActualFrequency()
			if f < 76e3 || f > 84e3 {
				t.Errorf("%s %v/%v: achieved %v Hz, want ≈80 kHz (N=%d)",
					mc.Name, p[0], p[1], f, k.LoopCount)
			}
		}
	}
}

// The kernel's cache behaviour must match its event labels: LDL1 hits L1,
// LDL2 hits L2, LDM reaches memory.
func TestKernelCacheBehaviour(t *testing.T) {
	mc := machine.Core2Duo()
	cases := []struct {
		e    Event
		comp activity.Component
		min  float64 // min steady-state events per iteration for that component
	}{
		{LDL2, activity.L2, 0.04},   // ≈1/16 per iteration
		{LDM, activity.Bus, 0.04},   // ≈1/16
		{STL2, activity.L2, 0.07},   // ≈1.5/16
		{STM, activity.BusWr, 0.10}, // ≈2/16 (write-combined flush + DRAM burst)
	}
	for _, c := range cases {
		k, err := BuildKernel(mc, NOI, c.e, 80e3)
		if err != nil {
			t.Fatal(err)
		}
		alt, err := k.Alternation(mc, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		// Phase B runs the event under test.
		iterRate := mc.ClockHz / alt.PhaseStats[1].MeanCycles * float64(k.LoopCount)
		perIter := alt.PhaseStats[1].MeanRates[c.comp] / iterRate
		if perIter < c.min {
			t.Errorf("%v: %v events per iteration = %v, want ≥ %v", c.e, c.comp, perIter, c.min)
		}
		// Phase A (NOI) must have no memory traffic at all.
		if alt.PhaseStats[0].MeanRates[activity.L1D] != 0 {
			t.Errorf("%v: NOI phase performed memory accesses", c.e)
		}
	}
}

// LDL1 must be serviced by L1 in steady state: no L2 or bus traffic.
func TestKernelL1HitSteadyState(t *testing.T) {
	mc := machine.Core2Duo()
	k, err := BuildKernel(mc, NOI, LDL1, 80e3)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := k.Alternation(mc, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := alt.PhaseStats[1].MeanRates
	if b[activity.L1D] == 0 {
		t.Error("LDL1 phase should access L1")
	}
	iterRate := mc.ClockHz / alt.PhaseStats[1].MeanCycles * float64(k.LoopCount)
	if frac := b[activity.Bus] / iterRate; frac > 0.001 {
		t.Errorf("LDL1 phase reaches the bus at %v per iteration", frac)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := FastConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mod := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []Config{
		mod(func(c *Config) { c.Distance = 0 }),
		mod(func(c *Config) { c.Frequency = 0 }),
		mod(func(c *Config) { c.BandHalfWidth = 0 }),
		mod(func(c *Config) { c.BandHalfWidth = c.Frequency }),
		mod(func(c *Config) { c.SampleRate = 100e3 }),
		mod(func(c *Config) { c.Duration = 0 }),
		mod(func(c *Config) { c.MeasurePeriods = 0 }),
		mod(func(c *Config) { c.Analyzer.RBW = 0 }),
		mod(func(c *Config) { c.Environment.ThermalPSD = -1 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestMeasureDeterministic(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	run := func() float64 {
		rng := rand.New(rand.NewSource(7))
		m, err := NewMeasurer(mc, cfg).Measure(ADD, LDM, rng)
		if err != nil {
			t.Fatal(err)
		}
		return m.SAVAT
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed must reproduce: %v vs %v", a, b)
	}
	if _, err := NewMeasurer(mc, cfg).Measure(ADD, LDM, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

// The headline sanity checks of Figure 9, on the fast configuration:
// off-chip vs on-chip is large, same-instruction is small, and the
// measurement unit is zeptojoules.
func TestMeasureFigure9Shape(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	get := func(a, b Event) float64 {
		rng := rand.New(rand.NewSource(11))
		m, err := NewMeasurer(mc, cfg).Measure(a, b, rng)
		if err != nil {
			t.Fatal(err)
		}
		return m.ZJ()
	}
	addAdd := get(ADD, ADD)
	addLdm := get(ADD, LDM)
	addLdl2 := get(ADD, LDL2)
	addLdl1 := get(ADD, LDL1)
	if addAdd < 0.1 || addAdd > 2 {
		t.Errorf("ADD/ADD = %v zJ, want sub-zJ floor", addAdd)
	}
	if addLdm < 3*addAdd {
		t.Errorf("ADD/LDM (%v) should dwarf ADD/ADD (%v)", addLdm, addAdd)
	}
	if addLdl2 < 3*addAdd {
		t.Errorf("ADD/LDL2 (%v) should dwarf ADD/ADD (%v) at 10 cm", addLdl2, addAdd)
	}
	if addLdl1 > 2*addAdd {
		t.Errorf("ADD/LDL1 (%v) should sit at the floor (%v)", addLdl1, addAdd)
	}
}

func TestMeasurementAccessors(t *testing.T) {
	mc := machine.Core2Duo()
	rng := rand.New(rand.NewSource(3))
	m, err := NewMeasurer(mc, FastConfig()).Measure(ADD, DIV, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.A != ADD || m.B != DIV {
		t.Error("pair labels wrong")
	}
	if m.ZJ() != m.SAVAT*1e21 {
		t.Error("ZJ conversion wrong")
	}
	if m.BandPower <= 0 || m.PairsPerSecond <= 0 || m.LoopCount <= 0 {
		t.Errorf("degenerate measurement: %+v", m)
	}
	if m.Trace == nil {
		t.Error("missing spectrum trace")
	}
	// The spectrum must show signal in the measurement band.
	pk, psd, err := m.Trace.Peak(80e3, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	if psd <= m.Trace.FloorPSD {
		t.Error("no signal above floor in the band")
	}
	if pk < 79e3 || pk > 81e3 {
		t.Errorf("peak at %v Hz", pk)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix([]Event{ADD, LDM, DIV})
	if m.Size() != 3 {
		t.Fatal("size")
	}
	m.Vals[0][1] = 5e-21
	v, err := m.At(ADD, LDM)
	if err != nil || v != 5e-21 {
		t.Errorf("At = %v, %v", v, err)
	}
	if m.MustAt(ADD, LDM) != 5e-21 {
		t.Error("MustAt")
	}
	if _, err := m.At(STL2, ADD); err == nil {
		t.Error("missing event should fail")
	}
	zj := m.ZJ()
	if zj.Vals[0][1] != 5 {
		t.Errorf("ZJ = %v", zj.Vals[0][1])
	}
	if len(m.Flat()) != 9 {
		t.Error("Flat length")
	}
	sym := m.Symmetrized()
	if sym.Vals[0][1] != 2.5e-21 || sym.Vals[1][0] != 2.5e-21 {
		t.Error("Symmetrized wrong")
	}
}

func TestMustAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAt should panic for missing event")
		}
	}()
	NewMatrix([]Event{ADD}).MustAt(ADD, LDM)
}

func TestDiagonalViolations(t *testing.T) {
	m := NewMatrix([]Event{ADD, LDM})
	m.Vals[0][0] = 1 // ADD/ADD
	m.Vals[0][1] = 5
	m.Vals[1][0] = 5
	m.Vals[1][1] = 2
	if v := m.DiagonalViolations(0); len(v) != 0 {
		t.Errorf("clean matrix has violations: %v", v)
	}
	m.Vals[0][1] = 0.5 // below ADD diagonal (row) and LDM diagonal (col)
	v := m.DiagonalViolations(0)
	if len(v) != 2 {
		t.Fatalf("want 2 violations, got %v", v)
	}
	// With 80% tolerance both violations disappear.
	if v := m.DiagonalViolations(0.8); len(v) != 0 {
		t.Errorf("tolerant check should pass: %v", v)
	}
	if !strings.Contains(v[0].String(), "ADD") {
		t.Errorf("violation string: %v", v[0])
	}
}

func TestGroupMeans(t *testing.T) {
	m := NewMatrix([]Event{ADD, SUB, LDM})
	m.Vals[0][1], m.Vals[1][0] = 1, 1 // intra
	m.Vals[0][2], m.Vals[2][0] = 10, 10
	m.Vals[1][2], m.Vals[2][1] = 20, 20
	intra, inter, err := m.GroupMeans([]Event{ADD, SUB}, []Event{LDM})
	if err != nil {
		t.Fatal(err)
	}
	if intra != 1 || inter != 15 {
		t.Errorf("GroupMeans = %v, %v", intra, inter)
	}
	if _, _, err := m.GroupMeans([]Event{ADD}, []Event{}); err == nil {
		t.Error("empty group should fail")
	}
}

func TestSingleInstructionSAVAT(t *testing.T) {
	m := NewMatrix(Events())
	set := func(a, b Event, v float64) {
		i, _ := m.index(a)
		j, _ := m.index(b)
		m.Vals[i][j] = v
	}
	set(LDM, LDL2, 7)
	set(LDL1, LDM, 4)
	got, err := m.SingleInstructionSAVAT(LoadEvents())
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("single-instruction SAVAT = %v, want 7", got)
	}
	if _, err := m.SingleInstructionSAVAT(nil); err == nil {
		t.Error("empty set should fail")
	}
}

// A small campaign: deterministic, self-consistent statistics, sane
// repeatability.
func TestRunSpecSmall(t *testing.T) {
	cfg := FastConfig()
	spec := CampaignSpec{Machine: "Core2Duo", Config: cfg, Events: []Event{ADD, LDM}, Repeats: 3, Seed: 5}
	res, err := runSpec(spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine != "Core2Duo" || res.Distance != cfg.Distance {
		t.Error("campaign metadata wrong")
	}
	for i := range res.Cells {
		for j := range res.Cells[i] {
			c := res.Cells[i][j]
			if c.N != 3 {
				t.Fatalf("cell (%d,%d) has %d samples", i, j, c.N)
			}
			if c.Mean <= 0 {
				t.Fatalf("cell (%d,%d) mean %v", i, j, c.Mean)
			}
			if res.Mean.Vals[i][j] != c.Mean {
				t.Fatal("matrix mean disagrees with cell summary")
			}
		}
	}
	// Off-diagonal dominates diagonal for this pair.
	if res.Mean.MustAt(ADD, LDM) < 2*res.Mean.MustAt(ADD, ADD) {
		t.Error("ADD/LDM should dominate ADD/ADD")
	}
	// Repeatability in the paper's ballpark (σ/mean ≈ 0.05, allow slack).
	if r := res.MeanRelStdDev(); r <= 0 || r > 0.25 {
		t.Errorf("mean σ/mean = %v", r)
	}

	// Determinism.
	res2, err := runSpec(spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Mean.Vals {
		for j := range res.Mean.Vals[i] {
			if res.Mean.Vals[i][j] != res2.Mean.Vals[i][j] {
				t.Fatal("campaign not deterministic")
			}
		}
	}
}

func TestMeasurePair(t *testing.T) {
	mc := machine.Core2Duo()
	vals, sum, err := NewMeasurer(mc, FastConfig()).MeasurePair(ADD, ADD, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || sum.N != 2 {
		t.Errorf("MeasurePair: %v, %+v", vals, sum)
	}
	if _, _, err := NewMeasurer(mc, FastConfig()).MeasurePair(ADD, ADD, 0, 9); err == nil {
		t.Error("zero repeats should fail")
	}
}

func TestSwapAsymmetry(t *testing.T) {
	m := NewMatrix([]Event{ADD, LDM})
	m.Vals[0][1], m.Vals[1][0] = 4, 5 // |4-5|/4.5 ≈ 0.222
	if got := m.SwapAsymmetry(); got < 0.22 || got > 0.23 {
		t.Errorf("SwapAsymmetry = %v", got)
	}
	if got := NewMatrix([]Event{ADD}).SwapAsymmetry(); got != 0 {
		t.Errorf("degenerate SwapAsymmetry = %v", got)
	}
	// Symmetric matrices have zero asymmetry.
	m.Vals[1][0] = 4
	if got := m.SwapAsymmetry(); got != 0 {
		t.Errorf("symmetric SwapAsymmetry = %v", got)
	}
}

func TestDefaultCampaignSpec(t *testing.T) {
	s := DefaultCampaignSpec()
	if len(s.GridEvents()) != 11 || s.Repeats != 10 || s.Machine != "Core2Duo" {
		t.Errorf("defaults: %+v", s)
	}
}
