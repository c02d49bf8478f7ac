// Cross-module integration tests: the full pipeline from assembly source
// through the cycle-level machine, EM model, and spectrum analyzer to
// SAVAT values, exercised the way the examples and cmd tools use it.
package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/conform"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/paperdata"
	"repro/internal/savat"
	"repro/internal/stats"
)

// The quickstart flow: a single ADD/LDM measurement on the default setup
// lands in the paper's Figure 9 neighbourhood.
func TestIntegrationQuickstart(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := savat.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	m, err := savat.NewMeasurer(mc, cfg).Measure(savat.ADD, savat.LDM, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.ZJ() < 2.5 || m.ZJ() > 7 {
		t.Errorf("ADD/LDM = %.2f zJ, paper Figure 9 says 4.2", m.ZJ())
	}
}

// runSpec runs a test campaign through savat.RunSpecContext with a
// background context.
func runSpec(spec savat.CampaignSpec, opts engine.Options) (*savat.MatrixStats, error) {
	return savat.RunSpecContext(context.Background(), spec, opts)
}

// Campaign results must not depend on scheduling: running the same
// campaign with different parallelism gives identical matrices.
func TestIntegrationCampaignSchedulingIndependence(t *testing.T) {
	spec := savat.CampaignSpec{
		Machine: "Core2Duo", Config: savat.FastConfig(),
		Events:  []savat.Event{savat.ADD, savat.LDM, savat.DIV},
		Repeats: 2, Seed: 3,
	}
	seq, err := runSpec(spec, engine.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runSpec(spec, engine.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Mean.Vals {
		for j := range seq.Mean.Vals[i] {
			if seq.Mean.Vals[i][j] != par.Mean.Vals[i][j] {
				t.Fatalf("cell (%d,%d) differs across parallelism: %v vs %v",
					i, j, seq.Mean.Vals[i][j], par.Mean.Vals[i][j])
			}
		}
	}
}

// A reduced matrix (the loud representatives of each paper group) must
// reproduce the headline orderings of Figure 9 at full fidelity.
func TestIntegrationFigure9Orderings(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity orderings take ~10 s")
	}
	events := []savat.Event{savat.LDM, savat.STL2, savat.LDL2, savat.ADD, savat.DIV}
	res, err := runSpec(savat.CampaignSpec{
		Machine: "Core2Duo", Config: savat.DefaultConfig(),
		Events: events, Repeats: 3, Seed: 1,
	}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mean
	checks := []struct {
		name   string
		holds  bool
		detail [2]float64
	}{
		{"ADD/LDM ≫ ADD/ADD", m.MustAt(savat.ADD, savat.LDM) > 3*m.MustAt(savat.ADD, savat.ADD),
			[2]float64{m.MustAt(savat.ADD, savat.LDM), m.MustAt(savat.ADD, savat.ADD)}},
		{"ADD/LDL2 ≈ ADD/LDM (10 cm headline)", m.MustAt(savat.ADD, savat.LDL2) > 0.5*m.MustAt(savat.ADD, savat.LDM),
			[2]float64{m.MustAt(savat.ADD, savat.LDL2), m.MustAt(savat.ADD, savat.LDM)}},
		{"LDM/LDL2 > ADD/LDM (fields differ)", m.MustAt(savat.LDM, savat.LDL2) > m.MustAt(savat.ADD, savat.LDM),
			[2]float64{m.MustAt(savat.LDM, savat.LDL2), m.MustAt(savat.ADD, savat.LDM)}},
		{"STL2 > LDL2 against ADD (write-backs)", m.MustAt(savat.ADD, savat.STL2) > m.MustAt(savat.ADD, savat.LDL2),
			[2]float64{m.MustAt(savat.ADD, savat.STL2), m.MustAt(savat.ADD, savat.LDL2)}},
		{"ADD/DIV > ADD/ADD (divider visible)", m.MustAt(savat.ADD, savat.DIV) > 1.3*m.MustAt(savat.ADD, savat.ADD),
			[2]float64{m.MustAt(savat.ADD, savat.DIV), m.MustAt(savat.ADD, savat.ADD)}},
	}
	for _, c := range checks {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if !c.holds {
				t.Errorf("violated: %.3g vs %.3g zJ", c.detail[0]*1e21, c.detail[1]*1e21)
			}
		})
	}
	t.Run("repeatability", func(t *testing.T) {
		if r := res.MeanRelStdDev(); r > 0.20 {
			t.Errorf("σ/mean = %.3f, paper reports ≈0.05", r)
		}
	})
}

// The distance story end to end: measured 10/50 cm ratios follow the
// published Figure 9 → Figure 17 transition for L2 vs off-chip.
func TestIntegrationDistanceTransition(t *testing.T) {
	mc := machine.Core2Duo()
	get := func(d float64, a, b savat.Event) float64 {
		cfg := savat.FastConfig()
		cfg.Distance = d
		rng := rand.New(rand.NewSource(2))
		m, err := savat.NewMeasurer(mc, cfg).Measure(a, b, rng)
		if err != nil {
			t.Fatal(err)
		}
		return m.SAVAT
	}
	near := get(0.10, savat.ADD, savat.LDL2) / get(0.10, savat.ADD, savat.LDM)
	far := get(0.50, savat.ADD, savat.LDL2) / get(0.50, savat.ADD, savat.LDM)
	if near < 0.6 {
		t.Errorf("at 10 cm L2 should rival off-chip: ratio %.2f", near)
	}
	if far > 0.8*near {
		t.Errorf("at 50 cm L2 should collapse relative to off-chip: near %.2f far %.2f", near, far)
	}
}

// Clustering a measured (not published) matrix recovers the paper groups —
// the pipeline and the analysis agree end to end.
func TestIntegrationMeasuredMatrixClusters(t *testing.T) {
	if testing.Short() {
		t.Skip("full 11×11 fast-path campaign takes ~1.5 s")
	}
	res, err := runSpec(savat.CampaignSpec{Machine: "Core2Duo", Config: savat.FastConfig(), Repeats: 1, Seed: 1}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("invariants", func(t *testing.T) {
		// The measured matrix must satisfy the conformance property suite
		// before any clustering of it is meaningful.
		if rep := conform.VerifyMatrix("measured", res.Mean, conform.DefaultMatrixTolerances()); !rep.Ok() {
			t.Error(rep.String())
		}
	})
	d, err := cluster.Cluster(res.Mean)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := d.CutK(4)
	if err != nil {
		t.Fatal(err)
	}
	find := func(e savat.Event) int {
		for gi, g := range groups {
			for _, x := range g {
				if x == e {
					return gi
				}
			}
		}
		return -1
	}
	t.Run("paper groups", func(t *testing.T) {
		if find(savat.LDM) != find(savat.STM) {
			t.Error("LDM and STM should share a group")
		}
		if find(savat.LDL2) != find(savat.STL2) {
			t.Error("LDL2 and STL2 should share a group")
		}
		if find(savat.ADD) != find(savat.MUL) || find(savat.ADD) != find(savat.LDL1) {
			t.Error("arithmetic and L1 hits should share a group")
		}
		if find(savat.LDM) == find(savat.ADD) || find(savat.LDL2) == find(savat.ADD) {
			t.Error("off-chip and L2 must separate from arithmetic")
		}
	})
	t.Run("spearman vs published", func(t *testing.T) {
		// Shape agreement with the published matrix on the same protocol.
		paper := paperdata.Experiments()[0].Matrix()
		rho, err := stats.SpearmanRank(res.Mean.Flat(), paper.Flat())
		if err != nil {
			t.Fatal(err)
		}
		if rho < 0.85 {
			t.Errorf("Spearman vs published Figure 9 = %.3f, want ≥ 0.85", rho)
		}
	})
}

// Assembly source → assembler → machine: the same program the tools run.
func TestIntegrationAsmToMachine(t *testing.T) {
	src := `
		.equ n, 20
		movi r1, n
		movi r2, 0
		movi r4, 0x1000
	loop:
		add  r2, r2, r1      ; r2 += r1
		st   [r4+0], r2
		ld   r3, [r4+0]
		subi r1, r1, 1
		bne  r1, r0, loop
		halt
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Pentium3M()
	hier, err := memhier.New(mc.Mem)
	if err != nil {
		t.Fatal(err)
	}
	core, err := cpu.New(mc.CPU, prog.Instructions, hier)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !core.Halted() {
		t.Fatal("program did not halt")
	}
	// Σ 1..20 = 210.
	if got := core.Reg(3); got != 210 {
		t.Errorf("r3 = %d, want 210", got)
	}
	l1, _, mem := hier.ServiceCounts()
	if l1 == 0 || mem == 0 {
		t.Errorf("expected both L1 hits and one cold miss: l1=%d mem=%d", l1, mem)
	}
}

// The attack demo remains correct across all three machines (integration
// of asm, cpu, machine, emsim, and attack).
func TestIntegrationAttackAcrossMachines(t *testing.T) {
	for _, mc := range machine.CaseStudyMachines() {
		tr, err := attack.RunModExp(mc, 3, 0x5EC12E7, 12289)
		if err != nil {
			t.Fatalf("%s: %v", mc.Name, err)
		}
		rng := rand.New(rand.NewSource(4))
		energies, err := attack.WindowEnergies(tr, mc, 0.10, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		_, acc, err := attack.RecoverExponent(tr, energies)
		if err != nil {
			t.Fatal(err)
		}
		if acc < 1 {
			t.Errorf("%s: noiseless recovery accuracy %.2f", mc.Name, acc)
		}
	}
}
