// Command reproduce regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated systems and compares each
// against the published values embedded in internal/paperdata.
//
//	reproduce                 # everything, full-fidelity (minutes)
//	reproduce -fast           # quarter-second captures, 3 campaigns
//	reproduce -section fig9   # one experiment
//
// Sections: events, machines, fig7, fig8, fig9, fig12, fig14, fig16,
// fig17, fig18, repeatability, naive, groups, savat1, sequences,
// extensions.
//
// All campaigns share one per-cell result cache, so experiments that
// revisit a figure's matrix (repeatability, groups, savat1 reuse fig9;
// fig16 reuses fig17/fig18) measure each cell only once. With
// -cache-dir the cache persists on disk and later runs — including a
// run interrupted with Ctrl-C — skip every cell already measured.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cliconf"
	"repro/internal/cluster"
	"repro/internal/conform"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/paperdata"
	"repro/internal/report"
	"repro/internal/savat"
)

type runner struct {
	ctx     context.Context
	cfgBase savat.Config
	repeats int
	seed    int64
	cache   *engine.Cache // shared across figures: repeated matrices hit it

	section string       // experiment currently regenerating (set between campaigns)
	live    atomic.Value // liveProgress — the value behind /progress
}

// liveProgress is the JSON shape the -metrics-addr /progress endpoint
// serves: which experiment is regenerating and the latest campaign
// event (engine stats + pipeline health).
type liveProgress struct {
	Section string               `json:"section"`
	Event   engine.ProgressEvent `json:"event"`
}

// storeProgress caches the latest campaign event for /progress.
func (r *runner) storeProgress(ev engine.ProgressEvent) {
	r.live.Store(liveProgress{Section: r.section, Event: ev})
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		cf      = cliconf.Register(flag.CommandLine, cliconf.Repeats|cliconf.Seed|cliconf.Fast|cliconf.Profile|cliconf.Metrics|cliconf.Spec|cliconf.CacheDir)
		section = flag.String("section", "all", "which experiment to regenerate")
	)
	flag.Parse()

	// -emit-spec serializes the base campaign (the per-figure runs
	// override machine and distance from paperdata) instead of running.
	if emitted, err := cf.WriteEmittedSpec(); emitted || err != nil {
		return err
	}

	stopProf, err := cf.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProf()

	// The base spec — from a -spec file or the flags — carries the
	// measurement setup, repeats, and seed shared by every experiment.
	baseSpec, err := cf.CampaignSpec()
	if err != nil {
		return err
	}
	cfg := baseSpec.Config
	// The closer flushes a store-backed cache's write-behind buffer on
	// exit, Ctrl-C included.
	cache, closeCache, err := cf.OpenCache()
	if err != nil {
		return err
	}
	defer closeCache()
	// Ctrl-C cancels the running campaign; with -cache-dir the cells
	// measured so far are already persisted, so a rerun resumes there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	r := &runner{
		ctx:     ctx,
		cfgBase: cfg,
		repeats: baseSpec.Repeats,
		seed:    baseSpec.Seed,
		cache:   cache,
	}
	stopObs, err := cf.StartObs(func() any { return r.live.Load() })
	if err != nil {
		return err
	}
	defer stopObs()
	// -fast drops to 3 campaigns per cell unless -repeats was given
	// explicitly (a -spec file fixes repeats itself).
	if cf.Fast && cf.SpecPath == "" {
		repeatsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "repeats" {
				repeatsSet = true
			}
		})
		if !repeatsSet {
			r.repeats = 3
		}
	}

	sections := []struct {
		name string
		fn   func() error
	}{
		{"events", r.events},
		{"machines", r.machines},
		{"fig7", r.fig7},
		{"fig8", r.fig8},
		{"fig9", func() error { return r.figMatrix("fig9") }},
		{"fig12", func() error { return r.figMatrix("fig12") }},
		{"fig14", func() error { return r.figMatrix("fig14") }},
		{"fig17", func() error { return r.figMatrix("fig17") }},
		{"fig18", func() error { return r.figMatrix("fig18") }},
		{"fig16", r.fig16},
		{"repeatability", r.repeatability},
		{"naive", r.naive},
		{"groups", r.groups},
		{"savat1", r.singleInstruction},
		{"sequences", r.sequences},
		{"extensions", r.extensions},
	}
	ran := false
	for _, s := range sections {
		if *section != "all" && *section != s.name {
			continue
		}
		ran = true
		r.section = s.name
		fmt.Printf("\n======== %s ========\n", s.name)
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown section %q", *section)
	}
	return nil
}

// events prints the Figure 5 instruction table.
func (r *runner) events() error {
	fmt.Println("Figure 5 — instructions/events under test")
	fmt.Printf("%-6s %-22s %s\n", "Event", "x86 instruction", "Description")
	for _, e := range savat.Events() {
		fmt.Printf("%-6s %-22s %s\n", e, e.X86(), e.Description())
	}
	return nil
}

// machines prints the Figure 6 system table.
func (r *runner) machines() error {
	fmt.Println("Figure 6 — case-study systems")
	fmt.Printf("%-10s %-8s %-18s %-18s %s\n", "System", "Clock", "L1 Data Cache", "L2 Cache", "DIV latency")
	for _, mc := range machine.CaseStudyMachines() {
		fmt.Printf("%-10s %.1f GHz %4d KB, %2d way    %5d KB, %2d way   %d cycles\n",
			mc.Name, mc.ClockHz/1e9,
			mc.Mem.L1.SizeBytes>>10, mc.Mem.L1.Assoc,
			mc.Mem.L2.SizeBytes>>10, mc.Mem.L2.Assoc,
			mc.CPU.DivCycles)
	}
	return nil
}

func (r *runner) spectrum(a, b savat.Event, caption string) error {
	mc := machine.Core2Duo()
	cfg := r.cfgBase
	rng := rand.New(rand.NewSource(r.seed))
	m, err := savat.NewMeasurer(mc, cfg).Measure(a, b, rng)
	if err != nil {
		return err
	}
	fmt.Println(caption)
	plot, err := report.SpectrumPlot(m.Trace, cfg.Frequency, 2e3, 78, 14)
	if err != nil {
		return err
	}
	fmt.Print(plot)
	pf, ppsd, err := m.Trace.Peak(cfg.Frequency, cfg.BandHalfWidth)
	if err != nil {
		return err
	}
	fmt.Printf("peak %+.0f Hz from intended %.0f kHz at %.2g W/Hz; floor %.2g W/Hz\n",
		pf-cfg.Frequency, cfg.Frequency/1e3, ppsd, m.Trace.FloorPSD)
	fmt.Printf("SAVAT = %.2f zJ\n", m.ZJ())
	return nil
}

func (r *runner) fig7() error {
	return r.spectrum(savat.ADD, savat.LDM,
		"Figure 7 — recorded spectrum for 80 kHz ADD/LDM alternation (expect a strong line,\nshifted a few hundred Hz below 80 kHz and dispersed by drift, within the ±1 kHz band)")
}

func (r *runner) fig8() error {
	return r.spectrum(savat.ADD, savat.ADD,
		"Figure 8 — recorded spectrum for 80 kHz ADD/ADD alternation (expect only the floor:\ninstrument sensitivity, diffuse RF background, residual loop mismatch, a weak carrier)")
}

// campaign measures one published figure's matrix. Per-cell results go
// through the shared engine cache, so a figure revisited by a later
// section — or a matrix that only differs in event order — reruns in
// milliseconds with every cell cache-served.
func (r *runner) campaign(id string) (*savat.MatrixStats, paperdata.Experiment, error) {
	exp, err := paperdata.ByID(id)
	if err != nil {
		return nil, exp, err
	}
	// Each figure is the base campaign with the published machine and
	// distance applied — the same CampaignSpec shape savatd serves.
	spec := savat.DefaultCampaignSpec()
	spec.Machine = exp.Machine
	spec.Config = r.cfgBase
	spec.Config.Distance = exp.Distance
	spec.Repeats = r.repeats
	spec.Seed = r.seed
	var opts savat.CampaignOptions
	opts.Cache = r.cache
	ch := make(chan engine.ProgressEvent, 64)
	opts.Monitor = ch
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		shown := false
		progress := cliconf.NewProgress(os.Stderr)
		for ev := range ch {
			r.storeProgress(ev)
			// Cache-served replays finish too fast to be worth drawing.
			if !ev.Cached || shown {
				shown = true
				progress.Printf(ev.Stats.Done == ev.Stats.Total, "%s: %d/%d cells (%d cached)",
					id, ev.Stats.Done, ev.Stats.Total, ev.Stats.Cached)
			}
		}
		if shown {
			progress.End()
		}
	}()
	res, err := savat.RunSpecContext(r.ctx, spec, opts)
	wg.Wait()
	if err != nil {
		return nil, exp, err
	}
	return res, exp, nil
}

// figMatrix regenerates one published 11×11 matrix and compares shape.
func (r *runner) figMatrix(id string) error {
	res, exp, err := r.campaign(id)
	if err != nil {
		return err
	}
	fmt.Printf("%s — %s at %.2f m, %d campaigns/cell — measured SAVAT (zJ)\n",
		id, exp.Machine, exp.Distance, r.repeats)
	fmt.Print(report.MatrixTable(res.Mean))
	fmt.Println("\nheat map (cf. the paper's visualization):")
	fmt.Print(report.Heatmap(res.Mean))
	fmt.Println("\nselected pairings (cf. the paper's bar chart):")
	bars, err := report.SelectedPairsChart("", res.Mean, paperdata.SelectedPairs)
	if err != nil {
		return err
	}
	fmt.Print(bars)
	return compareToPaper(res.Mean, exp)
}

// compareToPaper prints quantitative shape agreement with the published
// matrix.
func compareToPaper(m *savat.Matrix, exp paperdata.Experiment) error {
	g, err := conform.CompareMatrices(m, exp.Matrix())
	if err != nil {
		return err
	}
	fmt.Printf("\npaper comparison (%s):\n", exp.ID)
	fmt.Printf("  Spearman rank correlation vs published matrix: %.3f\n", g.Spearman)
	fmt.Printf("  mean |log10(measured/paper)|: %.3f (%.2fx typical cell ratio)\n",
		g.MeanAbsLog10, g.TypicalRatio())
	viol := m.DiagonalViolations(0.20)
	fmt.Printf("  diagonal-smallest violations (20%% tolerance): %d\n", len(viol))
	for _, v := range viol {
		fmt.Printf("    %v\n", v)
	}
	// Group structure.
	offchip := []savat.Event{savat.LDM, savat.STM}
	l2 := []savat.Event{savat.LDL2, savat.STL2}
	arith := []savat.Event{savat.LDL1, savat.STL1, savat.NOI, savat.ADD, savat.SUB, savat.MUL}
	for _, g := range []struct {
		name        string
		grp, others []savat.Event
	}{
		{"off-chip vs arithmetic", offchip, arith},
		{"L2 vs arithmetic", l2, arith},
	} {
		intra, inter, err := m.GroupMeans(g.grp, g.others)
		if err != nil {
			return err
		}
		verdict := "OK"
		if intra >= inter {
			verdict = "VIOLATED"
		}
		fmt.Printf("  group structure %-24s intra %.2f zJ vs inter %.2f zJ  [%s]\n",
			g.name, intra*1e21, inter*1e21, verdict)
	}
	return nil
}

// fig16 prints the 50 cm / 100 cm selected-pair bars for the Core 2 Duo.
func (r *runner) fig16() error {
	fmt.Println("Figure 16 — SAVAT at 50 cm and 100 cm, Core 2 Duo (zJ)")
	m50, _, err := r.campaign("fig17")
	if err != nil {
		return err
	}
	m100, _, err := r.campaign("fig18")
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %10s %10s\n", "pair", "50 cm", "100 cm")
	for _, p := range paperdata.SelectedPairs {
		v50, err := m50.Mean.At(p[0], p[1])
		if err != nil {
			return err
		}
		v100, err := m100.Mean.At(p[0], p[1])
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %10.2f %10.2f\n", fmt.Sprintf("%v/%v", p[0], p[1]), v50*1e21, v100*1e21)
	}
	fmt.Println("expect: off-chip pairs dominate; small 50→100 cm drop; DIV advantage shrinks")
	return nil
}

// repeatability prints the σ/mean statistics of the Figure 9 campaign.
func (r *runner) repeatability() error {
	res, _, err := r.campaign("fig9")
	if err != nil {
		return err
	}
	fmt.Printf("Section V repeatability — mean σ/mean over all 121 cells: %.3f (paper: ≈0.05)\n",
		res.MeanRelStdDev())
	fmt.Printf("A/B vs B/A swap asymmetry (placement-error diagnostic): %.3f\n",
		res.Mean.SwapAsymmetry())
	return nil
}

// naive contrasts the naive methodology with the alternation methodology.
func (r *runner) naive() error {
	mc := machine.Core2Duo()
	fmt.Println("Section III — naive (Figure 2) vs alternation methodology, LDL1/STL1 on Core 2 Duo")
	res, err := savat.NaiveMeasure(mc, savat.LDL1, savat.STL1, 0.10, savat.DefaultScopeConfig(), r.repeats, r.seed)
	if err != nil {
		return err
	}
	if e := res.MeanRelError(); math.IsInf(e, 1) || e > 1e6 {
		fmt.Println("  naive mean relative error (50 GS/s scope, 0.5% vertical error): ∞")
		fmt.Println("  (the true single-instruction difference is below the naive method's")
		fmt.Println("   resolution — every estimate it produces is pure measurement artifact)")
	} else {
		fmt.Printf("  naive mean relative error (50 GS/s scope, 0.5%% vertical error): %.2f\n", e)
	}
	vals, sum, err := savat.NewMeasurer(mc, r.cfgBase).MeasurePair(savat.LDL1, savat.STL1, r.repeats, r.seed)
	if err != nil {
		return err
	}
	_ = vals
	fmt.Printf("  alternation methodology σ/mean for the same pair:            %.2f\n", sum.RelStdDev())
	return nil
}

// groups clusters the measured Figure 9 matrix into the Section V groups.
func (r *runner) groups() error {
	res, _, err := r.campaign("fig9")
	if err != nil {
		return err
	}
	d, err := cluster.Cluster(res.Mean)
	if err != nil {
		return err
	}
	four, err := d.CutK(4)
	if err != nil {
		return err
	}
	fmt.Println("Section V groups — agglomerative clustering of the measured Figure 9 matrix (k=4):")
	for i, g := range four {
		names := make([]string, len(g))
		for j, e := range g {
			names[j] = e.String()
		}
		fmt.Printf("  group %d: %s\n", i+1, strings.Join(names, ", "))
	}
	sil, err := cluster.Silhouette(res.Mean, four)
	if err != nil {
		return err
	}
	fmt.Printf("  silhouette: %.2f\n", sil)
	fmt.Println("expect: {LDM,STM} {LDL2,STL2} {LDL1,STL1,NOI,ADD,SUB,MUL} {DIV}")
	return nil
}

// sequences demonstrates the Section III sequence measurement and the
// paper's sum-of-singles estimate with its predicted imprecision.
func (r *runner) sequences() error {
	mc := machine.Core2Duo()
	cfg := r.cfgBase
	fmt.Println("Section III — instruction sequences as A/B activity (Core 2 Duo, 10 cm)")
	fmt.Printf("%-22s %-22s %10s %10s %7s\n", "A sequence", "B sequence", "measured", "estimate", "ratio")
	for _, pair := range [][2]savat.Sequence{
		{{savat.LDM, savat.ADD}, {savat.ADD, savat.ADD}},
		{{savat.LDM, savat.DIV}, {savat.ADD, savat.ADD}},
		{{savat.LDM, savat.ADD, savat.LDM}, {savat.ADD, savat.ADD, savat.ADD}},
		{{savat.LDL2, savat.MUL}, {savat.LDL2, savat.ADD}},
	} {
		rng := rand.New(rand.NewSource(r.seed))
		meas, est, err := savat.SequenceAdditivity(mc, pair[0], pair[1], cfg, rng)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %-22s %7.2f zJ %7.2f zJ %7.2f\n",
			pair[0], pair[1], meas*1e21, est*1e21, meas/est)
	}
	fmt.Println("expect: ratios near but not at 1 — the paper predicts the sum-of-singles")
	fmt.Println("estimate is imprecise because instructions overlap and reorder.")
	return nil
}

// extensions measures the Section VII branch-prediction extension events.
func (r *runner) extensions() error {
	mc := machine.Core2Duo()
	cfg := r.cfgBase
	fmt.Println("Section VII — extension events: branch prediction hit (BPH) vs miss (BPM)")
	meas := savat.NewMeasurer(mc, cfg)
	for _, p := range [][2]savat.Event{
		{savat.BPH, savat.BPH},
		{savat.BPH, savat.BPM},
		{savat.ADD, savat.BPH},
		{savat.ADD, savat.BPM},
		{savat.BPM, savat.DIV},
	} {
		vals, sum, err := meas.MeasurePair(p[0], p[1], r.repeats, r.seed)
		if err != nil {
			return err
		}
		_ = vals
		fmt.Printf("  %-10s %7.2f ± %.2f zJ\n",
			fmt.Sprintf("%v/%v", p[0], p[1]), sum.Mean*1e21, sum.StdDev*1e21)
	}
	fmt.Println("expect: BPH/BPM well above the BPH/BPH floor — mispredict flushes radiate.")
	return nil
}

// singleInstruction prints the Section II single-instruction SAVAT values.
func (r *runner) singleInstruction() error {
	res, _, err := r.campaign("fig9")
	if err != nil {
		return err
	}
	ld, err := res.Mean.SingleInstructionSAVAT(savat.LoadEvents())
	if err != nil {
		return err
	}
	st, err := res.Mean.SingleInstructionSAVAT(savat.StoreEvents())
	if err != nil {
		return err
	}
	fmt.Println("Section II — single-instruction SAVAT (max over same-instruction pairs):")
	fmt.Printf("  load  instruction: %.2f zJ\n", ld*1e21)
	fmt.Printf("  store instruction: %.2f zJ\n", st*1e21)
	return nil
}
