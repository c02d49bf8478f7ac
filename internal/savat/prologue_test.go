package savat

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/activity"
	"repro/internal/counter"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memhier"
)

// sameRun fails unless two runs of one program — one from reset on
// hc, one from a saved prologue on hw — agree bit for bit: phase
// samples (activity vectors compared as bits), cycles, retired,
// interpreted and mispredicted counts, registers, both caches' Stats
// and resident lines, the service counts, the write-combining buffer,
// the DRAM device and the data memory.
func sameRun(t *testing.T, cold *machine.RunResult, hc *memhier.Hierarchy, warm *machine.RunResult, hw *memhier.Hierarchy) {
	t.Helper()
	if len(cold.Samples) != len(warm.Samples) {
		t.Fatalf("%d samples warm, %d cold", len(warm.Samples), len(cold.Samples))
	}
	for i, c := range cold.Samples {
		w := warm.Samples[i]
		if c.ID != w.ID || c.StartCycle != w.StartCycle || c.EndCycle != w.EndCycle {
			t.Fatalf("sample %d: warm %+v, cold %+v", i, w, c)
		}
		for comp := range c.Activity {
			if math.Float64bits(c.Activity[comp]) != math.Float64bits(w.Activity[comp]) {
				t.Fatalf("sample %d: %v activity %v warm, %v cold", i, activity.Component(comp), w.Activity[comp], c.Activity[comp])
			}
		}
	}
	type state struct {
		cycles, retired, interpreted, mispredicts uint64
		halted                                    bool
		pc                                        int
		regs                                      [isa.NumRegs]uint32
		l1, l2                                    any
		l1Lines, l2Lines                          int
		svc, wc                                   [3]uint64
		dram                                      any
	}
	get := func(r *machine.RunResult, h *memhier.Hierarchy) state {
		s := state{cycles: r.Cycles, retired: r.Retired, interpreted: r.CPU.Interpreted(), mispredicts: r.CPU.Mispredicts(),
			halted: r.Halted, pc: r.CPU.PC(), l1: h.L1().Stats(), l2: h.L2().Stats(),
			l1Lines: h.L1().ResidentLines(), l2Lines: h.L2().ResidentLines(), dram: h.DRAM().Stats()}
		for i := range s.regs {
			s.regs[i] = r.CPU.Reg(isa.Reg(i))
		}
		s.svc[0], s.svc[1], s.svc[2] = h.ServiceCounts()
		s.wc[0], s.wc[1] = h.WCStats()
		return s
	}
	if c, w := get(cold, hc), get(warm, hw); c != w {
		t.Fatalf("state differs:\nwarm %+v\ncold %+v", w, c)
	}
	if !cold.CPU.Mem().Equal(warm.CPU.Mem()) {
		t.Fatal("data memory differs")
	}
}

// TestWarmStartIsExact holds every run started from a saved prologue
// to the same run from reset, on every Figure 9 pair of the three
// case-study machines: both calibration rounds' kernels (loop count
// 256 and the rescaled count) and the calibrated kernel's alternation,
// and the alternation of the kernel as the noop-insert and shuffle
// countermeasures rewrite it. Each warm run must start warm. A
// rewritten kernel runs under a step bound, and its prologue must reach
// the first marker within it too.
func TestWarmStartIsExact(t *testing.T) {
	cfg := DefaultConfig()
	altSamples := 2 * (cfg.WarmupPeriods + cfg.MeasurePeriods + 1)
	calSamples := 2 * (calWarmup + calMeasure)
	var chains []counter.Chain
	for _, c := range []string{"noop-insert:0.2", "shuffle:4"} {
		chain, err := counter.ParseChain([]string{c})
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, chain)
	}
	for _, mc := range machine.CaseStudyMachines() {
		m := machine.MustNew(mc)
		hc, hw := memhier.MustNew(mc.Mem), memhier.MustNew(mc.Mem)
		// compare runs k cold and warm for samples phase samples (and
		// at most maxSteps instructions when it is non-zero) and returns
		// the cold run's phase statistics.
		compare := func(t *testing.T, k *Kernel, samples int, maxSteps uint64) [2]activity.PhaseStats {
			t.Helper()
			opts := machine.RunOptions{MaxSamples: samples, MaxSteps: maxSteps, Hier: hc}
			cold, err := m.RunPhases(k.Program, k.PhaseAt, opts)
			if err != nil {
				t.Fatal(err)
			}
			w, err := m.Prologue(k.Program, k.PhaseAt, hw)
			if err != nil || w == nil {
				t.Fatalf("no prologue state (%v)", err)
			}
			opts.Hier, opts.Warm = hw, w
			warm, err := m.RunPhases(k.Program, k.PhaseAt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Warmed || !warm.Warmed {
				t.Fatalf("warmed: cold run %v, warm run %v", cold.Warmed, warm.Warmed)
			}
			sameRun(t, cold, hc, warm, hw)
			ph := activity.SummarizePhases(cold.Samples, mc.ClockHz, calWarmup)
			return [2]activity.PhaseStats{ph[PhaseA], ph[PhaseB]}
		}
		for a := Event(0); a < NumEvents; a++ {
			for b := Event(0); b < NumEvents; b++ {
				name := fmt.Sprintf("%s/%v-%v", mc.Name, a, b)
				t.Run(name, func(t *testing.T) {
					k, err := BuildKernel(mc, a, b, cfg.Frequency)
					if err != nil {
						t.Fatal(err)
					}
					n := 256
					for round := 0; round < 2; round++ {
						trial, err := assemble(mc, Sequence{a}, Sequence{b}, cfg.Frequency, n, SweepOffset)
						if err != nil {
							t.Fatal(err)
						}
						if n, err = rescaleLoopCount(mc, cfg.Frequency, n, compare(t, trial, calSamples, 0)); err != nil {
							t.Fatal(err)
						}
					}
					if n != k.LoopCount {
						t.Fatalf("calibrated to %d, BuildKernel to %d", n, k.LoopCount)
					}
					compare(t, k, altSamples, 0)
					for i, chain := range chains {
						rk, err := applyProgramCountermeasures(k, chain, int64(a)*97+int64(b)*13+int64(i))
						if err != nil {
							t.Fatal(err)
						}
						compare(t, rk, altSamples, 2_000_000)
					}
				})
			}
		}
	}
}

// Stores after a restore never reach the shared snapshot. Two
// two-worker campaigns at different frequencies run at once: their
// kernels differ only after the first phase marker, so their runs —
// across workers and campaigns — restore the same saved prologues and
// store into the STL1 and STL2 arrays those hold. Under -race a store
// into a shared page is a data race; afterwards each saved prologue
// must still start runs that match cold ones.
func TestSharedPrologueStoresAreCopies(t *testing.T) {
	c := withFreshSimCache(t, simCacheCap)
	mc := machine.Core2Duo()
	events := []Event{STL1, STL2}
	freqs := []float64{80e3, 40e3}
	var wg sync.WaitGroup
	errs := make([]error, len(freqs))
	for i, f := range freqs {
		spec := DefaultCampaignSpec()
		spec.Config = FastConfig()
		spec.Config.Frequency = f
		spec.Config.Duration = 1.0 / 64
		spec.Events, spec.Repeats = events, 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = RunSpecContext(context.Background(), spec, engine.Options{Parallelism: 2})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := c.prologues.Len(); got != len(events)*len(events) {
		t.Fatalf("%d saved prologues, want %d", got, len(events)*len(events))
	}
	m := machine.MustNew(mc)
	hc, hw := memhier.MustNew(mc.Mem), memhier.MustNew(mc.Mem)
	for _, a := range events {
		for _, b := range events {
			k, err := BuildKernel(mc, a, b, freqs[0])
			if err != nil {
				t.Fatal(err)
			}
			w, ran, err := c.prologue(m, k, nil)
			if err != nil || ran || w == nil {
				t.Fatalf("%v/%v: prologue %p ran %v (%v), want the saved one", a, b, w, ran, err)
			}
			cold, err := m.RunPhases(k.Program, k.PhaseAt, machine.RunOptions{MaxSamples: 20, Hier: hc})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := m.RunPhases(k.Program, k.PhaseAt, machine.RunOptions{MaxSamples: 20, Hier: hw, Warm: w})
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, cold, hc, warm, hw)
		}
	}
}
