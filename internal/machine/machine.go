// Package machine assembles a complete simulated laptop — core, cache
// hierarchy, DRAM, clock, and EM source strengths — and provides the
// phase-aware run loop used by the SAVAT measurement pipeline.
//
// Three configurations mirror the case-study systems of the paper's
// Figure 6: an Intel Core 2 Duo (32 KiB/8-way L1, 4 MiB/16-way L2), an
// Intel Pentium 3 M (16 KiB/4-way L1, 512 KiB/8-way L2), and an AMD
// Turion X2 (64 KiB/2-way L1, 1 MiB/16-way L2). Clock rates and divider
// latencies are representative of the parts; the EM source tables are
// calibrated so that the measured SAVAT matrices reproduce the *shape* of
// the paper's Figures 9/12/14 (see DESIGN.md §2 and EXPERIMENTS.md).
package machine

import (
	"fmt"
	"slices"

	"repro/internal/activity"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/emsim"
	"repro/internal/isa"
	"repro/internal/memhier"
)

// Config describes one simulated system.
type Config struct {
	Name    string
	ClockHz float64
	CPU     cpu.Config
	Mem     memhier.Config
	// Sources gives each component's EM coupling (see internal/emsim).
	Sources emsim.SourceTable
	// AsymmetrySourceAmp is the received amplitude (√W at the 10 cm
	// reference, near-field decay) of the residual difference between the
	// two alternation-loop halves (code placement, fetch alignment). It
	// radiates in the core coherence group and sets part of the paper's
	// A/A diagonal floor.
	AsymmetrySourceAmp float64
	// AmplitudeNoiseStd is the machine's slow activity-level fluctuation
	// (see emsim.Jitter.AmpNoiseStd): it raises the A/A diagonals of loud
	// rows in proportion to their own signal, as the paper's matrices show
	// (e.g. LDM/LDM ≫ ADD/ADD, and Turion's large memory-row diagonals).
	AmplitudeNoiseStd float64
}

// Validate reports the first configuration problem.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("machine: empty name")
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("machine %s: non-positive clock %v", c.Name, c.ClockHz)
	}
	if err := c.CPU.Validate(); err != nil {
		return fmt.Errorf("machine %s: %w", c.Name, err)
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("machine %s: %w", c.Name, err)
	}
	if c.AsymmetrySourceAmp < 0 {
		return fmt.Errorf("machine %s: negative asymmetry amplitude", c.Name)
	}
	if c.AmplitudeNoiseStd < 0 || c.AmplitudeNoiseStd >= 1 {
		return fmt.Errorf("machine %s: amplitude noise %v outside [0,1)", c.Name, c.AmplitudeNoiseStd)
	}
	return nil
}

// Machine is one instantiated system.
type Machine struct {
	cfg Config
}

// New validates cfg and returns the machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg}, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Name returns the machine name.
func (m *Machine) Name() string { return m.cfg.Name }

// RunResult is the outcome of a phase-aware run.
type RunResult struct {
	Samples []activity.PhaseSample // one entry per dynamic phase occurrence
	Cycles  uint64
	Retired uint64
	Halted  bool
	// Warmed reports that the run started from RunOptions.Warm rather
	// than from reset.
	Warmed bool
	// CPU exposes the finished core for register/memory inspection.
	CPU *cpu.CPU
}

// RunOptions bounds a phase-aware run.
type RunOptions struct {
	MaxSamples int    // stop after this many phase samples (0 = no limit)
	MaxSteps   uint64 // hard instruction-count stop (0 = 100M)
	// Hier, when non-nil and built from this machine's memory
	// configuration, is Reset (or restored from Warm) and used as the
	// run's memory hierarchy instead of allocating a fresh one — the L2
	// line array alone is megabytes, so repeated runs (calibration
	// probes, campaign cells) reuse it. The run mutates the hierarchy;
	// callers must not share one across concurrent runs. A mismatched
	// configuration is ignored.
	Hier *memhier.Hierarchy
	// Warm, when non-nil, starts the run at its program's first phase
	// marker from the state Prologue saved there instead of simulating
	// the prologue again. The result is the cold run's exactly. The run
	// starts cold when Warm does not apply: another machine
	// configuration, a program whose prefix differs, or a step limit
	// the prologue reaches (see Warm).
	Warm *Warm
}

// defaultMaxSteps is the instruction bound of a run whose MaxSteps is 0,
// and of Prologue.
const defaultMaxSteps = 100_000_000

// RunPhases executes prog on a fresh core. phaseAt maps an instruction
// word index to a phase ID: whenever the PC reaches such an index, the
// current phase sample is closed and a new one begins. Activity before the
// first marker is discarded.
func (m *Machine) RunPhases(prog []isa.Instruction, phaseAt map[int]int, opts RunOptions) (*RunResult, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	warm := opts.Warm
	if !warm.applies(m.cfg, prog, phaseAt, maxSteps) {
		warm = nil
	}
	hier, err := m.hierarchy(opts.Hier)
	if err != nil {
		return nil, err
	}
	if warm != nil {
		hier.Restore(warm.hier)
	}
	core, err := cpu.New(m.cfg.CPU, prog, hier)
	if err != nil {
		return nil, err
	}
	if warm != nil {
		core.Restore(warm.core)
	}
	lookup := phaseLookup(prog, phaseAt)

	res := &RunResult{CPU: core, Warmed: warm != nil}
	inPhase := false
	cur := activity.PhaseSample{ID: -1}

	// The core's fused interpreter runs from marker to marker; this loop
	// only does the per-phase bookkeeping at each boundary. The step
	// budget counts the instructions a warm start's prologue retired.
	for steps := core.Retired(); steps < maxSteps; {
		if core.Halted() {
			break
		}
		if pc := core.PC(); pc >= 0 && pc < len(lookup) && lookup[pc] >= 0 {
			if inPhase {
				cur.EndCycle = core.Cycle()
				cur.Activity = core.TakeActivity()
				res.Samples = append(res.Samples, cur)
			}
			if opts.MaxSamples > 0 && len(res.Samples) >= opts.MaxSamples {
				inPhase = false
				break
			}
			core.TakeActivity() // discard pre-phase or boundary residue
			cur = activity.PhaseSample{ID: int(lookup[pc]), StartCycle: core.Cycle()}
			inPhase = true
		}
		k, err := core.RunToMarker(lookup, maxSteps-steps)
		if err != nil {
			return nil, fmt.Errorf("machine %s: %w", m.cfg.Name, err)
		}
		steps += k
		if k == 0 {
			break
		}
	}
	if core.Halted() && inPhase {
		cur.EndCycle = core.Cycle()
		cur.Activity = core.TakeActivity()
		res.Samples = append(res.Samples, cur)
	}
	res.Cycles = core.Cycle()
	res.Retired = core.Retired()
	res.Halted = core.Halted()
	return res, nil
}

// hierarchy returns the run's memory hierarchy: h, Reset, when it was
// built from the machine's memory configuration, or a new one.
func (m *Machine) hierarchy(h *memhier.Hierarchy) (*memhier.Hierarchy, error) {
	if h != nil && h.Config() == m.cfg.Mem {
		h.Reset()
		return h, nil
	}
	return memhier.New(m.cfg.Mem)
}

// phaseLookup returns phaseAt as a dense slice indexed by pc (−1 = no
// marker): the phase map is consulted on every step, and a slice keeps
// the hot loop free of map lookups.
func phaseLookup(prog []isa.Instruction, phaseAt map[int]int) []int32 {
	size := len(prog)
	for idx := range phaseAt {
		if idx >= size {
			size = idx + 1
		}
	}
	lookup := make([]int32, size)
	for i := range lookup {
		lookup[i] = -1
	}
	for idx, id := range phaseAt {
		if idx >= 0 {
			lookup[idx] = int32(id)
		}
	}
	return lookup
}

// FirstMarker returns the smallest instruction index phaseAt marks, or
// −1 when it marks none: a program's prologue is the code before it.
func FirstMarker(phaseAt map[int]int) int {
	first := -1
	for idx := range phaseAt {
		if idx >= 0 && (first < 0 || idx < first) {
			first = idx
		}
	}
	return first
}

// Warm is a machine's state at a program's first phase marker, saved by
// Prologue: the core, its data memory and the memory hierarchy. It is
// immutable, and any number of runs, concurrent ones included, may
// start from it (RunOptions.Warm); each copies in only what it touches.
type Warm struct {
	cpu    cpu.Config
	mem    memhier.Config
	prefix []isa.Instruction // the program before the marker
	core   *cpu.Snapshot
	hier   *memhier.Snapshot
}

// Bytes returns the memory the snapshot holds.
func (w *Warm) Bytes() int {
	return 8*cap(w.prefix) + w.core.Bytes() + w.hier.Bytes()
}

// applies reports whether a run of prog under a step budget of
// maxSteps may start from w, nil included. The prologue's execution
// reads nothing but the prefix (Prologue proves it confined there), the
// machine's core and memory configurations, and the step budget: with
// more than the prologue's steps left, every whole-iteration bound in
// it is the loop's own, as in Prologue's run.
func (w *Warm) applies(cfg Config, prog []isa.Instruction, phaseAt map[int]int, maxSteps uint64) bool {
	return w != nil && w.cpu == cfg.CPU && w.mem == cfg.Mem && maxSteps > w.core.Retired() &&
		FirstMarker(phaseAt) == len(w.prefix) && len(prog) > len(w.prefix) &&
		slices.Equal(prog[:len(w.prefix)], w.prefix)
}

// Prologue runs prog from reset to its first phase marker, on hier when
// it is non-nil (see RunOptions.Hier), and returns the state there, from
// which RunPhases can start every run of a program that begins with the
// same prologue. It returns nil, and no error, when there is no state
// to share: no marker past index 0, or a prologue that is not provably
// confined to [0, marker) — checked statically: every branch target in
// it must lie in [0, marker], so control can only leave it through the
// marker — or that halts, fails or has not reached the marker after
// defaultMaxSteps instructions. A run from nil starts cold, and meets
// any such failure itself.
func (m *Machine) Prologue(prog []isa.Instruction, phaseAt map[int]int, hier *memhier.Hierarchy) (*Warm, error) {
	marker := FirstMarker(phaseAt)
	if marker <= 0 || marker >= len(prog) || !confined(prog[:marker]) {
		return nil, nil
	}
	hier, err := m.hierarchy(hier)
	if err != nil {
		return nil, err
	}
	core, err := cpu.New(m.cfg.CPU, prog, hier)
	if err != nil {
		return nil, err
	}
	if _, err := core.RunToMarker(phaseLookup(prog, phaseAt), defaultMaxSteps); err != nil || core.Halted() || core.PC() != marker {
		return nil, nil
	}
	return &Warm{cpu: m.cfg.CPU, mem: m.cfg.Mem, prefix: slices.Clone(prog[:marker]),
		core: core.Save(), hier: hier.Save()}, nil
}

// confined reports whether every branch of the prologue prefix targets
// an index in [0, len(prefix)]: falling through or branching, its
// control stays inside it until it reaches the index just past it.
func confined(prefix []isa.Instruction) bool {
	for pc, in := range prefix {
		if in.Op.Class() != isa.ClassBranch {
			continue
		}
		if t := pc + 1 + int(in.Imm); t < 0 || t > len(prefix) {
			return false
		}
	}
	return true
}

// Line64 is the cache line size shared by all three case-study systems.
const Line64 = 64

// Core2Duo models the Intel Core 2 Duo laptop of the case study:
// 32 KiB 8-way L1D and a 4 MiB 16-way L2 (paper Figure 6), 2.0 GHz, and a
// fast radix divider. The EM table makes on-chip arrays near-field
// radiators and the processor–memory interface the dominant far-field
// source; the divider coupling is the smallest of the three systems,
// matching the paper's finding that Core 2's DIV is only mildly
// distinguishable at 10 cm.
func Core2Duo() Config {
	cpuCfg := cpu.DefaultConfig()
	cpuCfg.DivCycles = 6
	cpuCfg.MulCycles = 3
	return Config{
		Name:    "Core2Duo",
		ClockHz: 2.0e9,
		CPU:     cpuCfg,
		Mem: memhier.Config{
			L1:          cache.Config{Name: "L1D", SizeBytes: 32 << 10, Assoc: 8, LineBytes: Line64},
			L2:          cache.Config{Name: "L2", SizeBytes: 4 << 20, Assoc: 16, LineBytes: Line64},
			L1HitCycles: 3,
			L2HitCycles: 14,
			BusCycles:   40,
			DRAM: dram.Config{
				Banks: 8, RowBytes: 4096,
				CASCycles: 30, ActivateCycles: 44, PrechargeCycles: 30, BurstCycles: 8,
			},
		},
		Sources:            core2DuoSources(),
		AsymmetrySourceAmp: 1.963e-07,
		AmplitudeNoiseStd:  0.15,
	}
}

// Pentium3M models the Intel Pentium 3 M laptop: 16 KiB 4-way L1D,
// 512 KiB 8-way L2, 1.2 GHz, long iterative divider. Its older process and
// higher operating voltage give it the strongest off-chip and divider
// emissions of the three systems (paper Figures 12/13).
func Pentium3M() Config {
	cpuCfg := cpu.DefaultConfig()
	cpuCfg.DivCycles = 12
	cpuCfg.MulCycles = 4
	return Config{
		Name:    "Pentium3M",
		ClockHz: 1.2e9,
		CPU:     cpuCfg,
		Mem: memhier.Config{
			L1:          cache.Config{Name: "L1D", SizeBytes: 16 << 10, Assoc: 4, LineBytes: Line64},
			L2:          cache.Config{Name: "L2", SizeBytes: 512 << 10, Assoc: 8, LineBytes: Line64},
			L1HitCycles: 3,
			L2HitCycles: 10,
			BusCycles:   30,
			DRAM: dram.Config{
				Banks: 4, RowBytes: 4096,
				CASCycles: 20, ActivateCycles: 30, PrechargeCycles: 20, BurstCycles: 12,
			},
		},
		Sources:            pentium3MSources(),
		AsymmetrySourceAmp: 2.39e-07,
		AmplitudeNoiseStd:  0.13,
	}
}

// TurionX2 models the AMD Turion X2 laptop: 64 KiB 2-way L1D, 1 MiB
// 16-way L2, 1.8 GHz. Its divider radiates the strongest of the three —
// the paper found Turion's DIV SAVAT rivals off-chip memory accesses
// (Figures 14/15).
func TurionX2() Config {
	cpuCfg := cpu.DefaultConfig()
	cpuCfg.DivCycles = 20
	cpuCfg.MulCycles = 3
	return Config{
		Name:    "TurionX2",
		ClockHz: 1.8e9,
		CPU:     cpuCfg,
		Mem: memhier.Config{
			L1:          cache.Config{Name: "L1D", SizeBytes: 64 << 10, Assoc: 2, LineBytes: Line64},
			L2:          cache.Config{Name: "L2", SizeBytes: 1 << 20, Assoc: 16, LineBytes: Line64},
			L1HitCycles: 3,
			L2HitCycles: 12,
			BusCycles:   36,
			DRAM: dram.Config{
				Banks: 8, RowBytes: 4096,
				CASCycles: 26, ActivateCycles: 38, PrechargeCycles: 26, BurstCycles: 8,
			},
		},
		Sources:            turionX2Sources(),
		AsymmetrySourceAmp: 2.134e-07,
		AmplitudeNoiseStd:  0.20,
	}
}

// CaseStudyMachines returns the three Figure 6 systems in paper order.
func CaseStudyMachines() []Config {
	return []Config{Core2Duo(), Pentium3M(), TurionX2()}
}

// ConfigByName returns the case-study machine with the given name.
func ConfigByName(name string) (Config, error) {
	for _, c := range CaseStudyMachines() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("machine: unknown system %q (have Core2Duo, Pentium3M, TurionX2)", name)
}
