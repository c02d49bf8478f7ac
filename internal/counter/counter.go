// Package counter implements side-channel countermeasures applied between
// the benchmark program and the measured activity trace.
//
// Four countermeasures are modelled, spanning the two classic families
// ("Power Side Channels in Security ICs: Hardware Countermeasures",
// PAPERS.md): *hiding in time* (random no-op insertion, execution
// shuffling) and *hiding in amplitude* (an additive noise generator,
// supply filtering). Each is a named spec with one parameter, so a
// countermeasure chain serializes into a CampaignSpec and folds into the
// campaign fingerprint like any other configuration dimension.
//
// How the time-domain countermeasures act on the measurement is split in
// two, matching what a spectrum analyzer actually sees:
//
//   - TransformProgram applies the *static* rewrite — the mean effect:
//     inserted no-ops stretch the alternation period (relocating branch
//     offsets and phase markers), and shuffling reorders instructions
//     within dependence-free windows. SAVAT's per-event normalization
//     makes it nearly invariant to a constant slowdown, which is exactly
//     the classic result that deterministic padding does not protect.
//   - ApplyJitter models the *run-time randomness* the static rewrite
//     cannot: per-iteration insertion counts vary, so the alternation
//     frequency shifts (the mean extra no-ops per period move the line
//     out of the analyzer's ±1 kHz band) and smears (the per-period
//     variance feeds the random-walk dispersion). This is where the
//     measurable SAVAT attenuation comes from, as in the paper's Figure 7
//     where period instability alone spreads the line.
//
// The amplitude countermeasures act on the channel model directly:
// ApplyEnvironment raises the diffuse background (an on-board noise
// generator), and ApplySources low-passes the conducted couplings (a
// supply filter between the rail and the instrument).
package counter

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/emsim"
	"repro/internal/isa"
	"repro/internal/noise"
)

// Countermeasure names.
const (
	// NoopInsert inserts a NOP before each instruction slot with
	// probability Param (0 < p < 1).
	NoopInsert = "noop-insert"
	// Shuffle randomly reorders instructions within dependence-free
	// windows of length Param (2 ≤ w ≤ 64).
	Shuffle = "shuffle"
	// NoiseGen adds Param W/Hz (> 0) of diffuse background noise.
	NoiseGen = "noise-gen"
	// SupplyFilter low-passes the conducted couplings with a single-pole
	// filter at cutoff Param Hz (> 0).
	SupplyFilter = "supply-filter"
)

// Spec is one countermeasure instance. The json tags are part of the
// savat.CampaignSpec wire format.
type Spec struct {
	Name  string  `json:"name"`
	Param float64 `json:"param"`
}

// String renders the spec in the "name:param" flag syntax Parse accepts.
func (s Spec) String() string {
	return fmt.Sprintf("%s:%g", s.Name, s.Param)
}

// Validate reports the first problem with the spec.
func (s Spec) Validate() error {
	switch s.Name {
	case NoopInsert:
		if !(s.Param > 0 && s.Param < 1) {
			return fmt.Errorf("counter: %s probability %g outside (0,1)", s.Name, s.Param)
		}
	case Shuffle:
		w := s.Param
		if w != math.Trunc(w) || w < 2 || w > 64 {
			return fmt.Errorf("counter: %s window %g not an integer in [2,64]", s.Name, s.Param)
		}
	case NoiseGen:
		if !(s.Param > 0) || math.IsInf(s.Param, 0) {
			return fmt.Errorf("counter: %s PSD %g must be positive and finite", s.Name, s.Param)
		}
	case SupplyFilter:
		if !(s.Param > 0) || math.IsInf(s.Param, 0) {
			return fmt.Errorf("counter: %s cutoff %g Hz must be positive and finite", s.Name, s.Param)
		}
	default:
		return fmt.Errorf("counter: unknown countermeasure %q (have %s, %s, %s, %s)",
			s.Name, NoopInsert, Shuffle, NoiseGen, SupplyFilter)
	}
	return nil
}

// transformsProgram reports whether the countermeasure rewrites the
// benchmark program (as opposed to the channel model).
func (s Spec) transformsProgram() bool {
	return s.Name == NoopInsert || s.Name == Shuffle
}

// Parse reads one "name:param" countermeasure spec, e.g.
// "noop-insert:0.1" or "supply-filter:40e3".
func Parse(text string) (Spec, error) {
	name, param, ok := strings.Cut(strings.TrimSpace(text), ":")
	if !ok {
		return Spec{}, fmt.Errorf("counter: spec %q is not name:param", text)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(param), 64)
	if err != nil {
		return Spec{}, fmt.Errorf("counter: spec %q: bad parameter: %v", text, err)
	}
	s := Spec{Name: strings.TrimSpace(name), Param: v}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Chain is an ordered list of countermeasures, applied left to right.
type Chain []Spec

// ParseChain parses a list of "name:param" specs.
func ParseChain(texts []string) (Chain, error) {
	if len(texts) == 0 {
		return nil, nil
	}
	ch := make(Chain, 0, len(texts))
	for _, t := range texts {
		s, err := Parse(t)
		if err != nil {
			return nil, err
		}
		ch = append(ch, s)
	}
	return ch, nil
}

// Validate reports the first problem in the chain.
func (c Chain) Validate() error {
	for _, s := range c {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// String renders the chain as comma-separated "name:param" specs.
func (c Chain) String() string {
	parts := make([]string, len(c))
	for i, s := range c {
		parts[i] = s.String()
	}
	return strings.Join(parts, ",")
}

// HasProgram reports whether any countermeasure in the chain rewrites the
// benchmark program. Callers use it to decide whether a per-cell
// countermeasure seed must be derived at all: an empty or model-only
// chain consumes no seed material, keeping seed streams bit-identical to
// the pre-countermeasure pipeline.
func (c Chain) HasProgram() bool {
	for _, s := range c {
		if s.transformsProgram() {
			return true
		}
	}
	return false
}

// TransformProgram applies the chain's program countermeasures to prog in
// order, seeded deterministically. phaseAt maps instruction indices to
// phase IDs (see machine.RunPhases); the returned map points at the same
// instructions in the rewritten program. When the chain has no program
// countermeasure the inputs are returned unchanged (same slices, no rng
// use). The input program and map are never mutated.
func TransformProgram(prog []isa.Instruction, phaseAt map[int]int, c Chain, seed uint64) ([]isa.Instruction, map[int]int, error) {
	if !c.HasProgram() {
		return prog, phaseAt, nil
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	outProg := append([]isa.Instruction(nil), prog...)
	outPhase := make(map[int]int, len(phaseAt))
	for k, v := range phaseAt {
		outPhase[k] = v
	}
	for _, s := range c {
		var err error
		switch s.Name {
		case NoopInsert:
			outProg, outPhase, err = insertNops(outProg, outPhase, s.Param, rng)
		case Shuffle:
			shuffleWindows(outProg, outPhase, int(s.Param), rng)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return outProg, outPhase, nil
}

// insertNops inserts a NOP before each instruction slot with probability
// p, relocating branch word offsets and phase-marker indices so the
// rewritten program computes exactly what the original did. A branch
// aimed at instruction t lands on t itself (not on a NOP inserted before
// it), so padding executes on fall-through only — the same contract a
// compiler-level insertion pass provides.
func insertNops(prog []isa.Instruction, phaseAt map[int]int, p float64, rng *rand.Rand) ([]isa.Instruction, map[int]int, error) {
	out := make([]isa.Instruction, 0, len(prog)+len(prog)/4)
	// newPos[i] is instruction i's index in the rewritten program; the
	// extra entry maps the one-past-the-end fallthrough target.
	newPos := make([]int, len(prog)+1)
	for i, in := range prog {
		if rng.Float64() < p {
			out = append(out, isa.Instruction{Op: isa.NOP})
		}
		newPos[i] = len(out)
		out = append(out, in)
	}
	newPos[len(prog)] = len(out)

	// Branches and jumps encode word offsets relative to the next
	// instruction: a taken branch at i targets i + 1 + Imm.
	for i, in := range prog {
		if !in.IsBranch() {
			continue
		}
		t := i + 1 + int(in.Imm)
		if t < 0 || t > len(prog) {
			return nil, nil, fmt.Errorf("counter: branch at %d targets %d outside program [0,%d]", i, t, len(prog))
		}
		imm := newPos[t] - newPos[i] - 1
		if imm < math.MinInt16 || imm > math.MaxInt16 {
			return nil, nil, fmt.Errorf("counter: relocated branch at %d needs offset %d outside int16", i, imm)
		}
		out[newPos[i]].Imm = int32(imm)
	}

	remapped := make(map[int]int, len(phaseAt))
	for idx, id := range phaseAt {
		if idx < 0 || idx > len(prog) {
			return nil, nil, fmt.Errorf("counter: phase marker at %d outside program [0,%d]", idx, len(prog))
		}
		remapped[newPos[idx]] = id
	}
	return out, remapped, nil
}

// shuffleWindows reorders instructions in place within windows of length
// w. Windows never contain branches, HALT, or phase-marker indices, and
// never span a branch target: a target starts a new window, so no
// instruction moves across the boundary a jump lands on (which would
// pull code into a loop body or push it out of one). A swap happens
// only when the pair is reorderable: register read/write sets
// disjoint, and no store reordered against another memory access.
// Within a window each adjacent pair is swapped on a coin flip, front to
// back — a bounded version of an issue-queue picking randomly among
// ready instructions.
func shuffleWindows(prog []isa.Instruction, phaseAt map[int]int, w int, rng *rand.Rand) {
	target := make([]bool, len(prog))
	for i, in := range prog {
		if t := i + 1 + int(in.Imm); in.IsBranch() && t >= 0 && t < len(prog) {
			target[t] = true
		}
	}
	start := 0
	// flush shuffles the windows that fit in [start, end) and starts
	// the next run at next.
	flush := func(end, next int) {
		for ; start+w <= end; start += w {
			for i := start; i < start+w-1; i++ {
				if rng.Intn(2) == 1 && swappable(prog[i], prog[i+1]) {
					prog[i], prog[i+1] = prog[i+1], prog[i]
				}
			}
		}
		start = next
	}
	for i, in := range prog {
		_, marker := phaseAt[i]
		switch {
		case marker || in.IsBranch() || in.Op == isa.HALT:
			flush(i, i+1)
		case target[i]:
			flush(i, i)
		}
	}
	flush(len(prog), len(prog))
}

// swappable reports whether two adjacent non-branch instructions can be
// exchanged without changing what the program computes.
func swappable(a, b isa.Instruction) bool {
	if a.IsMem() && b.IsMem() && (a.Op == isa.ST || b.Op == isa.ST) {
		return false
	}
	aw, ar := a.RegSets()
	bw, br := b.RegSets()
	// RAW, WAR, WAW in either order.
	return aw&br == 0 && bw&ar == 0 && aw&bw == 0
}

// ApplySources returns the source table as seen through the chain's
// supply filters: a single-pole low-pass at cutoff fc scales every
// conducted (Diffuse) coupling by 1/√(1+(f0/fc)²) at the alternation
// frequency f0. Near- and far-field terms are radiated, not conducted,
// so a filter in the supply path does not touch them.
func ApplySources(t emsim.SourceTable, c Chain, f0 float64) emsim.SourceTable {
	for _, s := range c {
		if s.Name != SupplyFilter {
			continue
		}
		x := f0 / s.Param
		g := 1 / math.Sqrt(1+x*x)
		for i := range t {
			t[i].Diffuse *= g
		}
	}
	return t
}

// ApplyEnvironment returns the noise environment with the chain's noise
// generators added: each contributes its PSD to the diffuse background,
// raising the floor the band power is measured against.
func ApplyEnvironment(env noise.Environment, c Chain) noise.Environment {
	for _, s := range c {
		if s.Name == NoiseGen {
			env.RFBackgroundPSD += s.Param
		}
	}
	return env
}

// ApplyJitter returns the alternation jitter with the chain's run-time
// randomness folded in (see the package comment for why the time-domain
// countermeasures split into a static rewrite plus jitter):
//
//   - no-op insertion stretches each period by a random count with mean
//     p per slot, shifting the alternation fundamental by ≈ p/2 of the
//     two-half loop (FreqOffset) and feeding its per-period variance
//     into the random-walk dispersion (DriftStd);
//   - shuffling perturbs per-iteration timing without changing the mean,
//     so it only adds dispersion, growing with the window length.
func ApplyJitter(jit emsim.Jitter, c Chain) emsim.Jitter {
	for _, s := range c {
		switch s.Name {
		case NoopInsert:
			jit.FreqOffset += 0.5 * s.Param
			jit.DriftStd += 0.05 * s.Param
		case Shuffle:
			jit.DriftStd += 0.0002 * s.Param
		}
	}
	return jit
}
