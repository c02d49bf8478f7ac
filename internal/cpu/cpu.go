// Package cpu implements the in-order scalar SVX32 core used by all three
// simulated laptops.
//
// The core executes one instruction per Step, charging a class-dependent
// latency (the iterative divider and the memory hierarchy dominate), and
// accumulates per-component activity events that the machine layer turns
// into radiated EM signal. The model is deliberately simple — SAVAT depends
// on *relative* activity-rate differences between alternation-loop halves,
// which an in-order timing model captures; the absolute throughput of a
// 4-wide out-of-order core only rescales all rates together.
package cpu

import (
	"fmt"

	"repro/internal/activity"
	"repro/internal/isa"
	"repro/internal/memhier"
)

// Config sets the core's timing and activity parameters.
type Config struct {
	ALUCycles          int     // simple integer op latency
	MulCycles          int     // multiplier latency
	DivCycles          int     // iterative divider latency (machine-specific)
	BranchCycles       int     // correctly predicted branch
	MispredictCycles   int     // added on a misprediction
	MulEvents          float64 // multiplier switching events per MUL
	DivEventsPerCycle  float64 // divider switching events per active cycle
	FetchEventsPerInst float64 // front-end switching events per instruction
}

// Validate reports the first configuration problem.
func (c Config) Validate() error {
	if c.ALUCycles <= 0 || c.MulCycles <= 0 || c.DivCycles <= 0 || c.BranchCycles <= 0 {
		return fmt.Errorf("cpu: non-positive latency in %+v", c)
	}
	if c.MispredictCycles < 0 {
		return fmt.Errorf("cpu: negative mispredict penalty")
	}
	if c.MulEvents <= 0 || c.DivEventsPerCycle <= 0 || c.FetchEventsPerInst <= 0 {
		return fmt.Errorf("cpu: non-positive event weights in %+v", c)
	}
	return nil
}

// DefaultConfig returns a generic mid-2000s laptop core configuration.
func DefaultConfig() Config {
	return Config{
		ALUCycles:          1,
		MulCycles:          3,
		DivCycles:          22,
		BranchCycles:       1,
		MispredictCycles:   12,
		MulEvents:          3,
		DivEventsPerCycle:  1,
		FetchEventsPerInst: 1,
	}
}

// CPU is one simulated core.
type CPU struct {
	cfg    Config
	prog   []isa.Instruction
	mem    *Memory
	hier   *memhier.Hierarchy
	regs   [isa.NumRegs]uint32
	pc     int
	cycle  uint64
	halted bool
	act    activity.Vector

	// Core-side activity is tallied as integer instruction counts and
	// materialized into act on TakeActivity: every core event class adds
	// a fixed per-instruction weight, and count×weight equals the
	// repeated float additions exactly for the integer-valued default
	// weights, so this is a pure win over per-step float accumulation.
	// Memory-side activity (AccessInto) has per-access values and stays
	// on the float accumulator.
	fetchN, aluN, mulN, divN, branchN uint64

	retired     uint64
	mispredicts uint64
	// skipped counts the retired instructions fast-forwarded with whole
	// loop iterations (see loop); the rest were interpreted one by one.
	skipped uint64

	// loops holds the program's counted loops by back-edge pc (nil
	// where none ends); see findLoops.
	loops []*loop
}

// New builds a core running prog against the given memory hierarchy.
func New(cfg Config, prog []isa.Instruction, hier *memhier.Hierarchy) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(prog) == 0 {
		return nil, fmt.Errorf("cpu: empty program")
	}
	if hier == nil {
		return nil, fmt.Errorf("cpu: nil memory hierarchy")
	}
	loops := findLoops(prog, &cfg, uint64(hier.Config().L1HitCycles))
	return &CPU{cfg: cfg, prog: prog, mem: NewMemory(), hier: hier, loops: loops}, nil
}

// PC returns the current program counter (instruction word index).
func (c *CPU) PC() int { return c.pc }

// Cycle returns the current cycle count.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Halted reports whether a HALT has retired.
func (c *CPU) Halted() bool { return c.halted }

// Retired returns the number of retired instructions.
func (c *CPU) Retired() uint64 { return c.retired }

// Mispredicts returns the number of branch mispredictions.
func (c *CPU) Mispredicts() uint64 { return c.mispredicts }

// Interpreted returns how many of the retired instructions were
// executed one at a time rather than fast-forwarded with a whole loop
// iteration.
func (c *CPU) Interpreted() uint64 { return c.retired - c.skipped }

// Reg reads an architectural register.
func (c *CPU) Reg(r isa.Reg) uint32 { return c.regs[r] }

// SetReg writes an architectural register (used to set up workloads).
func (c *CPU) SetReg(r isa.Reg, v uint32) { c.regs[r] = v }

// Mem exposes the data memory for workload setup and inspection.
func (c *CPU) Mem() *Memory { return c.mem }

// flushCounts folds the integer core-side tallies into the float
// accumulator and clears them.
func (c *CPU) flushCounts() {
	if c.fetchN != 0 {
		c.act[activity.Fetch] += c.cfg.FetchEventsPerInst * float64(c.fetchN)
		c.fetchN = 0
	}
	if c.aluN != 0 {
		c.act[activity.ALU] += float64(c.aluN)
		c.aluN = 0
	}
	if c.mulN != 0 {
		c.act[activity.Mul] += c.cfg.MulEvents * float64(c.mulN)
		c.mulN = 0
	}
	if c.divN != 0 {
		c.act[activity.Div] += c.cfg.DivEventsPerCycle * float64(c.cfg.DivCycles) * float64(c.divN)
		c.divN = 0
	}
	if c.branchN != 0 {
		c.act[activity.Branch] += float64(c.branchN)
		c.branchN = 0
	}
}

// TakeActivity returns the activity accumulated since the previous call
// and resets the accumulator.
func (c *CPU) TakeActivity() activity.Vector {
	c.flushCounts()
	v := c.act
	c.act = activity.Vector{}
	return v
}

// AddActivity injects extra activity events; the SAVAT kernel runner uses
// this for the loop-half code-placement asymmetry.
func (c *CPU) AddActivity(comp activity.Component, n float64) {
	c.act.Add(comp, n)
}

// Step executes one instruction. It returns an error on PC overrun or an
// undefined opcode; a retired HALT sets Halted and further Steps fail.
func (c *CPU) Step() error {
	_, err := c.RunToMarker(nil, 0, 1)
	return err
}

// RunToMarker executes instructions until the PC lands on a marker
// (an index with lookup[pc] >= 0 — checked only after at least one
// instruction, so a caller sitting on a marker makes progress), the
// core halts, the cycle count reaches maxCycles (when non-zero), or
// maxSteps instructions have retired. It returns how many retired.
//
// This is the interpreter: one fused dispatch loop with the hot state
// (pc, cycle, per-class activity tallies) in locals, written back once
// on exit. Step and Run route through it, so every execution path has
// identical semantics. At the taken back edge of a counted loop it
// fast-forwards whole iterations that provably repeat the one just
// retired (see loop.iterations and fastForward); with maxSteps = 1,
// as in Step, no whole iteration fits and it never does.
func (c *CPU) RunToMarker(lookup []int32, maxCycles, maxSteps uint64) (uint64, error) {
	if c.halted {
		return 0, fmt.Errorf("cpu: step after halt")
	}
	cfg := &c.cfg
	prog := c.prog
	regs := &c.regs
	mem := c.mem
	hier := c.hier
	act := &c.act
	pc := c.pc
	cycle := c.cycle
	aluLat := uint64(cfg.ALUCycles)
	mulLat := uint64(cfg.MulCycles)
	divLat := uint64(cfg.DivCycles)
	branchLat := uint64(cfg.BranchCycles)
	mispredictLat := uint64(cfg.MispredictCycles)
	// A zero maxCycles means "no limit"; the sentinel keeps the loop head
	// to a single compare instead of a flag test plus a compare.
	cycleLimit := maxCycles
	if cycleLimit == 0 {
		cycleLimit = ^uint64(0)
	}
	var steps, fetchN, aluN, mulN, divN, branchN, mispredicts uint64
	halted := false
	var err error

	// A taken back edge of a counted loop leaves the dispatch loop, and
	// the fast-forward runs between passes: called from inside it, it
	// would make the compiler spill the hot locals on every instruction.
	for {
		var ff *loop // the counted loop whose back edge just retired
	dispatch:
		for steps < maxSteps && cycle < cycleLimit {
			// The uint cast folds the two PC range tests into one compare; a
			// negative pc wraps far above any program length.
			if uint(pc) >= uint(len(prog)) {
				err = fmt.Errorf("cpu: pc %d outside program of %d words", pc, len(prog))
				break
			}
			if steps != 0 && pc < len(lookup) && lookup[pc] >= 0 {
				break
			}
			in := &prog[pc]
			fetchN++
			next := pc + 1
			lat := aluLat

			switch in.Op {
			case isa.NOP:
				// front-end only
			case isa.HALT:
				halted = true
			case isa.MOVI:
				regs[in.Rd] = uint32(in.Imm)
				aluN++
			case isa.LUI:
				regs[in.Rd] = regs[in.Rd]&0xFFFF | uint32(in.Imm)<<16
				aluN++
			case isa.ADDI:
				regs[in.Rd] = regs[in.Rs1] + uint32(in.Imm)
				aluN++
			case isa.ADDR:
				regs[in.Rd] = regs[in.Rs1] + regs[in.Rs2]
				aluN++
			case isa.SUBI:
				regs[in.Rd] = regs[in.Rs1] - uint32(in.Imm)
				aluN++
			case isa.SUBR:
				regs[in.Rd] = regs[in.Rs1] - regs[in.Rs2]
				aluN++
			case isa.ANDI:
				regs[in.Rd] = regs[in.Rs1] & uint32(in.Imm)
				aluN++
			case isa.ANDR:
				regs[in.Rd] = regs[in.Rs1] & regs[in.Rs2]
				aluN++
			case isa.ORI:
				regs[in.Rd] = regs[in.Rs1] | uint32(in.Imm)
				aluN++
			case isa.ORR:
				regs[in.Rd] = regs[in.Rs1] | regs[in.Rs2]
				aluN++
			case isa.XORI:
				regs[in.Rd] = regs[in.Rs1] ^ uint32(in.Imm)
				aluN++
			case isa.XORR:
				regs[in.Rd] = regs[in.Rs1] ^ regs[in.Rs2]
				aluN++
			case isa.SHLI:
				regs[in.Rd] = regs[in.Rs1] << uint(in.Imm)
				aluN++
			case isa.SHRI:
				regs[in.Rd] = regs[in.Rs1] >> uint(in.Imm)
				aluN++
			case isa.MULI:
				regs[in.Rd] = uint32(int32(regs[in.Rs1]) * in.Imm)
				mulN++
				lat = mulLat
			case isa.MULR:
				regs[in.Rd] = uint32(int32(regs[in.Rs1]) * int32(regs[in.Rs2]))
				mulN++
				lat = mulLat
			case isa.DIVI:
				regs[in.Rd] = uint32(divide(int32(regs[in.Rs1]), in.Imm))
				divN++
				lat = divLat
			case isa.DIVR:
				regs[in.Rd] = uint32(divide(int32(regs[in.Rs1]), int32(regs[in.Rs2])))
				divN++
				lat = divLat
			case isa.LD:
				addr := uint64(regs[in.Rs1] + uint32(in.Imm))
				regs[in.Rd] = mem.Load32(addr)
				var l int
				_, l = hier.AccessInto(addr, false, act)
				lat = uint64(l)
			case isa.ST:
				addr := uint64(regs[in.Rs1] + uint32(in.Imm))
				mem.Store32(addr, regs[in.Rd])
				var l int
				_, l = hier.AccessInto(addr, true, act)
				lat = uint64(l)
			case isa.BEQ, isa.BNE, isa.JMP:
				taken := true
				switch in.Op {
				case isa.BEQ:
					taken = regs[in.Rd] == regs[in.Rs1]
				case isa.BNE:
					taken = regs[in.Rd] != regs[in.Rs1]
				}
				branchN++
				lat = branchLat
				// Static prediction: backward taken, forward not-taken; JMP always
				// predicted taken.
				predictTaken := in.Imm < 0 || in.Op == isa.JMP
				if taken != predictTaken {
					lat += mispredictLat
					mispredicts++
				}
				if taken {
					next = pc + 1 + int(in.Imm)
					if ff = c.loops[pc]; ff != nil {
						pc = next
						cycle += lat
						steps++
						break dispatch
					}
				}
			default:
				err = fmt.Errorf("cpu: undefined opcode %d at pc %d", in.Op, pc)
			}
			if err != nil {
				break
			}

			pc = next
			cycle += lat
			steps++
			if halted {
				break
			}
		}

		// Whole iterations start at the loop head, at steps and cycle.
		lp := ff
		if lp == nil || steps >= maxSteps || cycle >= cycleLimit {
			break
		}
		k := c.fastForward(lp, lp.iterations(regs, lookup, maxSteps-steps, cycleLimit-cycle))
		steps += k * lp.steps
		c.skipped += k * lp.steps
		cycle += k * lp.cycles
		fetchN += k * lp.fetchN
		aluN += k * lp.aluN
		mulN += k * lp.mulN
		divN += k * lp.divN
		branchN += k * lp.branchN
		mispredicts += k * lp.mispredicts
	}

	c.pc = pc
	c.cycle = cycle
	c.halted = halted
	c.retired += steps
	c.mispredicts += mispredicts
	c.fetchN += fetchN
	c.aluN += aluN
	c.mulN += mulN
	c.divN += divN
	c.branchN += branchN
	return steps, err
}

// divide implements the divider's saturating semantics: division by zero
// yields -1 (all ones), and the INT32_MIN / -1 overflow yields INT32_MIN.
func divide(a, b int32) int32 {
	switch {
	case b == 0:
		return -1
	case a == -1<<31 && b == -1:
		return -1 << 31
	default:
		return a / b
	}
}

// Run steps until HALT or maxSteps, returning the number of retired
// instructions.
func (c *CPU) Run(maxSteps uint64) (uint64, error) {
	if c.halted || maxSteps == 0 {
		return 0, nil
	}
	return c.RunToMarker(nil, 0, maxSteps)
}
