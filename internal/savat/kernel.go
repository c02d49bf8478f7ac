package savat

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/activity"
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memhier"
)

// hierPools recycles memory hierarchies per configuration. A hierarchy
// is multi-megabyte (the L2 line array dominates) and kernel
// calibration needs one only for the duration of its probe runs, so
// campaigns building ~10² kernels borrow instead of allocating.
// Hierarchies are Reset by RunPhases before use, so pooled state never
// leaks into a run.
var hierPools sync.Map // memhier.Config -> *sync.Pool

func borrowHier(mc memhier.Config) (*memhier.Hierarchy, error) {
	pi, ok := hierPools.Load(mc)
	if !ok {
		pi, _ = hierPools.LoadOrStore(mc, &sync.Pool{})
	}
	if h, _ := pi.(*sync.Pool).Get().(*memhier.Hierarchy); h != nil {
		return h, nil
	}
	return memhier.New(mc)
}

func returnHier(mc memhier.Config, h *memhier.Hierarchy) {
	if h == nil {
		return
	}
	if pi, ok := hierPools.Load(mc); ok {
		pi.(*sync.Pool).Put(h)
	}
}

// Register allocation of the alternation kernel (Figure 4 of the paper,
// expressed in SVX32). r0 is never written and serves as zero.
const (
	regZero   isa.Reg = 0
	regValue  isa.Reg = 1 // load destination
	regPtrA   isa.Reg = 2 // ptr1
	regMaskA  isa.Reg = 3 // mask1
	regNMaskA isa.Reg = 4 // ^mask1
	regTmpA   isa.Reg = 5
	regPtrB   isa.Reg = 6 // ptr2
	regMaskB  isa.Reg = 7 // mask2
	regNMaskB isa.Reg = 8 // ^mask2
	regTmpB   isa.Reg = 9
	regCount  isa.Reg = 10 // i
	regStVal  isa.Reg = 12 // 0xFFFFFFFF store data
	regArith  isa.Reg = 14 // eax for ADD/SUB/MUL/DIV
)

// Array base addresses for the two instructions under test. They are far
// apart so the A and B instructions access separate groups of cache
// blocks, as Section III requires.
const (
	arrayABase uint32 = 0x0400_0000
	arrayBBase uint32 = 0x2000_0000
)

// SweepOffset is the pointer-update stride in bytes. The paper's code
// advances the access pointer by a small offset so consecutive accesses
// sweep within a cache line and only every LineBytes/SweepOffset-th
// access touches a new line; this is what keeps the memory rows' loop
// iteration times within a small factor of the arithmetic rows'.
const SweepOffset = 4

// PhaseA and PhaseB identify the two halves of the alternation loop in
// phase samples produced by running a Kernel.
const (
	PhaseA = 0
	PhaseB = 1
)

// Kernel is a generated A/B alternation microbenchmark.
type Kernel struct {
	A, B Event
	// LoopCount is inst_loop_count: instances of each instruction per
	// half, chosen so one full A/B alternation takes 1/Frequency seconds.
	LoopCount int
	// Frequency is the intended alternation frequency in Hz.
	Frequency float64
	// Program is the assembled kernel; it runs forever.
	Program []isa.Instruction
	// PhaseAt maps instruction indices to phase IDs for machine.RunPhases.
	PhaseAt map[int]int
	// ArrayBytes records the sweep-array size chosen for each half
	// (0 for non-memory events).
	ArrayBytes [2]int

	// sum is the content address of Program and PhaseAt, sealed by the
	// constructors; it keys the shared alternation cache. Kernels are
	// never mutated after construction.
	sum kernelSum
	// calibration is the work of the runs that chose LoopCount (zero
	// for kernels built with a given count).
	calibration simWork
}

// arrayBytes picks the sweep-array size that produces the event's cache
// behaviour on the given machine: well inside L1 for L1 hits, several
// times L1 but bounded by a fraction of L2 for L2 hits, and several times
// L2 for main-memory accesses. Non-memory events sweep a small dummy
// region without accessing it.
func arrayBytes(e Event, mc machine.Config) int {
	l1 := mc.Mem.L1.SizeBytes
	l2 := mc.Mem.L2.SizeBytes
	switch e {
	case LDL1, STL1:
		return l1 / 4
	case LDL2, STL2:
		n := 4 * l1
		if n > l2/4 {
			n = l2 / 4
		}
		if n <= l1 {
			n = 2 * l1 // degenerate geometry; still forces L1 misses
		}
		return n
	case LDM, STM:
		return 4 * l2
	default:
		return 4096
	}
}

// emitEvent emits the code for one instance of the instruction/event
// under test; site makes the labels of branch events unique.
func emitEvent(bld *asm.Builder, e Event, ptr isa.Reg, site string) {
	emitEventOffset(bld, e, ptr, 0, site)
}

// emitEventOffset is emitEvent with an explicit memory-operand offset,
// used by sequence kernels so consecutive memory events in one iteration
// touch distinct cache lines.
func emitEventOffset(bld *asm.Builder, e Event, ptr isa.Reg, off int32, site string) {
	switch e {
	case BPH:
		// An unconditional forward jump: always taken, always predicted.
		lbl := "bph_" + site
		bld.Jmp(lbl)
		bld.Label(lbl)
	case BPM:
		// A forward conditional branch that is always taken: the static
		// predictor assumes forward-not-taken, so every instance
		// mispredicts and flushes.
		lbl := "bpm_" + site
		bld.Beq(regZero, regZero, lbl)
		bld.Nop()
		bld.Label(lbl)
	default:
		if in, ok := testInstruction(e, ptr); ok {
			if in.IsMem() {
				in.Imm = off
			}
			bld.Emit(in)
		}
	}
}

// testInstruction returns the single instruction-under-test for a Figure 5
// event, or ok=false for NOI (empty slot) and the multi-instruction
// extension events.
func testInstruction(e Event, ptr isa.Reg) (isa.Instruction, bool) {
	switch e {
	case LDM, LDL2, LDL1:
		return isa.Instruction{Op: isa.LD, Rd: regValue, Rs1: ptr}, true
	case STM, STL2, STL1:
		return isa.Instruction{Op: isa.ST, Rd: regStVal, Rs1: ptr}, true
	case ADD:
		return isa.Instruction{Op: isa.ADDI, Rd: regArith, Rs1: regArith, Imm: 173}, true
	case SUB:
		return isa.Instruction{Op: isa.SUBI, Rd: regArith, Rs1: regArith, Imm: 173}, true
	case MUL:
		return isa.Instruction{Op: isa.MULI, Rd: regArith, Rs1: regArith, Imm: 173}, true
	case DIV:
		return isa.Instruction{Op: isa.DIVI, Rd: regArith, Rs1: regArith, Imm: 173}, true
	default:
		return isa.Instruction{}, false
	}
}

// buildProgram emits the full kernel for a given loop count and
// pointer-update stride.
func buildProgram(a, b Event, mc machine.Config, loopCount, stride int) (*asm.Program, error) {
	sizeA := arrayBytes(a, mc)
	sizeB := arrayBytes(b, mc)
	bld := asm.NewBuilder()

	// Setup: pointers, masks, constants.
	bld.Mov32(regPtrA, arrayABase)
	bld.Mov32(regMaskA, uint32(sizeA-1))
	bld.Mov32(regNMaskA, ^uint32(sizeA-1))
	bld.Mov32(regPtrB, arrayBBase)
	bld.Mov32(regMaskB, uint32(sizeB-1))
	bld.Mov32(regNMaskB, ^uint32(sizeB-1))
	bld.Movi(regStVal, -1) // 0xFFFFFFFF
	bld.Movi(regArith, 173)

	// Warm the cache-hit sweep arrays once before the alternation starts,
	// reproducing the steady state real hardware reaches in the first
	// milliseconds of the seconds-long measurement (the measured periods
	// advance the sweep pointer only a few KiB per period, so without this
	// every new line of an "L2 hit" array would be a cold DRAM miss).
	// Main-memory events need no warming: the load sweep's steady state is
	// the cold-fetch stream itself, and the store sweep goes through the
	// write-combining buffer without touching the caches. Store arrays warm
	// with a load (allocate) followed by a store (dirty) per line so that
	// the dirty-line steady state — the STL2 double-transaction behaviour —
	// holds from the first measured period.
	lineBytes := int32(mc.Mem.L1.LineBytes)
	emitWarm := func(label string, e Event, base uint32, size int, tmp isa.Reg) {
		if !e.IsMem() || e == LDM || e == STM {
			return
		}
		bld.Mov32(tmp, base)
		bld.Mov32(regCount, uint32(size/int(lineBytes)))
		bld.Label(label)
		bld.Ld(regValue, tmp, 0)
		if e.IsStore() {
			bld.St(tmp, 0, regStVal)
		}
		bld.Op3i(isa.ADDI, tmp, tmp, lineBytes)
		bld.Op3i(isa.SUBI, regCount, regCount, 1)
		bld.Bne(regCount, regZero, label)
	}
	emitWarm("warmA", a, arrayABase, sizeA, regTmpA)
	emitWarm("warmB", b, arrayBBase, sizeB, regTmpB)

	emitHalf := func(label string, e Event, ptr, mask, nmask, tmp isa.Reg) {
		bld.Mov32(regCount, uint32(loopCount))
		bld.Label(label)
		// ptr = (ptr & ~mask) | ((ptr+offset) & mask) — Figure 4 lines 4/10.
		bld.Op3i(isa.ADDI, tmp, ptr, int32(stride))
		bld.Op3r(isa.ANDR, tmp, tmp, mask)
		bld.Op3r(isa.ANDR, ptr, ptr, nmask)
		bld.Op3r(isa.ORR, ptr, ptr, tmp)
		emitEvent(bld, e, ptr, label)
		bld.Op3i(isa.SUBI, regCount, regCount, 1)
		bld.Bne(regCount, regZero, label)
	}

	bld.Label("outer") // phase A begins at the counter reload
	emitHalf("loopA", a, regPtrA, regMaskA, regNMaskA, regTmpA)
	bld.Label("phaseB")
	emitHalf("loopB", b, regPtrB, regMaskB, regNMaskB, regTmpB)
	bld.Jmp("outer")

	return bld.Program()
}

// BuildKernel generates the alternation kernel for events a and b on
// machine mc, calibrating inst_loop_count so that the alternation runs at
// the intended frequency (paper Section III: "we select a value that
// produces the desired alternation frequency").
func BuildKernel(mc machine.Config, a, b Event, frequency float64) (*Kernel, error) {
	return BuildKernelStride(mc, a, b, frequency, SweepOffset)
}

// BuildKernelStride is BuildKernel with an explicit pointer-update stride
// in bytes. The paper sweeps with a small offset so consecutive accesses
// share a cache line; a full-line stride (64) makes every access a miss and
// slows the memory rows' loops by an order of magnitude — the design-choice
// ablation DESIGN.md calls out.
func BuildKernelStride(mc machine.Config, a, b Event, frequency float64, stride int) (*Kernel, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if !a.Valid() || !b.Valid() {
		return nil, fmt.Errorf("savat: invalid event pair %v/%v", a, b)
	}
	if !(frequency > 0) || math.IsInf(frequency, 1) {
		return nil, fmt.Errorf("savat: alternation frequency %g not positive and finite", frequency)
	}
	if stride <= 0 || stride&3 != 0 {
		return nil, fmt.Errorf("savat: stride %d must be a positive multiple of 4", stride)
	}
	targetCycles := mc.ClockHz / frequency
	if targetCycles < 100 {
		return nil, fmt.Errorf("savat: alternation frequency %g too high for a %g Hz clock", frequency, mc.ClockHz)
	}

	// Fixed-point calibration: run a trial kernel, measure the achieved
	// period, rescale the loop count. Two rounds converge because the
	// per-iteration cost is nearly independent of the count. The probe
	// runs share one pooled memory hierarchy (reset between runs).
	hier, err := borrowHier(mc.Mem)
	if err != nil {
		return nil, err
	}
	defer returnHier(mc.Mem, hier)
	loopCount := 256
	var calibration simWork
	for round := 0; round < 2; round++ {
		k, err := assemble(mc, a, b, frequency, loopCount, stride)
		if err != nil {
			return nil, err
		}
		period, work, err := k.measurePeriodCycles(mc, hier)
		if err != nil {
			return nil, err
		}
		calibration.add(work)
		next := int(float64(loopCount) * targetCycles / period)
		if next < 1 {
			next = 1
		}
		if next > 1_000_000 {
			return nil, fmt.Errorf("savat: loop count %d unreasonable (clock %g Hz, f0 %g Hz)", next, mc.ClockHz, frequency)
		}
		loopCount = next
	}
	k, err := assemble(mc, a, b, frequency, loopCount, stride)
	if err != nil {
		return nil, err
	}
	k.calibration = calibration
	return k, nil
}

// assemble builds the Kernel value for a specific loop count.
func assemble(mc machine.Config, a, b Event, frequency float64, loopCount, stride int) (*Kernel, error) {
	prog, err := buildProgram(a, b, mc, loopCount, stride)
	if err != nil {
		return nil, err
	}
	outer, ok := prog.Symbol("outer")
	if !ok {
		return nil, fmt.Errorf("savat: kernel missing outer label")
	}
	phaseB, ok := prog.Symbol("phaseB")
	if !ok {
		return nil, fmt.Errorf("savat: kernel missing phaseB label")
	}
	phaseAt := map[int]int{int(outer): PhaseA, int(phaseB): PhaseB}
	return &Kernel{
		A: a, B: b,
		LoopCount: loopCount,
		Frequency: frequency,
		Program:   prog.Instructions,
		PhaseAt:   phaseAt,
		ArrayBytes: [2]int{
			memArrayBytes(a, mc), memArrayBytes(b, mc),
		},
		sum: sumKernel(prog.Instructions, phaseAt),
	}, nil
}

func memArrayBytes(e Event, mc machine.Config) int {
	if !e.IsMem() {
		return 0
	}
	return arrayBytes(e, mc)
}

// simWork is the simulator's work in one or more runs: the
// deterministic counts the simulator layer benchmark reports next to
// its time, which tell "more work" from "slower work".
type simWork struct {
	retired, cycles, interpreted uint64
}

func workOf(res *machine.RunResult) simWork {
	return simWork{res.Retired, res.Cycles, res.CPU.Interpreted()}
}

func (w *simWork) add(o simWork) {
	w.retired += o.retired
	w.cycles += o.cycles
	w.interpreted += o.interpreted
}

// measurePeriodCycles runs a few alternations and returns the mean number
// of core cycles per full A/B period, skipping cache warm-up, and the
// run's work.
func (k *Kernel) measurePeriodCycles(mc machine.Config, hier *memhier.Hierarchy) (float64, simWork, error) {
	m, err := machine.New(mc)
	if err != nil {
		return 0, simWork{}, err
	}
	const periods = 5
	res, err := m.RunPhases(k.Program, k.PhaseAt, machine.RunOptions{
		MaxSamples: 2 * (periods + 2),
		Hier:       hier,
	})
	if err != nil {
		return 0, simWork{}, err
	}
	ph := activity.SummarizePhases(res.Samples, mc.ClockHz, 2)
	sa, oka := ph[PhaseA]
	sb, okb := ph[PhaseB]
	if !oka || !okb {
		return 0, simWork{}, fmt.Errorf("savat: calibration run produced no steady-state phases")
	}
	return sa.MeanCycles + sb.MeanCycles, workOf(res), nil
}

// Alternation runs the kernel cycle-accurately for enough periods to
// reach steady state and returns the per-phase activity rates and
// durations, ready for EM synthesis.
func (k *Kernel) Alternation(mc machine.Config, warmupPeriods, measurePeriods int) (*AlternationResult, error) {
	return k.alternationHier(mc, warmupPeriods, measurePeriods, nil)
}

// alternationHier is Alternation with an optional reusable memory
// hierarchy (see machine.RunOptions.Hier); the simulation cache threads
// a pooled hierarchy through here.
func (k *Kernel) alternationHier(mc machine.Config, warmupPeriods, measurePeriods int, hier *memhier.Hierarchy) (*AlternationResult, error) {
	if warmupPeriods < 0 || measurePeriods <= 0 {
		return nil, fmt.Errorf("savat: bad period counts warmup=%d measure=%d", warmupPeriods, measurePeriods)
	}
	m, err := machine.New(mc)
	if err != nil {
		return nil, err
	}
	res, err := m.RunPhases(k.Program, k.PhaseAt, machine.RunOptions{
		MaxSamples: 2 * (warmupPeriods + measurePeriods + 1),
		Hier:       hier,
	})
	if err != nil {
		return nil, err
	}
	ph := activity.SummarizePhases(res.Samples, mc.ClockHz, warmupPeriods)
	sa, oka := ph[PhaseA]
	sb, okb := ph[PhaseB]
	if !oka || !okb {
		return nil, fmt.Errorf("savat: run produced no steady-state phases (have %d samples)", len(res.Samples))
	}
	return &AlternationResult{
		Kernel:      k,
		PhaseStats:  [2]activity.PhaseStats{sa, sb},
		HalfSeconds: [2]float64{sa.MeanCycles / mc.ClockHz, sb.MeanCycles / mc.ClockHz},
		work:        workOf(res),
	}, nil
}

// AlternationResult is the steady-state behaviour of a kernel on a
// machine: what the EM model radiates.
type AlternationResult struct {
	Kernel      *Kernel
	PhaseStats  [2]activity.PhaseStats
	HalfSeconds [2]float64

	work simWork // the alternation run's
}

// Period returns the achieved alternation period in seconds.
func (r *AlternationResult) Period() float64 {
	return r.HalfSeconds[0] + r.HalfSeconds[1]
}

// ActualFrequency returns the achieved alternation frequency in Hz.
func (r *AlternationResult) ActualFrequency() float64 { return 1 / r.Period() }

// PairsPerSecond returns the number of A/B instruction pairs executed per
// second — the divisor that turns band power into per-pair signal energy.
func (r *AlternationResult) PairsPerSecond() float64 {
	return float64(r.Kernel.LoopCount) / r.Period()
}
