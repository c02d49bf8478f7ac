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
// machine.Prologue Resets a hierarchy before use and RunPhases Resets
// or Restores it, so pooled state never leaks into a run.
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
	regPtrA2  isa.Reg = 11 // half A's second memory stream
	regStVal  isa.Reg = 12 // 0xFFFFFFFF store data
	regPtrB2  isa.Reg = 13 // half B's second memory stream
	regArith  isa.Reg = 14 // eax for ADD/SUB/MUL/DIV
)

// Array base addresses for the two halves under test. They are far apart
// so the A and B instructions access separate groups of cache blocks, as
// Section III requires.
const (
	arrayABase uint32 = 0x0400_0000
	arrayBBase uint32 = 0x2000_0000
	// stream2Offset places a half's second sweep array away from its first
	// (and from the other half's arrays).
	stream2Offset uint32 = 0x0800_0000
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
	// A and B are the events under test. A sequence half longer than one
	// event is represented by its memory event, or NOI if it has none.
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
	// (0 for a half with no memory event).
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

// emitInstance emits the code for one instance of the event under test;
// site makes the labels of branch events unique.
func emitInstance(bld *asm.Builder, e Event, ptr isa.Reg, site string) {
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

// emitProgram emits the full kernel — the Figure 4 loop with sequence a
// in one half and b in the other — for a given loop count and
// pointer-update stride. A single-instruction pair is the one-event case.
func emitProgram(a, b Sequence, mc machine.Config, loopCount, stride int) (*asm.Program, error) {
	sizeA := arrayBytes(a.memEvent(), mc)
	sizeB := arrayBytes(b.memEvent(), mc)
	bld := asm.NewBuilder()

	// Setup: pointers, masks, constants.
	bld.Mov32(regPtrA, arrayABase)
	bld.Mov32(regMaskA, uint32(sizeA-1))
	bld.Mov32(regNMaskA, ^uint32(sizeA-1))
	bld.Mov32(regPtrB, arrayBBase)
	bld.Mov32(regMaskB, uint32(sizeB-1))
	bld.Mov32(regNMaskB, ^uint32(sizeB-1))
	if a.memStreams() > 1 {
		bld.Mov32(regPtrA2, arrayABase+stream2Offset)
	}
	if b.memStreams() > 1 {
		bld.Mov32(regPtrB2, arrayBBase+stream2Offset)
	}
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
	emitWarm := func(label string, s Sequence, base uint32, size int, tmp isa.Reg) {
		e := s.memEvent()
		if !e.IsMem() || e == LDM || e == STM {
			return
		}
		for st := 0; st < s.memStreams(); st++ {
			lbl := fmt.Sprintf("%s%d", label, st)
			bld.Mov32(tmp, base+uint32(st)*stream2Offset)
			bld.Mov32(regCount, uint32(size/int(lineBytes)))
			bld.Label(lbl)
			bld.Ld(regValue, tmp, 0)
			if e.IsStore() {
				bld.St(tmp, 0, regStVal)
			}
			bld.Op3i(isa.ADDI, tmp, tmp, lineBytes)
			bld.Op3i(isa.SUBI, regCount, regCount, 1)
			bld.Bne(regCount, regZero, lbl)
		}
	}
	emitWarm("warmA", a, arrayABase, sizeA, regTmpA)
	emitWarm("warmB", b, arrayBBase, sizeB, regTmpB)

	// A half with two or more memory events sweeps two independent
	// arrays, alternating its memory events between them, so each event
	// generates its own miss traffic (two offsets into one swept array
	// would share lines — the second access prefetches for the first).
	emitHalf := func(label string, s Sequence, ptr, ptr2, mask, nmask, tmp isa.Reg) {
		bld.Mov32(regCount, uint32(loopCount))
		bld.Label(label)
		// ptr = (ptr & ~mask) | ((ptr+offset) & mask) — Figure 4 lines 4/10.
		update := func(p isa.Reg) {
			bld.Op3i(isa.ADDI, tmp, p, int32(stride))
			bld.Op3r(isa.ANDR, tmp, tmp, mask)
			bld.Op3r(isa.ANDR, p, p, nmask)
			bld.Op3r(isa.ORR, p, p, tmp)
		}
		update(ptr)
		if s.memStreams() > 1 {
			update(ptr2)
		}
		memIdx := 0
		for i, e := range s {
			p := ptr
			if e.IsMem() {
				if memIdx%2 == 1 {
					p = ptr2
				}
				memIdx++
			}
			emitInstance(bld, e, p, fmt.Sprintf("%s_%d", label, i))
		}
		bld.Op3i(isa.SUBI, regCount, regCount, 1)
		bld.Bne(regCount, regZero, label)
	}

	bld.Label("outer") // phase A begins at the counter reload
	emitHalf("loopA", a, regPtrA, regPtrA2, regMaskA, regNMaskA, regTmpA)
	bld.Label("phaseB")
	emitHalf("loopB", b, regPtrB, regPtrB2, regMaskB, regNMaskB, regTmpB)
	bld.Jmp("outer")

	return bld.Program()
}

// minPeriodCycles is the fewest clock cycles one alternation period may
// span. A shorter period leaves the calibration no room for the A and B
// loops, so both CampaignSpec.Validate and the kernel builder reject a
// frequency above ClockHz/minPeriodCycles.
const minPeriodCycles = 100

// checkPeriodCycles reports, wrapping ErrBadFrequency, an alternation
// frequency whose period spans fewer than minPeriodCycles cycles of a
// clockHz clock.
func checkPeriodCycles(clockHz, frequency float64) error {
	if clockHz/frequency < minPeriodCycles {
		return fmt.Errorf("%w: %g Hz is too high for a %g Hz clock (under %d cycles per period)",
			ErrBadFrequency, frequency, clockHz, minPeriodCycles)
	}
	return nil
}

// calWarmup and calMeasure are the periods a calibration round runs
// before and while it measures a trial kernel's period.
const calWarmup, calMeasure = 2, 5

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
	return buildKernel(mc, Sequence{a}, Sequence{b}, frequency, stride)
}

// buildKernel validates, calibrates and assembles the alternation kernel
// for sequence halves a and b: the one path behind BuildKernel and the
// simulation cache's kernels.
func buildKernel(mc machine.Config, a, b Sequence, frequency float64, stride int) (*Kernel, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if !(frequency > 0) || math.IsInf(frequency, 1) {
		return nil, fmt.Errorf("%w: %g Hz not positive and finite", ErrBadFrequency, frequency)
	}
	if stride <= 0 || stride&3 != 0 {
		return nil, fmt.Errorf("savat: stride %d must be a positive multiple of 4", stride)
	}
	if err := checkPeriodCycles(mc.ClockHz, frequency); err != nil {
		return nil, err
	}

	// Fixed-point calibration: run a trial kernel for five periods past a
	// two-period warm-up, measure the achieved period, rescale the loop
	// count. Two rounds converge because the per-iteration cost is nearly
	// independent of the count. The probe runs share one pooled memory
	// hierarchy (reset, or restored from the prologue state, between
	// runs).
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
		ph, work, err := k.runPhases(mc, 2*(calWarmup+calMeasure), calWarmup, hier)
		if err != nil {
			return nil, err
		}
		calibration.add(work)
		if loopCount, err = rescaleLoopCount(mc, frequency, loopCount, ph); err != nil {
			return nil, err
		}
	}
	k, err := assemble(mc, a, b, frequency, loopCount, stride)
	if err != nil {
		return nil, err
	}
	k.calibration = calibration
	return k, nil
}

// rescaleLoopCount is one calibration round's step: the loop count
// that would make a kernel whose trial run at loopCount measured ph
// alternate at frequency.
func rescaleLoopCount(mc machine.Config, frequency float64, loopCount int, ph [2]activity.PhaseStats) (int, error) {
	period := ph[PhaseA].MeanCycles + ph[PhaseB].MeanCycles
	targetCycles := mc.ClockHz / frequency
	next := int(float64(loopCount) * targetCycles / period)
	if next < 1 {
		next = 1
	}
	if next > 1_000_000 {
		return 0, fmt.Errorf("savat: loop count %d unreasonable (clock %g Hz, f0 %g Hz)", next, mc.ClockHz, frequency)
	}
	return next, nil
}

// assemble builds the Kernel value for a specific loop count.
func assemble(mc machine.Config, a, b Sequence, frequency float64, loopCount, stride int) (*Kernel, error) {
	prog, err := emitProgram(a, b, mc, loopCount, stride)
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
	// A one-event half is its event; a longer one its representative.
	event := func(s Sequence) Event {
		if len(s) == 1 {
			return s[0]
		}
		return s.memEvent()
	}
	memBytes := func(s Sequence) int {
		if e := s.memEvent(); e.IsMem() {
			return arrayBytes(e, mc)
		}
		return 0
	}
	phaseAt := map[int]int{int(outer): PhaseA, int(phaseB): PhaseB}
	return &Kernel{
		A: event(a), B: event(b),
		LoopCount:  loopCount,
		Frequency:  frequency,
		Program:    prog.Instructions,
		PhaseAt:    phaseAt,
		ArrayBytes: [2]int{memBytes(a), memBytes(b)},
		sum:        sumKernel(prog.Instructions, phaseAt),
	}, nil
}

// simWork is the simulator's work in one or more runs: the
// deterministic counts the simulator layer benchmark reports next to
// its time, which tell "more work" from "slower work".
type simWork struct {
	retired, cycles, interpreted uint64
	// prologues counts the kernel prologues simulated to serve the
	// runs (see simCache.prologue); the other counts include the
	// prologue of every run, as if each had simulated its own.
	prologues uint64
}

func workOf(res *machine.RunResult) simWork {
	return simWork{retired: res.Retired, cycles: res.Cycles, interpreted: res.CPU.Interpreted()}
}

func (w *simWork) add(o simWork) {
	w.retired += o.retired
	w.cycles += o.cycles
	w.interpreted += o.interpreted
	w.prologues += o.prologues
}

// runPhases runs the kernel for at most maxSamples phase samples, on hier
// when it is non-nil, and summarizes phases A and B past the first skip
// periods. Calibration and Alternation both measure through it. Every
// run starts from the process-wide saved state at the kernel's first
// phase marker (see simCache.prologue), so a pair's two calibration
// rounds and its alternation — and every pair whose halves warm the
// same arrays — simulate the pre-touch prologue once between them; the
// runs are the cold runs exactly.
func (k *Kernel) runPhases(mc machine.Config, maxSamples, skip int, hier *memhier.Hierarchy) ([2]activity.PhaseStats, simWork, error) {
	m, err := machine.New(mc)
	if err != nil {
		return [2]activity.PhaseStats{}, simWork{}, err
	}
	warm, ranPrologue, err := sims.prologue(m, k, hier)
	if err != nil {
		return [2]activity.PhaseStats{}, simWork{}, err
	}
	res, err := m.RunPhases(k.Program, k.PhaseAt, machine.RunOptions{
		MaxSamples: maxSamples,
		Hier:       hier,
		Warm:       warm,
	})
	if err != nil {
		return [2]activity.PhaseStats{}, simWork{}, err
	}
	ph := activity.SummarizePhases(res.Samples, mc.ClockHz, skip)
	sa, oka := ph[PhaseA]
	sb, okb := ph[PhaseB]
	if !oka || !okb {
		return [2]activity.PhaseStats{}, simWork{}, fmt.Errorf("savat: run produced no steady-state phases (have %d samples)", len(res.Samples))
	}
	work := workOf(res)
	if ranPrologue {
		work.prologues = 1
	}
	return [2]activity.PhaseStats{sa, sb}, work, nil
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
	ph, work, err := k.runPhases(mc, 2*(warmupPeriods+measurePeriods+1), warmupPeriods, hier)
	if err != nil {
		return nil, err
	}
	return &AlternationResult{
		Kernel:      k,
		PhaseStats:  ph,
		HalfSeconds: [2]float64{ph[PhaseA].MeanCycles / mc.ClockHz, ph[PhaseB].MeanCycles / mc.ClockHz},
		work:        work,
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
