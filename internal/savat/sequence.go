package savat

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memhier"
)

// This file implements the paper's Section III extension from single
// instructions to instruction sequences: "A more accurate SAVAT
// measurement of signal differences created by executing different
// sequences of instructions can be performed by using those entire
// sequences as A/B activity in the measurement." The paper also proposes
// estimating a sequence difference as the sum of single-instruction
// SAVATs and notes the estimate is imprecise because instructions can be
// reordered and overlap; SequenceAdditivity quantifies exactly that gap.

// Sequence is an ordered list of instruction events executed back-to-back
// inside one alternation-loop iteration.
type Sequence []Event

// String renders "ADD+LDM+MUL".
func (s Sequence) String() string {
	if len(s) == 0 {
		return "∅"
	}
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return strings.Join(parts, "+")
}

// MaxSequenceLen bounds sequence length: each iteration must stay small
// relative to the alternation half-period for the loop-count calibration
// to hold.
const MaxSequenceLen = 4

// Validate reports the first problem with the sequence. All memory events
// within one sequence must target the same cache level, because they share
// the half's sweep pointer and array.
func (s Sequence) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("savat: empty sequence")
	}
	if len(s) > MaxSequenceLen {
		return fmt.Errorf("savat: sequence %v longer than %d", s, MaxSequenceLen)
	}
	var memEvent Event
	haveMem := false
	for _, e := range s {
		if !e.Valid() {
			return fmt.Errorf("savat: invalid event %v in sequence", e)
		}
		if e.IsMem() {
			if haveMem && arrayClass(e) != arrayClass(memEvent) {
				return fmt.Errorf("savat: sequence %v mixes cache levels %v and %v (memory events share the sweep array)", s, memEvent, e)
			}
			memEvent = e
			haveMem = true
		}
	}
	return nil
}

// arrayClass groups memory events by the cache level their sweep targets.
func arrayClass(e Event) int {
	switch e {
	case LDL1, STL1:
		return 1
	case LDL2, STL2:
		return 2
	case LDM, STM:
		return 3
	default:
		return 0
	}
}

// memEventOf returns the sequence's memory event class representative
// (ok=false if the sequence has no memory events).
func (s Sequence) memEventOf() (Event, bool) {
	for _, e := range s {
		if e.IsMem() {
			return e, true
		}
	}
	return 0, false
}

// seqArrayBytes sizes the sweep array for a sequence half.
func seqArrayBytes(s Sequence, mc machine.Config) int {
	if e, ok := s.memEventOf(); ok {
		return arrayBytes(e, mc)
	}
	return 4096
}

// BuildSequenceKernel generates the alternation kernel for two sequences,
// calibrated to the intended alternation frequency like BuildKernel.
func BuildSequenceKernel(mc machine.Config, a, b Sequence, frequency float64) (*Kernel, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if frequency <= 0 {
		return nil, fmt.Errorf("savat: non-positive alternation frequency %g", frequency)
	}
	if mc.ClockHz/frequency < 100 {
		return nil, fmt.Errorf("savat: alternation frequency %g too high for a %g Hz clock", frequency, mc.ClockHz)
	}
	hier, err := memhier.New(mc.Mem)
	if err != nil {
		return nil, err
	}
	loopCount := 256
	for round := 0; round < 2; round++ {
		k, err := assembleSequence(mc, a, b, frequency, loopCount)
		if err != nil {
			return nil, err
		}
		period, _, err := k.measurePeriodCycles(mc, hier)
		if err != nil {
			return nil, err
		}
		next := int(float64(loopCount) * mc.ClockHz / frequency / period)
		if next < 1 {
			next = 1
		}
		if next > 1_000_000 {
			return nil, fmt.Errorf("savat: sequence loop count %d unreasonable", next)
		}
		loopCount = next
	}
	return assembleSequence(mc, a, b, frequency, loopCount)
}

func assembleSequence(mc machine.Config, a, b Sequence, frequency float64, loopCount int) (*Kernel, error) {
	prog, err := buildSequenceProgramStride(a, b, mc, loopCount, SweepOffset)
	if err != nil {
		return nil, err
	}
	outer, ok := prog.Symbol("outer")
	if !ok {
		return nil, fmt.Errorf("savat: sequence kernel missing outer label")
	}
	phaseB, ok := prog.Symbol("phaseB")
	if !ok {
		return nil, fmt.Errorf("savat: sequence kernel missing phaseB label")
	}
	aRep, bRep := NOI, NOI
	if e, ok := a.memEventOf(); ok {
		aRep = e
	}
	if e, ok := b.memEventOf(); ok {
		bRep = e
	}
	phaseAt := map[int]int{int(outer): PhaseA, int(phaseB): PhaseB}
	return &Kernel{
		A: aRep, B: bRep, // representatives; sequences carry the real identity
		LoopCount: loopCount,
		Frequency: frequency,
		Program:   prog.Instructions,
		PhaseAt:   phaseAt,
		ArrayBytes: [2]int{
			seqArrayBytes(a, mc), seqArrayBytes(b, mc),
		},
		sum: sumKernel(prog.Instructions, phaseAt),
	}, nil
}

// SequenceMeasurement is the result of one A/B sequence measurement.
type SequenceMeasurement struct {
	A, B Sequence
	// SAVAT is the per-pair signal energy in joules, as for single
	// instructions.
	SAVAT float64
	// Measurement carries the underlying pipeline outputs.
	Measurement Measurement
}

// ZJ returns the sequence SAVAT in zeptojoules.
func (m *SequenceMeasurement) ZJ() float64 { return m.SAVAT * 1e21 }

// MeasureSequence measures the SAVAT between two instruction sequences.
func MeasureSequence(mc machine.Config, a, b Sequence, cfg Config, rng *rand.Rand) (*SequenceMeasurement, error) {
	k, err := BuildSequenceKernel(mc, a, b, cfg.Frequency)
	if err != nil {
		return nil, err
	}
	m, err := NewMeasurer(mc, cfg).MeasureKernel(k, rng)
	if err != nil {
		return nil, err
	}
	return &SequenceMeasurement{A: a, B: b, SAVAT: m.SAVAT, Measurement: m}, nil
}

// SequenceAdditivity compares a measured sequence SAVAT against the
// paper's proposed estimate — the sum of the single-instruction SAVATs of
// the positionwise differences — and returns (measured, estimated,
// measured/estimated). The paper expects the estimate to be imprecise
// "because instructions can be reordered and their execution may overlap";
// a ratio far from 1 quantifies that imprecision for the given pair.
//
// The estimate aligns the two sequences positionally, padding the shorter
// one with NOI, and sums the A_i/B_i single SAVATs for differing
// positions, plus one A/A floor term measured at matching positions.
func SequenceAdditivity(mc machine.Config, a, b Sequence, cfg Config, rng *rand.Rand) (measured, estimated float64, err error) {
	seq, err := MeasureSequence(mc, a, b, cfg, rng)
	if err != nil {
		return 0, 0, err
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	at := func(s Sequence, i int) Event {
		if i < len(s) {
			return s[i]
		}
		return NOI
	}
	meas := NewMeasurer(mc, cfg)
	for i := 0; i < n; i++ {
		ea, eb := at(a, i), at(b, i)
		m, err := meas.Measure(ea, eb, rng)
		if err != nil {
			return 0, 0, err
		}
		if ea == eb {
			continue // matching positions contribute no difference signal
		}
		// Subtract that pair's own measurement floor so the estimate sums
		// difference signal, not repeated noise floors.
		fl, err := meas.Measure(ea, ea, rng)
		if err != nil {
			return 0, 0, err
		}
		d := m.SAVAT - fl.SAVAT*float64(fl.LoopCount)/float64(m.LoopCount)
		if d > 0 {
			estimated += d
		}
	}
	// Add back one floor term, scaled to the sequence kernel's loop count.
	fl, err := MeasureSequence(mc, a, a, cfg, rng)
	if err != nil {
		return 0, 0, err
	}
	estimated += fl.SAVAT * float64(fl.Measurement.LoopCount) / float64(seq.Measurement.LoopCount)
	return seq.SAVAT, estimated, nil
}

// Second-stream pointer registers: a sequence half with two or more
// memory events sweeps two independent arrays so each event generates its
// own miss traffic (two offsets into one swept array would share lines —
// the second access prefetches for the first).
const (
	regPtrA2 isa.Reg = 11
	regPtrB2 isa.Reg = 13
	// stream2Offset places the second array of each half away from the
	// first (and from the other half's arrays).
	stream2Offset uint32 = 0x0800_0000
)

// memStreams counts how many independent sweep streams the sequence needs
// (0, 1, or 2; three or more memory events alternate between two streams).
func (s Sequence) memStreams() int {
	n := 0
	for _, e := range s {
		if e.IsMem() {
			n++
		}
	}
	if n > 2 {
		n = 2
	}
	return n
}

// buildSequenceProgramStride is the sequence analogue of buildProgram.
func buildSequenceProgramStride(a, b Sequence, mc machine.Config, loopCount, stride int) (*asm.Program, error) {
	sizeA := seqArrayBytes(a, mc)
	sizeB := seqArrayBytes(b, mc)
	bld := asm.NewBuilder()

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
	bld.Movi(regStVal, -1)
	bld.Movi(regArith, 173)

	lineBytes := int32(mc.Mem.L1.LineBytes)
	warm := func(label string, e Event, base uint32, size int, tmp isa.Reg) {
		if e == LDM || e == STM {
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
	emitWarm := func(label string, s Sequence, base uint32, size int, tmp isa.Reg) {
		e, ok := s.memEventOf()
		if !ok {
			return
		}
		warm(label, e, base, size, tmp)
		if s.memStreams() > 1 {
			warm(label+"2", e, base+stream2Offset, size, tmp)
		}
	}
	emitWarm("warmA", a, arrayABase, sizeA, regTmpA)
	emitWarm("warmB", b, arrayBBase, sizeB, regTmpB)

	emitHalf := func(label string, s Sequence, ptr, ptr2, mask, nmask, tmp isa.Reg) {
		bld.Mov32(regCount, uint32(loopCount))
		bld.Label(label)
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
			emitEventOffset(bld, e, p, 0, fmt.Sprintf("%s_%d", label, i))
		}
		bld.Op3i(isa.SUBI, regCount, regCount, 1)
		bld.Bne(regCount, regZero, label)
	}

	bld.Label("outer")
	emitHalf("loopA", a, regPtrA, regPtrA2, regMaskA, regNMaskA, regTmpA)
	bld.Label("phaseB")
	emitHalf("loopB", b, regPtrB, regPtrB2, regMaskB, regNMaskB, regTmpB)
	bld.Jmp("outer")

	return bld.Program()
}
