package savat

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/machine"
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
			return fmt.Errorf("savat: invalid event %v", e)
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

// memEvent returns the sequence's memory event, which stands for the
// cache level all of its memory events share, or NOI if it has none.
func (s Sequence) memEvent() Event {
	for _, e := range s {
		if e.IsMem() {
			return e
		}
	}
	return NOI
}

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

// half is one side of a kernel's alternation — a valid sequence — held
// as a comparable value, so the simulation cache can key on it (see
// kernelRecipe). A pair's event is its one-event half.
type half struct {
	ev [MaxSequenceLen]Event
	n  uint8
}

// one returns the half of the one-event sequence {e}.
func one(e Event) half { return half{ev: [MaxSequenceLen]Event{e}, n: 1} }

// halfOf returns s as a half, and the reason s is not a valid sequence,
// if it is not.
func halfOf(s Sequence) (h half, err error) {
	h.n = uint8(copy(h.ev[:], s))
	return h, s.Validate()
}

// seq returns the half's events as a new sequence.
func (h half) seq() Sequence { return append(Sequence(nil), h.ev[:h.n]...) }

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
	meas := NewMeasurer(mc, cfg)
	seq, err := meas.MeasureSequence(a, b, rng)
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
	fl, err := meas.MeasureSequence(a, a, rng)
	if err != nil {
		return 0, 0, err
	}
	estimated += fl.SAVAT * float64(fl.LoopCount) / float64(seq.LoopCount)
	return seq.SAVAT, estimated, nil
}
