package cpu

import "repro/internal/isa"

// CountedLoop reports whether New finds a counted loop, which it
// fast-forwards, closing at pc end.
func CountedLoop(prog []isa.Instruction, end int) bool {
	cfg := DefaultConfig()
	return countedLoop(prog, end, &cfg, 3) != nil
}
