package cpu

import "repro/internal/isa"

// SameMemory reports whether two memories hold the same pages with the
// same contents.
func SameMemory(a, b *Memory) bool {
	if len(a.pages) != len(b.pages) {
		return false
	}
	for pn, p := range a.pages {
		if q, ok := b.pages[pn]; !ok || *p != *q {
			return false
		}
	}
	return true
}

// CountedLoop reports whether New finds a counted loop, which it
// fast-forwards, closing at pc end.
func CountedLoop(prog []isa.Instruction, end int) bool {
	cfg := DefaultConfig()
	return countedLoop(prog, end, &cfg, 3) != nil
}
