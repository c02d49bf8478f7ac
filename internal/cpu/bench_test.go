package cpu

import (
	"testing"

	"repro/internal/asm"
)

// BenchmarkInterpreter runs a loop the fast-forward does not cover — a
// data-dependent chain of ALU, multiply and divide ops around a load
// that moves to a new line every iteration — so every instruction goes
// through the dispatch loop. It reports the time per retired
// instruction.
func BenchmarkInterpreter(b *testing.B) {
	p, err := asm.Assemble(`
		movi r1, 0x1000
		movi r2, 3
		movi r10, 4000
	loop:
		ld   r3, [r1]
		addi r1, r1, 64
		add  r2, r2, r3
		xori r2, r2, 0x55
		shli r4, r2, 3
		mul  r5, r4, r2
		divi r6, r5, 7
		or   r2, r2, r6
		subi r10, r10, 1
		bne  r10, r0, loop
		halt`)
	if err != nil {
		b.Fatal(err)
	}
	hier := testHier()
	var retired uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hier.Reset()
		c, err := New(DefaultConfig(), p.Instructions, hier)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(1_000_000); err != nil {
			b.Fatal(err)
		}
		if c.Interpreted() != c.Retired() {
			b.Fatalf("fast-forwarded %d of %d", c.Retired()-c.Interpreted(), c.Retired())
		}
		retired += c.Retired()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(retired), "ns/inst")
}
