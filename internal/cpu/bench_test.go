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

// BenchmarkSweep runs the Figure 4 STL1 loop — a store sweep through a
// 2 KiB buffer that stays in L1, four bytes per iteration — which the
// core fast-forwards a cache line at a time, the first access to each
// line included, interpreting only the code around the loop and its
// entry and exit iterations. It reports the time per retired
// instruction and the instructions interpreted per run.
func BenchmarkSweep(b *testing.B) {
	p, err := asm.Assemble(`
		movi r2, 0x1000
		movi r3, 2047
		movi r4, -2048
		movi r12, 7
		movi r10, 0x4240
		lui  r10, 0xf
	loop:
		addi r5, r2, 4
		and  r5, r5, r3
		and  r2, r2, r4
		or   r2, r2, r5
		st   [r2], r12
		subi r10, r10, 1
		bne  r10, r0, loop
		halt`)
	if err != nil {
		b.Fatal(err)
	}
	hier := testHier()
	var retired, interpreted uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hier.Reset()
		c, err := New(DefaultConfig(), p.Instructions, hier)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		if !c.Halted() {
			b.Fatal("sweep did not finish")
		}
		retired += c.Retired()
		interpreted += c.Interpreted()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(retired), "ns/inst")
	b.ReportMetric(float64(interpreted)/float64(b.N), "interpreted/op")
}
