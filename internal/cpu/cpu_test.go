package cpu

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/activity"
	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/memhier"
)

func testHier() *memhier.Hierarchy {
	return memhier.MustNew(memhier.Config{
		L1:          cache.Config{Name: "L1D", SizeBytes: 4 << 10, Assoc: 2, LineBytes: 64},
		L2:          cache.Config{Name: "L2", SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64},
		L1HitCycles: 3,
		L2HitCycles: 14,
		BusCycles:   40,
		DRAM: dram.Config{
			Banks: 4, RowBytes: 4096,
			CASCycles: 30, ActivateCycles: 40, PrechargeCycles: 30, BurstCycles: 8,
		},
	})
}

func mustAsm(t *testing.T, src string) []isa.Instruction {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p.Instructions
}

func run(t *testing.T, src string) *CPU {
	t.Helper()
	c, err := New(DefaultConfig(), mustAsm(t, src), testHier())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("program did not halt")
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.DivCycles = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero DivCycles should fail")
	}
	bad = DefaultConfig()
	bad.MispredictCycles = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative mispredict should fail")
	}
	bad = DefaultConfig()
	bad.FetchEventsPerInst = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero fetch events should fail")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}, []isa.Instruction{{Op: isa.HALT}}, testHier()); err == nil {
		t.Error("invalid config should fail")
	}
	if _, err := New(DefaultConfig(), nil, testHier()); err == nil {
		t.Error("empty program should fail")
	}
	if _, err := New(DefaultConfig(), []isa.Instruction{{Op: isa.HALT}}, nil); err == nil {
		t.Error("nil hierarchy should fail")
	}
}

func TestArithmetic(t *testing.T) {
	c := run(t, `
		movi r1, 100
		addi r2, r1, 73    ; 173
		subi r3, r2, 200   ; -27
		muli r4, r2, 3     ; 519
		divi r5, r4, 173   ; 3
		andi r6, r2, 0xF0  ; 0xA0
		ori  r7, r6, 0x0F  ; 0xAF
		xori r8, r7, 0xFF  ; 0x50
		shli r9, r1, 4     ; 1600
		shri r10, r9, 2    ; 400
		halt
	`)
	want := map[isa.Reg]uint32{
		1: 100, 2: 173, 3: ^uint32(26), 4: 519, 5: 3,
		6: 0xA0, 7: 0xAF, 8: 0x50, 9: 1600, 10: 400,
	}
	for r, v := range want {
		if got := c.Reg(r); got != v {
			t.Errorf("r%d = %d (%#x), want %d", r, got, got, v)
		}
	}
}

func TestRegisterForms(t *testing.T) {
	c := run(t, `
		movi r1, 21
		movi r2, 2
		add r3, r1, r2   ; 23
		sub r4, r1, r2   ; 19
		mul r5, r1, r2   ; 42
		div r6, r5, r2   ; 21
		and r7, r1, r2   ; 0
		or  r8, r1, r2   ; 23
		xor r9, r1, r1   ; 0
		halt
	`)
	want := map[isa.Reg]uint32{3: 23, 4: 19, 5: 42, 6: 21, 7: 0, 8: 23, 9: 0}
	for r, v := range want {
		if got := c.Reg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestLui(t *testing.T) {
	c := run(t, `
		movi r1, 0x1234
		lui  r1, 0xDEAD
		halt
	`)
	if got := c.Reg(1); got != 0xDEAD1234 {
		t.Errorf("r1 = %#x, want 0xDEAD1234", got)
	}
}

func TestDivideSemantics(t *testing.T) {
	cases := []struct{ a, b, want int32 }{
		{10, 3, 3},
		{-10, 3, -3},
		{10, -3, -3},
		{7, 0, -1},
		{-1 << 31, -1, -1 << 31},
	}
	for _, cse := range cases {
		if got := divide(cse.a, cse.b); got != cse.want {
			t.Errorf("divide(%d,%d) = %d, want %d", cse.a, cse.b, got, cse.want)
		}
	}
}

// Property: for non-degenerate operands, divide matches Go division.
func TestDivideQuick(t *testing.T) {
	f := func(a, b int32) bool {
		if b == 0 || (a == -1<<31 && b == -1) {
			return true
		}
		return divide(a, b) == a/b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoadStore(t *testing.T) {
	c := run(t, `
		movi r1, 0x1000
		movi r2, 12345
		st   [r1+0], r2
		st   [r1+4], r2
		ld   r3, [r1+0]
		ld   r4, [r1+4]
		ld   r5, [r1+8]   ; never written: 0
		halt
	`)
	if c.Reg(3) != 12345 || c.Reg(4) != 12345 {
		t.Errorf("loads: r3=%d r4=%d", c.Reg(3), c.Reg(4))
	}
	if c.Reg(5) != 0 {
		t.Errorf("unwritten load = %d, want 0", c.Reg(5))
	}
}

func TestCountingLoop(t *testing.T) {
	c := run(t, `
		movi r1, 1000
		movi r2, 0
	loop:
		addi r2, r2, 2
		subi r1, r1, 1
		bne  r1, r0, loop
		halt
	`)
	if got := c.Reg(2); got != 2000 {
		t.Errorf("loop sum = %d, want 2000", got)
	}
	// 2 setup + 1000*3 loop + 1 halt
	if got := c.Retired(); got != 3003 {
		t.Errorf("retired = %d, want 3003", got)
	}
	// Exactly one mispredict: the final not-taken backward branch.
	if got := c.Mispredicts(); got != 1 {
		t.Errorf("mispredicts = %d, want 1", got)
	}
}

func TestForwardBranchNotTakenIsPredicted(t *testing.T) {
	c := run(t, `
		movi r1, 1
		beq  r1, r0, skip  ; not taken, forward => predicted correctly
		movi r2, 7
	skip:
		halt
	`)
	if c.Reg(2) != 7 {
		t.Error("fallthrough path not executed")
	}
	if c.Mispredicts() != 0 {
		t.Errorf("mispredicts = %d, want 0", c.Mispredicts())
	}
}

func TestForwardBranchTakenMispredicts(t *testing.T) {
	c := run(t, `
		movi r1, 0
		beq  r1, r0, skip  ; taken, forward => mispredict
		movi r2, 7
	skip:
		halt
	`)
	if c.Reg(2) != 0 {
		t.Error("taken branch executed skipped instruction")
	}
	if c.Mispredicts() != 1 {
		t.Errorf("mispredicts = %d, want 1", c.Mispredicts())
	}
}

func TestJmp(t *testing.T) {
	c := run(t, `
		jmp over
		movi r1, 1
	over:
		movi r2, 2
		halt
	`)
	if c.Reg(1) != 0 || c.Reg(2) != 2 {
		t.Errorf("jmp: r1=%d r2=%d", c.Reg(1), c.Reg(2))
	}
	if c.Mispredicts() != 0 {
		t.Error("JMP must never mispredict")
	}
}

func TestTiming(t *testing.T) {
	cfg := DefaultConfig()
	// One ALU op then halt: 1 + 1 cycles.
	c, err := New(cfg, mustAsm(t, "movi r1, 1\nhalt"), testHier())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Cycle() != 2 {
		t.Errorf("cycles = %d, want 2", c.Cycle())
	}

	// DIV costs DivCycles.
	c, err = New(cfg, mustAsm(t, "movi r1, 10\ndivi r2, r1, 3\nhalt"), testHier())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if want := uint64(1 + cfg.DivCycles + 1); c.Cycle() != uint64(want) {
		t.Errorf("div cycles = %d, want %d", c.Cycle(), want)
	}
}

func TestMemoryTiming(t *testing.T) {
	c, err := New(DefaultConfig(), mustAsm(t, `
		movi r1, 0x4000
		ld   r2, [r1+0]   ; cold: memory access
		ld   r3, [r1+0]   ; L1 hit
		halt
	`), testHier())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	// movi 1 + cold (14+40+78=132) + L1 hit 3 + halt 1
	if want := uint64(1 + 132 + 3 + 1); c.Cycle() != want {
		t.Errorf("cycles = %d, want %d", c.Cycle(), want)
	}
}

func TestActivityAccumulation(t *testing.T) {
	c, err := New(DefaultConfig(), mustAsm(t, `
		movi r1, 9
		divi r2, r1, 3
		halt
	`), testHier())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	v := c.TakeActivity()
	if v[activity.Fetch] != 3 {
		t.Errorf("fetch events = %v, want 3", v[activity.Fetch])
	}
	if v[activity.ALU] != 1 {
		t.Errorf("alu events = %v, want 1", v[activity.ALU])
	}
	if want := float64(DefaultConfig().DivCycles); v[activity.Div] != want {
		t.Errorf("div events = %v, want %v", v[activity.Div], want)
	}
	// TakeActivity resets.
	if c.TakeActivity().Total() != 0 {
		t.Error("TakeActivity should reset the accumulator")
	}
}

func TestAddActivity(t *testing.T) {
	c, err := New(DefaultConfig(), mustAsm(t, "halt"), testHier())
	if err != nil {
		t.Fatal(err)
	}
	c.AddActivity(activity.Fetch, 2.5)
	if v := c.TakeActivity(); v[activity.Fetch] != 2.5 {
		t.Errorf("injected activity = %v", v[activity.Fetch])
	}
}

func TestStepAfterHalt(t *testing.T) {
	c, err := New(DefaultConfig(), mustAsm(t, "halt"), testHier())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err == nil || !strings.Contains(err.Error(), "halt") {
		t.Errorf("step after halt: err = %v", err)
	}
}

func TestPCOverrun(t *testing.T) {
	c, err := New(DefaultConfig(), mustAsm(t, "nop"), testHier())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err == nil {
		t.Error("running off the end should fail")
	}
}

func TestRunMaxSteps(t *testing.T) {
	c, err := New(DefaultConfig(), mustAsm(t, "loop: jmp loop"), testHier())
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 || c.Halted() {
		t.Errorf("Run stopped at %d steps, halted=%v", n, c.Halted())
	}
}

func TestMemorySparse(t *testing.T) {
	m := NewMemory()
	if m.Load32(0x123456) != 0 {
		t.Error("unwritten memory should read 0")
	}
	m.Store32(0x1001, 0xDEADBEEF) // misaligned: aligned down to 0x1000
	if got := m.Load32(0x1000); got != 0xDEADBEEF {
		t.Errorf("Load32 = %#x", got)
	}
	if got := m.Load32(0x1002); got != 0xDEADBEEF {
		t.Error("misaligned load should align down")
	}
	if m.PageCount() != 1 {
		t.Errorf("PageCount = %d, want 1", m.PageCount())
	}
}

// A load from an unwritten page is remembered as a hole; the store that
// creates the page must forget it, even once the page has left the
// two-entry lookup cache.
func TestMemoryLoadMissThenStore(t *testing.T) {
	m := NewMemory()
	const hole = 0x7000
	if m.Load32(hole) != 0 || m.Load32(hole+8) != 0 {
		t.Fatal("unwritten memory should read 0")
	}
	m.Store32(hole+8, 42)
	m.Store32(0x1000, 1) // two other pages evict the hole's page
	m.Store32(0x2000, 2) // from the lookup cache
	if got := m.Load32(hole + 8); got != 42 {
		t.Errorf("Load32 after store = %d, want 42", got)
	}
	if got := m.Load32(hole); got != 0 {
		t.Errorf("Load32 of an unwritten word = %d, want 0", got)
	}
	if m.PageCount() != 3 {
		t.Errorf("PageCount = %d, want 3", m.PageCount())
	}
}

// Property: Store32 then Load32 round-trips for arbitrary address/value.
func TestMemoryRoundTripQuick(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint32) bool {
		addr &= 1<<40 - 1
		m.Store32(addr, v)
		return m.Load32(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
