package cpu_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/counter"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/savat"
)

// lockstep runs prog on two cores over twin hierarchies — one driven
// through RunToMarker the way machine.RunPhases drives it, the oracle
// one Step at a time — and fails on the first difference. Between the
// fast core's calls the oracle must have retired exactly the same
// instructions with the same effects, and must sit where RunToMarker
// had to stop: on a marker, at a limit, or halted.
func lockstep(t *testing.T, ccfg cpu.Config, mcfg memhier.Config, prog []isa.Instruction, markers []int, maxCycles, maxSteps uint64) *cpu.CPU {
	t.Helper()
	fh, sh := memhier.MustNew(mcfg), memhier.MustNew(mcfg)
	fast, err := cpu.New(ccfg, prog, fh)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := cpu.New(ccfg, prog, sh)
	if err != nil {
		t.Fatal(err)
	}
	lookup := make([]int32, len(prog))
	for i := range lookup {
		lookup[i] = -1
	}
	for _, pc := range markers {
		lookup[pc] = 0
	}
	atMarker := func(pc int) bool { return pc >= 0 && pc < len(lookup) && lookup[pc] >= 0 }
	cycleLimit := maxCycles
	if cycleLimit == 0 {
		cycleLimit = ^uint64(0)
	}

	for total := uint64(0); total < maxSteps && !fast.Halted(); {
		k, ferr := fast.RunToMarker(lookup, maxCycles, maxSteps-total)
		for i := uint64(0); i < k; i++ {
			if i > 0 && (atMarker(slow.PC()) || slow.Cycle() >= cycleLimit) {
				t.Fatalf("RunToMarker ran past pc %d (cycle %d) after %d of %d steps", slow.PC(), slow.Cycle(), i, k)
			}
			if err := slow.Step(); err != nil {
				t.Fatalf("oracle step %d: %v", total+i, err)
			}
		}
		total += k
		if ferr != nil {
			if slow.Step() == nil {
				t.Fatalf("RunToMarker failed (%v) where Step did not", ferr)
			}
			break
		}
		sameState(t, fast, fh, slow, sh)
		stopped := fast.Halted() || total == maxSteps || fast.Cycle() >= cycleLimit || k > 0 && atMarker(fast.PC())
		if !stopped {
			t.Fatalf("RunToMarker stopped early at pc %d after %d steps", fast.PC(), k)
		}
		if k == 0 {
			break
		}
	}
	sameState(t, fast, fh, slow, sh)
	if !cpu.SameMemory(fast.Mem(), slow.Mem()) {
		t.Fatal("data memory differs")
	}
	if slow.Interpreted() != slow.Retired() {
		t.Fatalf("Step fast-forwarded: %d of %d interpreted", slow.Interpreted(), slow.Retired())
	}
	if fast.Interpreted() > fast.Retired() {
		t.Fatalf("interpreted %d > retired %d", fast.Interpreted(), fast.Retired())
	}
	return fast
}

func sameState(t *testing.T, a *cpu.CPU, ah *memhier.Hierarchy, b *cpu.CPU, bh *memhier.Hierarchy) {
	t.Helper()
	type state struct {
		regs                       [isa.NumRegs]uint32
		pc                         int
		cycle, retired, mispredict uint64
		halted                     bool
		l1, l2                     cache.Stats
		svc                        [3]uint64
		wc                         [2]uint64
	}
	get := func(c *cpu.CPU, h *memhier.Hierarchy) state {
		s := state{pc: c.PC(), cycle: c.Cycle(), retired: c.Retired(), mispredict: c.Mispredicts(), halted: c.Halted(),
			l1: h.L1().Stats(), l2: h.L2().Stats()}
		for r := range s.regs {
			s.regs[r] = c.Reg(isa.Reg(r))
		}
		s.svc[0], s.svc[1], s.svc[2] = h.ServiceCounts()
		s.wc[0], s.wc[1] = h.WCStats()
		return s
	}
	sa, sb := get(a, ah), get(b, bh)
	if sa != sb {
		t.Fatalf("state differs:\nRunToMarker %+v\nStep        %+v", sa, sb)
	}
	if va, vb := a.TakeActivity(), b.TakeActivity(); va != vb {
		t.Fatalf("activity differs:\nRunToMarker %v\nStep        %v", va, vb)
	}
}

func smallHier() memhier.Config {
	return memhier.Config{
		L1:          cache.Config{Name: "L1D", SizeBytes: 2 << 10, Assoc: 2, LineBytes: 64},
		L2:          cache.Config{Name: "L2", SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64},
		L1HitCycles: 3,
		L2HitCycles: 14,
		BusCycles:   40,
		DRAM: dram.Config{
			Banks: 4, RowBytes: 4096,
			CASCycles: 30, ActivateCycles: 40, PrechargeCycles: 30, BurstCycles: 8,
		},
	}
}

// loopProgram generates a random program around one loop closed by a
// backward BNE: register setup, a counter reload, a body of register
// ops, Figure 4 pointer updates, loads and stores, NOPs and forward
// branches (static and data-dependent), the decrement, the back edge,
// and then HALT or a jump back to the reload. Most draws are counted
// loops the core fast-forwards; the rest exercise the rejections.
func loopProgram(r *rand.Rand) (prog []isa.Instruction, markers []int) {
	perm := r.Perm(isa.NumRegs)
	reg := func(i int) isa.Reg { return isa.Reg(perm[i]) }
	rc, rz, p, tmp, m, nm, base2 := reg(0), reg(1), reg(2), reg(3), reg(4), reg(5), reg(6)
	anyReg := func() isa.Reg {
		if r.Intn(8) == 0 { // occasionally touch the counter or bound
			return []isa.Reg{rc, rz}[r.Intn(2)]
		}
		return reg(7 + r.Intn(isa.NumRegs-7))
	}
	emit := func(in isa.Instruction) { prog = append(prog, in) }
	set := func(rd isa.Reg, v uint32) {
		emit(isa.Instruction{Op: isa.MOVI, Rd: rd, Imm: int32(int16(v))})
		emit(isa.Instruction{Op: isa.LUI, Rd: rd, Imm: int32(v >> 16)})
	}
	for i := 0; i < isa.NumRegs; i++ {
		set(isa.Reg(i), r.Uint32())
	}
	mask := uint32(1)<<(4+r.Intn(10)) - 1
	switch r.Intn(8) {
	case 0: // whatever the setup left
	case 1, 2: // complementary, but not a low-bit mask
		mask <<= 3 + r.Intn(3)
		fallthrough
	default:
		set(m, mask)
		set(nm, ^mask)
	}
	region := func() uint32 { return uint32(r.Intn(6)) << 14 }
	set(p, region()+uint32(r.Intn(64))*4)
	set(base2, region())
	bound := uint32(0)
	if r.Intn(2) == 0 {
		bound = r.Uint32()
	}
	var count uint32
	switch r.Intn(4) {
	case 0:
		count = 1 + uint32(r.Intn(3))
	case 1:
		count = 1 + uint32(r.Intn(2000))
	case 2: // the counter wraps through zero before meeting the bound
		bound = ^uint32(r.Intn(50))
		count = 1 + uint32(r.Intn(100))
	default:
		count = r.Uint32()
	}
	set(rz, bound)
	outer := len(prog)
	set(rc, bound+count)
	head := len(prog)

	aluOps := []isa.Op{isa.MOVI, isa.LUI, isa.ADDI, isa.ADDR, isa.SUBI, isa.SUBR, isa.ANDI, isa.ANDR,
		isa.ORI, isa.ORR, isa.XORI, isa.XORR, isa.SHLI, isa.SHRI, isa.MULI, isa.MULR, isa.DIVI, isa.DIVR}
	randomOp := func(rd isa.Reg) isa.Instruction {
		in := isa.Instruction{Op: aluOps[r.Intn(len(aluOps))], Rd: rd, Rs1: anyReg(), Rs2: anyReg(), Imm: int32(r.Intn(401) - 200)}
		if in.Op == isa.SHLI || in.Op == isa.SHRI {
			in.Imm = int32(r.Intn(40))
		}
		return in
	}
	strides := []int32{0, 4, 4, 8, 16, 60, 64, 68, 256}
	offsets := []int32{0, 0, 4, 60, 64, -4, 1000}
	self := func() isa.Instruction { // an op on a register of its own
		x := reg(7 + r.Intn(3))
		in := randomOp(x)
		in.Rs1, in.Rs2 = x, x
		return in
	}
	group := func() {
		s := strides[r.Intn(len(strides))]
		andT := isa.Instruction{Op: isa.ANDR, Rd: tmp, Rs1: tmp, Rs2: m}
		andP := isa.Instruction{Op: isa.ANDR, Rd: p, Rs1: p, Rs2: nm}
		if r.Intn(2) == 0 {
			andT.Rs1, andT.Rs2 = m, tmp
		}
		if r.Intn(2) == 0 {
			andT, andP = andP, andT
		}
		emit(isa.Instruction{Op: isa.ADDI, Rd: tmp, Rs1: p, Imm: s})
		emit(andT)
		emit(andP)
		emit(isa.Instruction{Op: isa.ORR, Rd: p, Rs1: p, Rs2: tmp})
	}
	memOp := func(base, rd isa.Reg) {
		op := isa.LD
		if r.Intn(2) == 0 {
			op = isa.ST
		}
		emit(isa.Instruction{Op: op, Rd: rd, Rs1: base, Imm: offsets[r.Intn(len(offsets))]})
	}
	branch := func(x isa.Reg, filler func() isa.Instruction) {
		skip := r.Intn(3)
		br := isa.Instruction{Op: isa.JMP, Imm: int32(skip)}
		switch r.Intn(3) {
		case 1:
			br = isa.Instruction{Op: isa.BEQ, Rd: x, Rs1: x, Imm: int32(skip)}
		case 2:
			br = isa.Instruction{Op: isa.BNE, Rd: x, Rs1: x, Imm: int32(skip)}
		}
		emit(br)
		for j := 0; j < skip; j++ {
			emit(filler())
		}
	}
	// Half the bodies are shaped like the Figure 4 kernel — one pointer
	// update, then at most one access through it or a fixed base, plus
	// self-contained ops, NOPs and static branches — so they take the
	// closed form; the rest mix everything.
	tidy := r.Intn(2) == 0
	items := r.Intn(8)
	if tidy {
		items += 2
	}
	dec := r.Intn(items + 1)
	memOps := 0
	for i := 0; i <= items; i++ {
		if i == dec {
			emit(isa.Instruction{Op: isa.SUBI, Rd: rc, Rs1: rc, Imm: 1})
		}
		if i == items {
			break
		}
		if tidy {
			switch k := r.Intn(6); {
			case i == 0:
				group()
			case i == 1 && k < 3:
				memOps++
				base := p
				if r.Intn(4) == 0 {
					base = base2
				}
				rd := reg(12)
				if r.Intn(4) == 0 { // an access that clobbers or reads back the sweep's registers
					rd = []isa.Reg{m, nm, p, tmp, reg(7)}[r.Intn(5)]
				}
				memOp(base, rd)
			case k == 1:
				branch(reg(10), self)
			case k == 2:
				emit(isa.Instruction{Op: isa.NOP})
			case k == 3 && r.Intn(4) == 0: // reads the counter: not a counted loop
				emit(isa.Instruction{Op: isa.ADDI, Rd: reg(11), Rs1: rc, Imm: 3})
			case k == 4 && r.Intn(4) == 0: // moves the bound: not a counted loop
				emit(isa.Instruction{Op: isa.ADDI, Rd: rz, Rs1: rz, Imm: 1 + int32(r.Intn(3))})
			default:
				emit(self())
			}
			continue
		}
		switch r.Intn(8) {
		case 0: // a register op anywhere
			emit(randomOp(anyReg()))
		case 1:
			emit(self())
		case 2, 3:
			group()
		case 4, 5: // a load or store, at most two per body
			if memOps == 2 {
				emit(isa.Instruction{Op: isa.NOP})
				break
			}
			memOps++
			base := p
			switch r.Intn(4) {
			case 0:
				base = base2
			case 1:
				base = anyReg()
			}
			memOp(base, anyReg())
		case 6: // a forward branch over 0–2 register ops
			if r.Intn(3) == 0 { // data-dependent
				emit(isa.Instruction{Op: []isa.Op{isa.BEQ, isa.BNE}[r.Intn(2)], Rd: anyReg(), Rs1: anyReg(), Imm: 1})
				emit(randomOp(anyReg()))
				break
			}
			branch(anyReg(), func() isa.Instruction { return randomOp(anyReg()) })
		default:
			emit(isa.Instruction{Op: isa.NOP})
		}
	}
	back := isa.Instruction{Op: isa.BNE, Rd: rc, Rs1: rz}
	if r.Intn(2) == 0 {
		back.Rd, back.Rs1 = rz, rc
	}
	back.Imm = int32(head - len(prog) - 1)
	emit(back)
	if r.Intn(2) == 0 {
		emit(isa.Instruction{Op: isa.HALT})
	} else {
		emit(isa.Instruction{Op: isa.JMP, Imm: int32(outer - len(prog) - 1)})
	}
	// Markers where the kernels put them (the counter reload, the
	// instruction after the loop), inside the body, or anywhere.
	end := len(prog) - 2
	for n := r.Intn(3); n > 0; n-- {
		switch r.Intn(6) {
		case 0, 1:
			markers = append(markers, outer)
		case 2, 3:
			markers = append(markers, end+1)
		case 4:
			markers = append(markers, head+r.Intn(end+1-head))
		default:
			markers = append(markers, r.Intn(len(prog)))
		}
	}
	return prog, markers
}

// FuzzRunToMarkerVsStep holds the fast-forwarding interpreter to the
// one-instruction-at-a-time oracle on random counted loops, under step
// and cycle limits that may fall mid-loop.
func FuzzRunToMarkerVsStep(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 128; seed++ {
		f.Add(seed, uint16(r.Intn(1<<16)), r.Uint32())
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint16, cycles uint32) {
		prog, markers := loopProgram(rand.New(rand.NewSource(seed)))
		maxSteps := 1 + uint64(steps)
		var maxCycles uint64
		switch cycles % 3 {
		case 1:
			maxCycles = 1 + uint64(cycles/3)%400_000
		case 2:
			// Exactly at, or one past, the cycle some instruction starts
			// on: the boundaries a cycle limit can get wrong.
			probe, err := cpu.New(cpu.DefaultConfig(), prog, memhier.MustNew(smallHier()))
			if err != nil {
				t.Fatal(err)
			}
			step := func() bool { return !probe.Halted() && probe.Step() == nil }
			for i := uint64(cycles/12) % maxSteps; i > 0 && step(); i-- {
			}
			if cycles/6%2 == 0 { // on to the start of the next back edge
				for i := 0; i < 4*len(prog) && probe.PC() != len(prog)-2 && step(); i++ {
				}
			}
			maxCycles = probe.Cycle() + uint64(cycles/3%2)
			if maxCycles == 0 {
				maxCycles = 1
			}
		}
		lockstep(t, cpu.DefaultConfig(), smallHier(), prog, markers, maxCycles, maxSteps)
	})
}

// TestFastForwardIsExact holds the fast-forwarding interpreter to Step
// on every Core 2 Duo Figure 9 kernel, as built and as rewritten by
// the noop-insert and shuffle countermeasures, through warm-up and the
// first alternation periods, and checks that the fast-forward engages:
// it interprets at most half of what it retires, warm-up sweeps
// included (over whole alternation runs it is about one in sixteen;
// see BenchmarkSimulateFig9Pairs in internal/savat).
func TestFastForwardIsExact(t *testing.T) {
	mc := machine.Core2Duo()
	steps := uint64(100_000)
	if testing.Short() {
		steps = 20_000
	}
	chains := []string{"", "noop-insert:0.2", "shuffle:4"}
	for a := savat.Event(0); a < savat.NumEvents; a++ {
		for b := savat.Event(0); b < savat.NumEvents; b++ {
			k, err := savat.BuildKernel(mc, a, b, 80e3)
			if err != nil {
				t.Fatal(err)
			}
			for ci, chain := range chains {
				prog, phaseAt := k.Program, k.PhaseAt
				if chain != "" {
					c, err := counter.ParseChain([]string{chain})
					if err != nil {
						t.Fatal(err)
					}
					if prog, phaseAt, err = counter.TransformProgram(prog, phaseAt, c, uint64(int(a)*97+int(b)*13+ci)); err != nil {
						t.Fatal(err)
					}
				}
				var markers []int
				for pc := range phaseAt {
					markers = append(markers, pc)
				}
				t.Run(fmt.Sprintf("%v-%v%s", a, b, chain), func(t *testing.T) {
					fast := lockstep(t, mc.CPU, mc.Mem, prog, markers, 0, steps)
					if chain == "" && fast.Interpreted()*2 > fast.Retired() {
						t.Errorf("interpreted %d of %d retired", fast.Interpreted(), fast.Retired())
					}
				})
			}
		}
	}
}

// TestLoopShapes pins which loops are counted, one condition at a
// time, and holds each to Step.
func TestLoopShapes(t *testing.T) {
	cases := []struct {
		body    string
		counted bool
	}{
		{"", true},
		{"ld r1, [r2]", true},
		{"st [r2+4], r12", true},
		{"ld r1, [r9+8]", true}, // a base the body never writes
		{"addi r14, r14, 173", true},
		{"mul r14, r14, r14\ndivi r13, r13, 7\nxori r11, r11, 5", true},
		{"jmp over\nhalt\nover:", true},
		{"beq r7, r7, over\nnop\nover:", true},
		{"bne r7, r7, over\nnop\nover:", true},
		{"ld r3, [r2]", false},                 // clobbers the mask
		{"ld r1, [r2]\naddi r1, r1, 1", false}, // reads the loaded value back
		{"st [r2], r2", false},                 // stores the pointer itself
		{"st [r5], r12", false},                // addresses through the temporary
		{"addi r11, r14, 1", false},            // not self-contained
		{"ld r1, [r2]\nld r1, [r2+64]", false},
		{"addi r0, r0, 1", false},   // moves the bound
		{"addi r11, r10, 1", false}, // reads the counter
		{"subi r10, r10, 1", false}, // a second decrement
		{"beq r1, r12, over\nnop\nover:", false},
		{"halt", false},
		{"back:\nbne r7, r7, back", false},
	}
	for _, tc := range cases {
		src := `
			movi r2, 0x1000
			movi r3, 4095
			movi r4, -4096
			movi r9, 0x3000
			movi r12, -1
			movi r14, 173
			movi r13, 30000
			movi r10, 400
		loop:
			addi r5, r2, 4
			and r5, r5, r3
			and r2, r2, r4
			or r2, r2, r5
			` + tc.body + `
			subi r10, r10, 1
			bne r10, r0, loop
			halt`
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("%q: %v", tc.body, err)
		}
		prog := p.Instructions
		if got := cpu.CountedLoop(prog, len(prog)-2); got != tc.counted {
			t.Errorf("%q: counted %v, want %v", tc.body, got, tc.counted)
		}
		lockstep(t, cpu.DefaultConfig(), smallHier(), prog, nil, 0, 20_000)
	}
}
