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
// had to stop: on a marker, at the step limit, or halted.
func lockstep(t *testing.T, ccfg cpu.Config, mcfg memhier.Config, prog []isa.Instruction, markers []int, maxSteps uint64) *cpu.CPU {
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

	for total := uint64(0); total < maxSteps && !fast.Halted(); {
		k, ferr := fast.RunToMarker(lookup, maxSteps-total)
		for i := uint64(0); i < k; i++ {
			if i > 0 && atMarker(slow.PC()) {
				t.Fatalf("RunToMarker ran past marker pc %d after %d of %d steps", slow.PC(), i, k)
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
		stopped := fast.Halted() || total == maxSteps || k > 0 && atMarker(fast.PC())
		if !stopped {
			t.Fatalf("RunToMarker stopped early at pc %d after %d steps", fast.PC(), k)
		}
		if k == 0 {
			break
		}
	}
	sameState(t, fast, fh, slow, sh)
	if !fast.Mem().Equal(slow.Mem()) {
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
// ops, pointer updates (Figure 4's or linear ones, as the pre-touch
// loops step), loads and stores (alone or an LD+ST pair at one
// address), NOPs and forward branches (static and data-dependent), the
// decrement, the back edge, and then HALT or a jump back to the reload.
// Most draws are counted loops the core fast-forwards; the rest
// exercise the rejections.
func loopProgram(seed int64) (prog []isa.Instruction, markers []int) {
	r := rand.New(rand.NewSource(seed))
	// The linear updates, the pairs and the accesses before an update
	// draw from x, so the committed seeds that take none of them keep
	// generating the programs they were committed for.
	x := rand.New(rand.NewSource(^seed))
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
	strides := []int32{0, 4, 4, 8, 12, 16, 24, 60, 64, 68, 256, -4, -24}
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
		if x.Intn(3) == 0 {
			emit(isa.Instruction{Op: isa.ADDI, Rd: p, Rs1: p, Imm: s})
			return
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
		in := isa.Instruction{Op: op, Rd: rd, Rs1: base, Imm: offsets[r.Intn(len(offsets))]}
		if x.Intn(4) == 0 {
			in.Op = isa.LD
			emit(in)
			in.Op, in.Rd = isa.ST, reg(13)
			if x.Intn(4) == 0 { // stores the loaded value
				in.Rd = rd
			}
		}
		emit(in)
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
	// Half the bodies are shaped like the kernel's loops — one pointer
	// update, and at most one access (or pair) through it or a fixed
	// base, usually after it, plus self-contained ops, NOPs and static
	// branches — so they take the closed form; the rest mix everything.
	tidy := r.Intn(2) == 0
	items := r.Intn(8)
	if tidy {
		items += 2
	}
	dec := r.Intn(items + 1)
	memOps := 0
	late := false // the tidy update follows the access
	for i := 0; i <= items; i++ {
		if late && i == 2 {
			group()
		}
		if i == dec {
			emit(isa.Instruction{Op: isa.SUBI, Rd: rc, Rs1: rc, Imm: 1})
		}
		if i == items {
			break
		}
		if tidy {
			switch k := r.Intn(6); {
			case i == 0:
				if late = x.Intn(4) == 0; !late {
					group()
				}
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
// one-instruction-at-a-time oracle on random counted loops, under a
// step limit that may fall mid-loop.
func FuzzRunToMarkerVsStep(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 128; seed++ {
		f.Add(seed, uint16(r.Intn(1<<16)))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		prog, markers := loopProgram(seed)
		lockstep(t, cpu.DefaultConfig(), smallHier(), prog, markers, 1+uint64(steps))
	})
}

// TestFastForwardIsExact holds the fast-forwarding interpreter to Step
// on every Figure 9 kernel of the three case-study machines, as built
// and as rewritten by the noop-insert and shuffle countermeasures,
// through warm-up and the first alternation periods. It checks that the
// fast-forward covers every loop of an unrewritten kernel: it interprets at most 2% of what it retires, pre-touch loops
// included (only straight-line code and each loop's entry and exit
// iterations are left; see BenchmarkSimulateFig9Pairs in internal/savat).
func TestFastForwardIsExact(t *testing.T) {
	steps := uint64(100_000)
	if testing.Short() {
		steps = 20_000
	}
	chains := []string{"", "noop-insert:0.2", "shuffle:4"}
	for _, mc := range machine.CaseStudyMachines() {
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
					// The Core 2 Duo, Figure 9's machine, names its
					// subtests without a machine prefix.
					name := fmt.Sprintf("%v-%v%s", a, b, chain)
					if mc.Name != "Core2Duo" {
						name = mc.Name + "/" + name
					}
					t.Run(name, func(t *testing.T) {
						fast := lockstep(t, mc.CPU, mc.Mem, prog, markers, steps)
						if chain == "" && fast.Interpreted()*50 > fast.Retired() {
							t.Errorf("interpreted %d of %d retired", fast.Interpreted(), fast.Retired())
						}
					})
				}
			}
		}
	}
}

// TestLoopShapes pins which loops are counted, one condition at a
// time, and holds each to Step: bodies around the Figure 4 pointer
// update, and bodies around a linear one, as the pre-touch loops step a
// line at a time, or none. A counted loop of the second kind must be
// fast-forwarded through its L1 misses.
func TestLoopShapes(t *testing.T) {
	type shape struct {
		body    string
		counted bool
	}
	check := func(t *testing.T, src string, tc shape) *cpu.CPU {
		t.Helper()
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("%q: %v", tc.body, err)
		}
		prog := p.Instructions
		if got := cpu.CountedLoop(prog, len(prog)-2); got != tc.counted {
			t.Errorf("%q: counted %v, want %v", tc.body, got, tc.counted)
		}
		return lockstep(t, cpu.DefaultConfig(), smallHier(), prog, nil, 20_000)
	}
	for _, tc := range []shape{
		{"", true},
		{"ld r1, [r2]", true},
		{"st [r2+4], r12", true},
		{"ld r1, [r9+8]", true}, // a base the body never writes
		{"ld r1, [r2]\nst [r2], r12", true},
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
		{"addi r6, r6, 64\nld r1, [r6]", false}, // a second pointer update
	} {
		check(t, `
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
			`+tc.body+`
			subi r10, r10, 1
			bne r10, r0, loop
			halt`, tc)
	}
	for _, tc := range []shape{
		{"ld r1, [r6]\naddi r6, r6, 64", true},               // the LDL2 pre-touch loop
		{"ld r1, [r6]\nst [r6], r12\naddi r6, r6, 64", true}, // the STL2 one
		{"addi r6, r6, 64\nld r1, [r6+8]\nst [r6+8], r12", true},
		{"st [r6+4], r12\naddi r6, r6, -60", true},
		{"ld r1, [r6]\nbeq r7, r7, over\nnop\nover:\nst [r6], r12\naddi r6, r6, 4", true},
		{"ld r1, [r9]\nst [r9], r12", true}, // no pointer, one address
		{"addi r14, r14, 173", true},
		// An 8 KiB masked sweep: four times the L1, so it misses there.
		{"addi r5, r2, 4\nand r5, r5, r3\nand r2, r2, r4\nor r2, r2, r5\nld r1, [r2]\nst [r2], r12", true},
		{"st [r6], r12\nld r1, [r6]\naddi r6, r6, 64", false},               // a store, then a load
		{"ld r1, [r6]\naddi r6, r6, 64\nst [r6], r12", false},               // the pointer moves between them
		{"ld r1, [r6]\naddi r14, r14, 1\nst [r6], r12", false},              // a register op between them
		{"ld r1, [r6]\nst [r6+4], r12\naddi r6, r6, 64", false},             // two addresses
		{"ld r1, [r6]\nst [r6], r1\naddi r6, r6, 64", false},                // stores the loaded value
		{"ld r1, [r6]\nst [r6], r6\naddi r6, r6, 64", false},                // stores the pointer
		{"ld r6, [r6]\naddi r6, r6, 64", false},                             // loads the pointer
		{"ld r1, [r6]\naddi r6, r6, 64\naddi r6, r6, 4", false},             // two updates
		{"ld r1, [r6]\naddi r6, r7, 64", false},                             // not linear
		{"ld r1, [r6]\nst [r6], r12\nst [r6], r12\naddi r6, r6, 64", false}, // three accesses
	} {
		fast := check(t, `
			movi r2, 0x1000
			movi r3, 8191
			movi r4, -8192
			movi r6, 0x4000
			movi r9, 0x3000
			movi r12, -1
			movi r14, 173
			movi r10, 3000
		loop:
			`+tc.body+`
			subi r10, r10, 1
			bne r10, r0, loop
			halt`, tc)
		if tc.counted && fast.Interpreted()*10 > fast.Retired() {
			t.Errorf("%q: interpreted %d of %d retired", tc.body, fast.Interpreted(), fast.Retired())
		}
	}
}

// TestSweepRuns holds the line-at-a-time memory fast-forward to Step on
// Figure 4 sweeps whose runs do not align to lines: odd addresses,
// strides that do not divide the line or step backwards, masks smaller
// than a line, and offsets that put the mask's wrap in the middle of a
// line, over L1 lines shorter than, equal to, and longer than a
// data-memory page (the sweep's page boundary falls inside the long
// line).
func TestSweepRuns(t *testing.T) {
	hier := func(line int) memhier.Config {
		c := smallHier()
		c.L1.LineBytes, c.L2.LineBytes = line, line
		if line > 64 {
			c.L1.SizeBytes, c.L2.SizeBytes = 4*line, 16*line
		}
		return c
	}
	engaged := 0
	for _, line := range []int{16, 64, 8192} {
		for _, op := range []string{"ld r1, [r2+%d]", "st [r2+%d], r12"} {
			for _, stride := range []int{8, 12, 13, 24, 60, -4, -12, 0} {
				for _, mask := range []int{15, 63, 127, 4095} {
					for _, off := range []int{0, 4, 36, 60} {
						// The fill loop, interpreted, gives every word a
						// load may read a value of its own.
						src := fmt.Sprintf(`
							movi r6, 1
							movi r7, 0x1f00
							movi r8, 0x4100
						fill:
							st [r7], r6
							addi r6, r6, 7
							addi r7, r7, 4
							bne r7, r8, fill
							movi r2, 0x2235
							movi r3, %d
							movi r4, %d
							movi r12, 0x5a5a
							movi r10, 3000
						loop:
							addi r5, r2, %d
							and r5, r5, r3
							and r2, r2, r4
							or r2, r2, r5
							`+op+`
							subi r10, r10, 1
							bne r10, r0, loop
							halt`, mask, ^mask, stride, off)
						p, err := asm.Assemble(src)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("line%d/%s/stride%d/mask%d", line, fmt.Sprintf(op, off), stride, mask)
						t.Run(name, func(t *testing.T) {
							// Stopping mid-sweep exposes the registers and
							// memory of a partly fast-forwarded loop.
							lockstep(t, cpu.DefaultConfig(), hier(line), p.Instructions, nil, 15_001)
							fast := lockstep(t, cpu.DefaultConfig(), hier(line), p.Instructions, nil, 50_000)
							if fast.Interpreted()*2 < fast.Retired() {
								engaged++
							}
						})
					}
				}
			}
		}
	}
	if engaged < 300 {
		t.Fatalf("the fast-forward engaged on only %d sweeps", engaged)
	}
}
