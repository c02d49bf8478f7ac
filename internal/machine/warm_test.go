package machine

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/memhier"
)

// smallMachine is the Core 2 Duo with small caches, so short prologues
// fill, evict and write back.
func smallMachine() Config {
	c := Core2Duo()
	c.Mem.L1 = cache.Config{Name: "L1D", SizeBytes: 2 << 10, Assoc: 2, LineBytes: 64}
	c.Mem.L2 = cache.Config{Name: "L2", SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64}
	c.Mem.DRAM = dram.Config{Banks: 4, RowBytes: 4096, CASCycles: 30, ActivateCycles: 40, PrechargeCycles: 30, BurstCycles: 8}
	return c
}

// runState is everything a run leaves that a warm start must
// reproduce, but the phase samples and the data memory.
type runState struct {
	cycles, retired, interpreted, mispredicts uint64
	halted                                    bool
	pc                                        int
	regs                                      [isa.NumRegs]uint32
	l1, l2                                    cache.Stats
	l1Lines, l2Lines                          int
	svc, wc                                   [3]uint64
	dram                                      dram.Stats
}

func stateOf(r *RunResult, h *memhier.Hierarchy) runState {
	s := runState{cycles: r.Cycles, retired: r.Retired, interpreted: r.CPU.Interpreted(), mispredicts: r.CPU.Mispredicts(),
		halted: r.Halted, pc: r.CPU.PC(), l1: h.L1().Stats(), l2: h.L2().Stats(),
		l1Lines: h.L1().ResidentLines(), l2Lines: h.L2().ResidentLines(), dram: h.DRAM().Stats()}
	for i := range s.regs {
		s.regs[i] = r.CPU.Reg(isa.Reg(i))
	}
	s.svc[0], s.svc[1], s.svc[2] = h.ServiceCounts()
	s.wc[0], s.wc[1] = h.WCStats()
	return s
}

// coldAndWarm runs prog once from reset and once from its saved
// prologue under opts, each on a hierarchy of its own, fails unless
// the two agree bit for bit, and reports whether the second started
// warm.
func coldAndWarm(t *testing.T, m *Machine, prog []isa.Instruction, phaseAt map[int]int, opts RunOptions) bool {
	t.Helper()
	hc, hw := memhier.MustNew(m.cfg.Mem), memhier.MustNew(m.cfg.Mem)
	opts.Hier = hc
	cold, cerr := m.RunPhases(prog, phaseAt, opts)
	w, err := m.Prologue(prog, phaseAt, hw)
	if err != nil {
		t.Fatal(err)
	}
	opts.Hier, opts.Warm = hw, w
	warm, werr := m.RunPhases(prog, phaseAt, opts)
	if (cerr == nil) != (werr == nil) || cerr != nil && cerr.Error() != werr.Error() {
		t.Fatalf("error %v warm, %v cold", werr, cerr)
	}
	if cerr != nil {
		return false
	}
	if cold.Warmed {
		t.Fatal("a run without Warm started warm")
	}
	if len(cold.Samples) != len(warm.Samples) {
		t.Fatalf("%d samples warm, %d cold", len(warm.Samples), len(cold.Samples))
	}
	for i, c := range cold.Samples {
		s := warm.Samples[i]
		if c.ID != s.ID || c.StartCycle != s.StartCycle || c.EndCycle != s.EndCycle {
			t.Fatalf("sample %d: warm %+v, cold %+v", i, s, c)
		}
		for comp := range c.Activity {
			if math.Float64bits(c.Activity[comp]) != math.Float64bits(s.Activity[comp]) {
				t.Fatalf("sample %d: component %d activity %v warm, %v cold", i, comp, s.Activity[comp], c.Activity[comp])
			}
		}
	}
	if c, s := stateOf(cold, hc), stateOf(warm, hw); c != s {
		t.Fatalf("state differs:\nwarm %+v\ncold %+v", s, c)
	}
	if !cold.CPU.Mem().Equal(warm.CPU.Mem()) {
		t.Fatal("data memory differs")
	}
	return warm.Warmed
}

// warmProgram draws a program with a prologue worth saving: register
// setup, counted loops that sweep arrays a word or a line at a time
// with loads, load-store pairs or stores, a loop that is not counted,
// and forward branches — one of which may jump past the first marker,
// as may a rare halt end the prologue — followed by a two-phase loop
// over the same arrays that jumps back to its first marker or halts.
// Markers sit at each phase's head, and sometimes a third inside
// phase B.
func warmProgram(seed int64) ([]isa.Instruction, map[int]int) {
	r := rand.New(rand.NewSource(seed))
	var prog []isa.Instruction
	emit := func(in isa.Instruction) { prog = append(prog, in) }
	// Forward branches whose targets are only known once the prologue
	// ends: their index, and how far past its end they land (−1: at
	// the end, that is on the marker).
	type fwd struct{ at, past int }
	var pending []fwd
	base := func() int32 { return int32(0x40 * r.Intn(0x200)) }
	ptr := func() isa.Reg { return isa.Reg(2 + r.Intn(4)) }
	memOp := func(p isa.Reg) {
		off := int32(4 * r.Intn(4))
		switch r.Intn(3) {
		case 0:
			emit(isa.Instruction{Op: isa.LD, Rd: 1, Rs1: p, Imm: off})
		case 1:
			emit(isa.Instruction{Op: isa.LD, Rd: 1, Rs1: p, Imm: off})
			emit(isa.Instruction{Op: isa.ST, Rd: 12, Rs1: p, Imm: off})
		default:
			emit(isa.Instruction{Op: isa.ST, Rd: 12, Rs1: p, Imm: off})
		}
	}
	emit(isa.Instruction{Op: isa.MOVI, Rd: 12, Imm: int32(r.Intn(1 << 15))})
	for n := 1 + r.Intn(5); n > 0; n-- {
		switch r.Intn(6) {
		case 0:
			emit(isa.Instruction{Op: isa.MOVI, Rd: isa.Reg(2 + r.Intn(13)), Imm: base()})
		case 1, 2: // a counted sweep: a word or a line per iteration
			p := ptr()
			emit(isa.Instruction{Op: isa.MOVI, Rd: p, Imm: base()})
			emit(isa.Instruction{Op: isa.MOVI, Rd: 10, Imm: int32(1 + r.Intn(300))})
			head := len(prog)
			memOp(p)
			emit(isa.Instruction{Op: isa.ADDI, Rd: p, Rs1: p, Imm: []int32{4, 64, 128}[r.Intn(3)]})
			emit(isa.Instruction{Op: isa.SUBI, Rd: 10, Rs1: 10, Imm: 1})
			emit(isa.Instruction{Op: isa.BNE, Rd: 10, Rs1: 0, Imm: int32(head - len(prog) - 1)})
		case 3: // not counted: the body reads the counter
			p := ptr()
			emit(isa.Instruction{Op: isa.MOVI, Rd: 10, Imm: int32(1 + r.Intn(40))})
			head := len(prog)
			emit(isa.Instruction{Op: isa.SHLI, Rd: p, Rs1: 10, Imm: 6})
			memOp(p)
			emit(isa.Instruction{Op: isa.SUBI, Rd: 10, Rs1: 10, Imm: 1})
			emit(isa.Instruction{Op: isa.BNE, Rd: 10, Rs1: 0, Imm: int32(head - len(prog) - 1)})
		case 4: // a forward branch over a few instructions, or past the marker
			br := isa.Instruction{Op: []isa.Op{isa.JMP, isa.BEQ, isa.BNE}[r.Intn(3)], Rd: isa.Reg(r.Intn(4)), Rs1: isa.Reg(r.Intn(4))}
			if r.Intn(8) == 0 {
				pending = append(pending, fwd{len(prog), r.Intn(3) - 1})
				emit(br)
				break
			}
			k := 1 + r.Intn(3)
			br.Imm = int32(k)
			emit(br)
			for ; k > 0; k-- {
				emit(isa.Instruction{Op: isa.ADDI, Rd: 13, Rs1: 13, Imm: 7})
			}
		default:
			if r.Intn(16) == 0 {
				emit(isa.Instruction{Op: isa.HALT})
			} else {
				emit(isa.Instruction{Op: isa.MULI, Rd: 14, Rs1: 14, Imm: 3})
			}
		}
	}
	marker := len(prog)
	for _, f := range pending {
		prog[f.at].Imm = int32(marker + f.past - f.at)
	}
	phaseAt := map[int]int{marker: 0}
	half := func(id int) {
		if id > 0 {
			phaseAt[len(prog)] = id
		}
		p := ptr()
		emit(isa.Instruction{Op: isa.MOVI, Rd: 10, Imm: int32(1 + r.Intn(60))})
		head := len(prog)
		emit(isa.Instruction{Op: isa.ADDI, Rd: p, Rs1: p, Imm: []int32{4, 64}[r.Intn(2)]})
		emit(isa.Instruction{Op: isa.ANDI, Rd: p, Rs1: p, Imm: 0x7fff})
		if r.Intn(3) > 0 {
			memOp(p)
		} else {
			emit(isa.Instruction{Op: isa.DIVI, Rd: 13, Rs1: 13, Imm: 3})
		}
		emit(isa.Instruction{Op: isa.SUBI, Rd: 10, Rs1: 10, Imm: 1})
		emit(isa.Instruction{Op: isa.BNE, Rd: 10, Rs1: 0, Imm: int32(head - len(prog) - 1)})
	}
	half(0)
	half(1)
	if r.Intn(4) == 0 {
		phaseAt[len(prog)-1] = 2
	}
	if r.Intn(6) == 0 {
		emit(isa.Instruction{Op: isa.HALT})
	} else {
		emit(isa.Instruction{Op: isa.JMP, Imm: int32(marker - len(prog) - 1)})
	}
	return prog, phaseAt
}

// FuzzWarmStartVsCold holds a run started from Prologue's saved state
// to the same run from reset, on random programs under random sample
// and step limits: everything the run leaves must match, and a run must
// start warm exactly when its prologue is confined and ends on the
// marker within the step budget.
func FuzzWarmStartVsCold(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, uint16(seed*37), uint8(seed))
	}
	m := MustNew(smallMachine())
	f.Fuzz(func(t *testing.T, seed int64, steps uint16, samples uint8) {
		prog, phaseAt := warmProgram(seed)
		// Always a step bound: a prologue that jumps past its marker
		// into a loop whose counter it never set runs until one.
		opts := RunOptions{MaxSamples: 1 + int(samples%40), MaxSteps: 1 + uint64(steps)*8}
		warmed := coldAndWarm(t, m, prog, phaseAt, opts)
		w, _ := m.Prologue(prog, phaseAt, nil)
		want := w != nil && opts.MaxSteps > w.core.Retired()
		if warmed != want {
			t.Fatalf("started warm %v, want %v (saved state %v, options %+v)", warmed, want, w != nil, opts)
		}
	})
}

// A run starts cold, and still matches the cold run, in each case a
// saved prologue does not cover: a prefix branch past the marker (no
// state is saved), a step limit the prologue reaches, another machine
// configuration, and a program whose prologue differs.
func TestWarmStartRunsColdOutsideItsProof(t *testing.T) {
	prologue := `
		movi r12, -1
		movi r2, 0x1000
		movi r10, 200
	warm:
		ld r1, [r2]
		st [r2], r12
		addi r2, r2, 64
		subi r10, r10, 1
		bne r10, r0, warm
	`
	body := `
	outer:
		movi r10, 50
	loopA:
		addi r2, r2, 4
		andi r2, r2, 0x3fff
		st [r2], r12
		subi r10, r10, 1
		bne r10, r0, loopA
	phaseB:
		movi r10, 50
	loopB:
		divi r13, r13, 3
		subi r10, r10, 1
		bne r10, r0, loopB
		jmp outer
	`
	assemble := func(src string) ([]isa.Instruction, map[int]int) {
		t.Helper()
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		return p.Instructions, map[int]int{int(p.Symbols["outer"]): 0, int(p.Symbols["phaseB"]): 1}
	}
	m := MustNew(smallMachine())
	prog, phaseAt := assemble(prologue + body)
	w, err := m.Prologue(prog, phaseAt, nil)
	if err != nil || w == nil {
		t.Fatalf("no saved state for a confined prologue (%v)", err)
	}
	if !coldAndWarm(t, m, prog, phaseAt, RunOptions{MaxSamples: 30}) {
		t.Fatal("an unlimited run started cold")
	}
	prologueSteps := w.core.Retired()

	t.Run("branch-past-marker", func(t *testing.T) {
		p, at := assemble("beq r0, r12, phaseB\n" + prologue + body)
		if w, err := m.Prologue(p, at, nil); w != nil || err != nil {
			t.Fatalf("saved %v (%v) for a prologue that can jump past its marker", w != nil, err)
		}
		if coldAndWarm(t, m, p, at, RunOptions{MaxSamples: 30}) {
			t.Fatal("started warm")
		}
	})
	t.Run("step-limit", func(t *testing.T) {
		for _, s := range []uint64{prologueSteps / 2, prologueSteps} {
			if coldAndWarm(t, m, prog, phaseAt, RunOptions{MaxSteps: s}) {
				t.Fatalf("started warm with %d steps for a %d-step prologue", s, prologueSteps)
			}
		}
		if !coldAndWarm(t, m, prog, phaseAt, RunOptions{MaxSteps: prologueSteps + 1}) {
			t.Fatal("started cold with a step past the prologue")
		}
	})
	t.Run("other-config", func(t *testing.T) {
		for _, cfg := range []Config{Core2Duo(), func() Config { c := smallMachine(); c.CPU.DivCycles++; return c }()} {
			other := MustNew(cfg)
			res, err := other.RunPhases(prog, phaseAt, RunOptions{MaxSamples: 30, Warm: w})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := other.RunPhases(prog, phaseAt, RunOptions{MaxSamples: 30})
			if err != nil {
				t.Fatal(err)
			}
			if res.Warmed || res.Cycles != cold.Cycles || res.Retired != cold.Retired {
				t.Fatalf("%s: warmed %v, %d cycles (cold %d)", cfg.Name, res.Warmed, res.Cycles, cold.Cycles)
			}
		}
	})
	t.Run("other-prologue", func(t *testing.T) {
		p, at := assemble(strings.Replace(prologue, "movi r10, 200", "movi r10, 100", 1) + body)
		res, err := m.RunPhases(p, at, RunOptions{MaxSamples: 30, Warm: w})
		if err != nil {
			t.Fatal(err)
		}
		if res.Warmed {
			t.Fatal("started warm from another program's prologue")
		}
	})
}
