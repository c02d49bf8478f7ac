package cpu

import "repro/internal/isa"

// exec applies one register-only instruction — any opcode except NOP,
// HALT, LD, ST and the branches — to regs. It mirrors the interpreter's
// inline cases for selfForward; the lockstep tests hold the two to each
// other.
func exec(in *isa.Instruction, regs *[isa.NumRegs]uint32) {
	switch in.Op {
	case isa.MOVI:
		regs[in.Rd] = uint32(in.Imm)
	case isa.LUI:
		regs[in.Rd] = regs[in.Rd]&0xFFFF | uint32(in.Imm)<<16
	case isa.ADDI:
		regs[in.Rd] = regs[in.Rs1] + uint32(in.Imm)
	case isa.ADDR:
		regs[in.Rd] = regs[in.Rs1] + regs[in.Rs2]
	case isa.SUBI:
		regs[in.Rd] = regs[in.Rs1] - uint32(in.Imm)
	case isa.SUBR:
		regs[in.Rd] = regs[in.Rs1] - regs[in.Rs2]
	case isa.ANDI:
		regs[in.Rd] = regs[in.Rs1] & uint32(in.Imm)
	case isa.ANDR:
		regs[in.Rd] = regs[in.Rs1] & regs[in.Rs2]
	case isa.ORI:
		regs[in.Rd] = regs[in.Rs1] | uint32(in.Imm)
	case isa.ORR:
		regs[in.Rd] = regs[in.Rs1] | regs[in.Rs2]
	case isa.XORI:
		regs[in.Rd] = regs[in.Rs1] ^ uint32(in.Imm)
	case isa.XORR:
		regs[in.Rd] = regs[in.Rs1] ^ regs[in.Rs2]
	case isa.SHLI:
		regs[in.Rd] = regs[in.Rs1] << uint(in.Imm)
	case isa.SHRI:
		regs[in.Rd] = regs[in.Rs1] >> uint(in.Imm)
	case isa.MULI:
		regs[in.Rd] = uint32(int32(regs[in.Rs1]) * in.Imm)
	case isa.MULR:
		regs[in.Rd] = uint32(int32(regs[in.Rs1]) * int32(regs[in.Rs2]))
	case isa.DIVI:
		regs[in.Rd] = uint32(divide(int32(regs[in.Rs1]), in.Imm))
	case isa.DIVR:
		regs[in.Rd] = uint32(divide(int32(regs[in.Rs1]), int32(regs[in.Rs2])))
	}
}

// loop is a counted loop: a backward `BNE rc, rz` (either operand order)
// whose static body path — from the branch target to the branch —
// satisfies all of:
//
//   - every inner branch is forward and statically resolved: JMP, or
//     BEQ/BNE comparing a register with itself;
//   - no HALT and no undefined opcode;
//   - at most one LD or ST, or an LD and then an ST to the same address
//     with no register op between them;
//   - exactly one `SUBI rc, rc, 1`, and no other read or write of rc;
//   - no write of rz;
//
// and whose register work has a closed form (see sweep). Every
// iteration then executes the same instructions, so its steps, cycles
// (each memory op at the L1 hit latency; fastForward adds what its
// accesses took beyond that), core-event tallies and mispredicts are
// constants, and once the back edge is taken regs[rc]−regs[rz]
// iterations remain, the last of which falls through. Loops of any
// other shape are interpreted.
type loop struct {
	head, end int               // body pcs; end is the back edge
	rc, rz    isa.Reg           // counter and bound
	mem       []isa.Instruction // the memory ops in program order
	sw        sweep             // the body in closed form

	steps, cycles                                  uint64
	fetchN, aluN, mulN, divN, branchN, mispredicts uint64
}

// findLoops indexes prog's counted loops by back-edge pc. Indexing by
// the back edge rather than the head keeps each entry unique: two back
// edges may share a head when a forward jump skips the first.
func findLoops(prog []isa.Instruction, cfg *Config, l1Hit uint64) []*loop {
	loops := make([]*loop, len(prog))
	for end := range prog {
		loops[end] = countedLoop(prog, end, cfg, l1Hit)
	}
	return loops
}

// countedLoop returns the counted loop whose back edge is prog[end], or
// nil when prog[end] is not one.
func countedLoop(prog []isa.Instruction, end int, cfg *Config, l1Hit uint64) *loop {
	br := prog[end]
	if br.Op != isa.BNE || br.Imm >= 0 || br.Rd == br.Rs1 || br.Rd >= isa.NumRegs || br.Rs1 >= isa.NumRegs {
		return nil
	}
	head := end + 1 + int(br.Imm)
	if head < 0 {
		return nil
	}
	var path []int
	for pc := head; pc != end; {
		if pc > end {
			return nil // a forward jump leaves the loop
		}
		in := &prog[pc]
		if !in.Op.Valid() || in.Op == isa.HALT || in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs || in.Rs2 >= isa.NumRegs {
			return nil
		}
		path = append(path, pc)
		switch in.Op {
		case isa.JMP, isa.BEQ, isa.BNE:
			if in.Imm < 0 || (in.Op != isa.JMP && in.Rd != in.Rs1) {
				return nil
			}
			if in.Op == isa.BNE { // never taken
				pc++
			} else {
				pc += 1 + int(in.Imm)
			}
		default:
			pc++
		}
	}
	lp := counter(prog, path, br.Rd, br.Rs1)
	if lp == nil {
		lp = counter(prog, path, br.Rs1, br.Rd)
	}
	if lp == nil {
		return nil
	}
	lp.head, lp.end = head, end

	// ops are the path's register ops in order, without the counter
	// decrement (applied once in closed form: nothing else reads rc);
	// the first nPre of them precede the memory op.
	var ops []isa.Instruction
	nPre := 0
	branchLat := uint64(cfg.BranchCycles)
	for _, pc := range path {
		in := prog[pc]
		lp.steps++
		lp.fetchN++
		switch in.Op.Class() {
		case isa.ClassNop:
			lp.cycles += uint64(cfg.ALUCycles)
		case isa.ClassALU:
			lp.cycles += uint64(cfg.ALUCycles)
			lp.aluN++
		case isa.ClassMul:
			lp.cycles += uint64(cfg.MulCycles)
			lp.mulN++
		case isa.ClassDiv:
			lp.cycles += uint64(cfg.DivCycles)
			lp.divN++
		case isa.ClassLoad, isa.ClassStore:
			if len(lp.mem) == 2 || len(lp.mem) == 1 && len(ops) != nPre {
				return nil
			}
			lp.cycles += l1Hit
			lp.mem = append(lp.mem, in)
			nPre = len(ops)
			continue
		case isa.ClassBranch:
			lp.cycles += branchLat
			lp.branchN++
			if in.Op == isa.BEQ { // taken, predicted not-taken
				lp.cycles += uint64(cfg.MispredictCycles)
				lp.mispredicts++
			}
			continue
		}
		if in.Op == isa.NOP || (in.Op == isa.SUBI && in.Rd == lp.rc) {
			continue
		}
		ops = append(ops, in)
	}
	if len(lp.mem) == 0 {
		nPre = len(ops)
	}
	// The back edge: taken backward, so predicted.
	lp.steps++
	lp.fetchN++
	lp.branchN++
	lp.cycles += branchLat
	if !lp.closedForm(ops, nPre) {
		return nil
	}
	return lp
}

// counter returns a loop with counter rc and bound rz when path holds
// exactly one `SUBI rc, rc, 1`, no other access to rc and no write of
// rz, or nil.
func counter(prog []isa.Instruction, path []int, rc, rz isa.Reg) *loop {
	decrements := 0
	for _, pc := range path {
		in := prog[pc]
		if in.Op == isa.SUBI && in.Rd == rc && in.Rs1 == rc && in.Imm == 1 {
			decrements++
			continue
		}
		if w, r := in.RegSets(); w&(1<<rz) != 0 || (w|r)&(1<<rc) != 0 {
			return nil
		}
	}
	if decrements != 1 {
		return nil
	}
	return &loop{rc: rc, rz: rz}
}

// iterations returns how many whole iterations may be fast-forwarded
// from the loop head, just after a taken back edge: at most all but the
// exiting one, none when a phase marker lies in the body (the
// interpreter must stop there), and only as many as keep every skipped
// instruction within the run's step limit: stepsLeft more instructions
// may retire.
func (lp *loop) iterations(regs *[isa.NumRegs]uint32, lookup []int32, stepsLeft uint64) uint64 {
	n := uint64(regs[lp.rc]-regs[lp.rz]) - 1
	if s := stepsLeft / lp.steps; s < n {
		n = s
	}
	if n == 0 {
		return 0
	}
	for pc := lp.head; pc <= lp.end && pc < len(lookup); pc++ {
		if lookup[pc] >= 0 {
			return 0
		}
	}
	return n
}

// fastForward executes n whole iterations of lp from its head — none
// unless the registers give the body its closed form (see sweep.holds)
// — and returns how many it executed and the cycles their memory
// accesses took beyond the L1 hit latency lp.cycles charges. Registers,
// data memory and the memory hierarchy take their real values.
func (c *CPU) fastForward(lp *loop, n uint64) (k, extra uint64) {
	if n == 0 || !lp.sw.holds(&c.regs) {
		return 0, 0
	}
	extra = c.sweepForward(lp, n)
	c.regs[lp.rc] -= uint32(n)
	return n, extra
}

// sweep is a counted loop body in closed form. Apart from the counter
// decrement and the memory ops it consists of at most one pointer
// update on a register p, either
//
//   - linear: ADDI p,p,stride; or
//   - masked, the Figure 4 update t = (p+stride) & m; p = (p & nm) | t
//     — ADDI t,p,stride first, ORR p,p,t last, ANDR t,t,m and
//     ANDR p,p,nm between in either order — on registers p, t, m, nm
//     that nothing else in the body writes;
//
// and of self-contained ops: each writes a register that no other
// instruction of the body reads or writes, reading at most that
// register.
//
// The memory ops address through p, after a masked update or on either
// side of a linear one, or through a register the body never writes; an
// LD's destination is private to it, and an ST stores neither p nor t.
// While m holds 2^k−1 and nm its complement, iteration j of a masked
// update leaves t = (p₀ + j·stride) & m and p = (p₀ & nm) | t; a linear
// one leaves p = p₀ + j·stride. So any number of iterations costs O(1)
// register work, and one hierarchy access per memory op and line.
type sweep struct {
	p, t, m, nm isa.Reg // isa.NumRegs where the update has none
	stride      uint32
	masked      bool
	memAtP      bool
	// lead is how many updates of p precede the memory ops in their
	// iteration: 0 when a linear update follows them, otherwise 1.
	lead uint32
	self []isa.Instruction
}

// closedForm sets lp.sw to the closed form of the body's register ops
// (the first nPre of them before the memory ops), or reports that it
// has none.
func (lp *loop) closedForm(ops []isa.Instruction, nPre int) bool {
	var touched [isa.NumRegs]int
	note := func(in isa.Instruction) {
		w, r := in.RegSets()
		for reg := range touched {
			if (w|r)&(1<<reg) != 0 {
				touched[reg]++
			}
		}
	}
	for _, in := range ops {
		note(in)
	}
	for _, in := range lp.mem {
		note(in)
	}
	sw := &lp.sw
	sw.p, sw.t, sw.m, sw.nm, sw.lead = isa.NumRegs, isa.NumRegs, isa.NumRegs, isa.NumRegs, 1
	var group []isa.Instruction
	groupInPre := true
	for i, in := range ops {
		w, r := in.RegSets()
		if w != 0 && r&^w == 0 && touched[in.Rd] == 1 {
			sw.self = append(sw.self, in)
			continue
		}
		group = append(group, in)
		if i >= nPre {
			groupInPre = false
		}
	}
	switch len(group) {
	case 0: // no pointer update
	case 1: // a linear one
		in := group[0]
		if in.Op != isa.ADDI || in.Rd != in.Rs1 {
			return false
		}
		sw.p, sw.stride = in.Rd, uint32(in.Imm)
		if !groupInPre {
			sw.lead = 0
		}
	case 4: // a masked one, which an access through p must follow
		if !sw.maskedUpdate(group) || !groupInPre && len(lp.mem) > 0 && lp.mem[0].Rs1 == sw.p {
			return false
		}
	default:
		return false
	}
	for _, m := range lp.mem {
		if m.Op == isa.LD && (m.Rd == m.Rs1 || touched[m.Rd] != 1) ||
			m.Op == isa.ST && (m.Rd == sw.p || m.Rd == sw.t) || m.Rs1 == sw.t {
			return false
		}
	}
	if len(lp.mem) == 2 {
		ld, st := lp.mem[0], lp.mem[1]
		if ld.Op != isa.LD || st.Op != isa.ST || ld.Rs1 != st.Rs1 || ld.Imm != st.Imm {
			return false
		}
	}
	sw.memAtP = len(lp.mem) > 0 && lp.mem[0].Rs1 == sw.p
	return true
}

// maskedUpdate sets sw to the Figure 4 update that group, the body's
// four pointer ops in order, forms, or reports that it forms none.
func (sw *sweep) maskedUpdate(group []isa.Instruction) bool {
	first, last := group[0], group[3]
	if first.Op != isa.ADDI || first.Rd == first.Rs1 {
		return false
	}
	sw.t, sw.p, sw.stride = first.Rd, first.Rs1, uint32(first.Imm)
	if last.Op != isa.ORR || last.Rd != sw.p || operand(last, sw.p) != sw.t {
		return false
	}
	haveM, haveNM := false, false
	for _, in := range group[1:3] {
		switch {
		case in.Op != isa.ANDR:
			return false
		case in.Rd == sw.t && !haveM:
			sw.m, haveM = operand(in, sw.t), true
		case in.Rd == sw.p && !haveNM:
			sw.nm, haveNM = operand(in, sw.p), true
		default:
			return false
		}
	}
	sw.masked = true
	return haveM && haveNM && distinct(sw.p, sw.t, sw.m, sw.nm)
}

// operand returns the source of the two-source op in other than x, or
// isa.NumRegs when neither source is x.
func operand(in isa.Instruction, x isa.Reg) isa.Reg {
	switch x {
	case in.Rs1:
		return in.Rs2
	case in.Rs2:
		return in.Rs1
	}
	return isa.NumRegs
}

func distinct(regs ...isa.Reg) bool {
	var seen uint32
	for _, r := range regs {
		if r >= isa.NumRegs || seen&(1<<r) != 0 {
			return false
		}
		seen |= 1 << r
	}
	return true
}

// holds reports whether the registers give the pointer update its
// closed form: for a masked one, m a low-bit mask and nm its
// complement.
func (sw *sweep) holds(regs *[isa.NumRegs]uint32) bool {
	if !sw.masked {
		return true
	}
	m := regs[sw.m]
	return m&(m+1) == 0 && regs[sw.nm] == ^m
}

// sweepForward executes n iterations of a body in closed form and
// returns their accesses' extra cycles (see fastForward).
func (c *CPU) sweepForward(lp *loop, n uint64) (extra uint64) {
	regs, sw := &c.regs, &lp.sw
	if len(lp.mem) > 0 {
		extra = c.sweepMemory(lp, n)
	}
	switch {
	case sw.masked:
		p0, m := regs[sw.p], regs[sw.m]
		regs[sw.t] = (p0 + uint32(n)*sw.stride) & m
		regs[sw.p] = p0&^m | regs[sw.t]
	case sw.p < isa.NumRegs:
		regs[sw.p] += uint32(n) * sw.stride
	}
	for i := range sw.self {
		selfForward(&sw.self[i], regs, n)
	}
	return extra
}

// sweepMemory applies the memory ops of n ≥ 1 iterations of a body in
// closed form, in program order and before its registers advance, and
// returns the cycles their accesses took beyond the L1 hit latency.
//
// It goes one run at a time: the iterations, from the first not yet
// applied, whose addresses step through one block (see CPU.block)
// without a mask wrapping — all of them when the address does not move.
// AccessRepeats applies a run whole or not at all, as the accesses one
// by one would. When it declines, the run's first access goes alone
// through AccessInto, as the interpreter applies it; that leaves its
// line the one L1 served last, or the open write-combining line, so the
// rest of the run repeats it. Of an LD+ST pair, the load leaves its
// line the one L1 served last, so the store repeats it. A store run
// writes its words with one page lookup; a load's destination is
// private to it, so only the last word loaded is read.
func (c *CPU) sweepMemory(lp *loop, n uint64) (extra uint64) {
	regs, sw := &c.regs, &lp.sw
	first, last := &lp.mem[0], &lp.mem[len(lp.mem)-1]
	write, pair := first.Op == isa.ST, len(lp.mem) == 2
	stored := regs[last.Rd] // what every store writes
	imm := uint32(first.Imm)
	// Within a mask's region the pointer moves forward by step per
	// iteration, wrapping to the region's start.
	var p0, m uint32
	var step uint64
	if sw.memAtP {
		p0, step = regs[sw.p], uint64(sw.stride)
		if sw.masked {
			m = regs[sw.m]
			step &= uint64(m)
		}
	}
	blockMask := uint64(c.block) - 1
	var at uint64     // the address of the last access applied
	var loaded uint32 // what a pair's last load read
	for done := uint64(0); done < n; {
		base := regs[first.Rs1]
		var t uint32
		if sw.memAtP {
			base = p0 + uint32(done+uint64(sw.lead))*sw.stride
			if sw.masked {
				t = base & m
				base = p0&^m | t
			}
		}
		addr := uint64(base + imm)
		// The run's i-th access is at addr + i·step while that keeps it
		// inside addr's block and the mask's region; a fixed address is
		// one word however long the run.
		run, words := n-done, uint64(1)
		if step != 0 {
			more := (blockMask - addr&blockMask) / step
			if sw.masked {
				more = min(more, uint64(m-t)/step)
			}
			run = min(run, 1+more)
			words = run
		}
		from := uint64(0) // the run's iterations already applied
		if !c.hier.AccessRepeats(addr, write, run, &c.act) {
			_, lat := c.hier.AccessInto(addr, write, &c.act)
			extra += uint64(lat) - c.l1Hit // modular: the sum is exact
			if pair {
				c.repeat(addr, true, 1)
			}
			c.repeat(addr+step, write, run-1)
			from = 1
		}
		if pair {
			c.repeat(addr+from*step, true, run-from)
		}
		at = addr + step*(words-1)
		if pair {
			// The run's last load reads what the iteration before it
			// stored when the two share a word.
			if run > 1 && (at-step)&^3 == at&^3 {
				loaded = stored
			} else {
				loaded = c.mem.Load32(at)
			}
		}
		if write || pair {
			c.mem.Store32Run(addr, step, words, stored)
		}
		done += run
	}
	if first.Op == isa.LD {
		if !pair {
			loaded = c.mem.Load32(at)
		}
		regs[first.Rd] = loaded
	}
	return extra
}

// repeat applies n accesses that provably repeat the previous one (see
// sweepMemory).
func (c *CPU) repeat(addr uint64, write bool, n uint64) {
	if n > 0 && !c.hier.AccessRepeats(addr, write, n, &c.act) {
		panic("cpu: a fast-forwarded access did not repeat the previous one")
	}
}

// selfForward applies n iterations of the self-contained op in: in
// closed form for adds, subtracts and multiplies by a constant,
// otherwise one at a time until the register reaches a fixed point.
func selfForward(in *isa.Instruction, regs *[isa.NumRegs]uint32, n uint64) {
	r := &regs[in.Rd]
	imm := uint32(in.Imm)
	switch in.Op {
	case isa.ADDI:
		*r += uint32(n) * imm
	case isa.SUBI:
		*r -= uint32(n) * imm
	case isa.MULI:
		// x·imm mod 2³² is the core's int32 product; square-and-multiply
		// gives imm^n mod 2³².
		f := uint32(1)
		for ; n > 0; n >>= 1 {
			if n&1 != 0 {
				f *= imm
			}
			imm *= imm
		}
		*r *= f
	default:
		for ; n > 0; n-- {
			v := *r
			exec(in, regs)
			if *r == v {
				return
			}
		}
	}
}
