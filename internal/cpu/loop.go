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
//   - at most one LD or ST;
//   - exactly one `SUBI rc, rc, 1`, and no other read or write of rc;
//   - no write of rz;
//
// and whose register work has a closed form (see sweep). Every
// iteration then executes the same instructions, so its steps, cycles
// (the memory op at the L1 hit latency a repeated access costs),
// core-event tallies and mispredicts are constants, and once the back
// edge is taken regs[rc]−regs[rz] iterations remain, the last of which
// falls through. Loops of any other shape are interpreted.
type loop struct {
	head, end int             // body pcs; end is the back edge
	rc, rz    isa.Reg         // counter and bound
	mem       isa.Instruction // the LD or ST when hasMem
	hasMem    bool
	sw        sweep // the body in closed form

	steps, cycles, lastLat                         uint64
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
			if lp.hasMem {
				return nil
			}
			lp.cycles += l1Hit
			lp.mem, lp.hasMem = in, true
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
	if !lp.hasMem {
		nPre = len(ops)
	}
	// The back edge: taken backward, so predicted.
	lp.steps++
	lp.fetchN++
	lp.branchN++
	lp.cycles += branchLat
	lp.lastLat = branchLat
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
// instruction within the run's limits — stepsLeft more instructions may
// start, and each must start fewer than cycleLeft cycles from now.
func (lp *loop) iterations(regs *[isa.NumRegs]uint32, lookup []int32, stepsLeft, cycleLeft uint64) uint64 {
	n := uint64(regs[lp.rc]-regs[lp.rz]) - 1
	if s := stepsLeft / lp.steps; s < n {
		n = s
	}
	// Iteration j's back edge, its last instruction to start, starts
	// j·cycles − lastLat cycles from now.
	if cycleLeft <= ^uint64(0)-lp.lastLat {
		if c := (cycleLeft + lp.lastLat - 1) / lp.cycles; c < n {
			n = c
		}
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

// fastForward executes up to n whole iterations of lp from its head and
// returns how many it executed: none unless the registers give the body
// its closed form (see sweep.holds). Registers and data memory take
// their real values; the memory hierarchy is advanced only while
// AccessRepeats confirms the accesses repeat the previous one, and the
// first access that does not is left, with its iteration, to the
// interpreter.
func (c *CPU) fastForward(lp *loop, n uint64) uint64 {
	if n == 0 || !lp.sw.holds(&c.regs) {
		return 0
	}
	n = c.sweepForward(lp, n)
	c.regs[lp.rc] -= uint32(n)
	return n
}

// sweep is a counted loop body in closed form. Apart from the counter
// decrement and the memory op it consists of
//
//   - the Figure 4 pointer update, t = (p+stride) & m; p = (p & nm) | t
//     — ADDI t,p,stride first, ORR p,p,t last, ANDR t,t,m and
//     ANDR p,p,nm between in either order — on registers p, t, m, nm
//     that nothing else in the body writes; and
//   - self-contained ops: each writes a register that no other
//     instruction of the body reads or writes, reading at most that
//     register.
//
// The memory op addresses through p after the update, or through a
// register the body never writes, and an LD's destination is private
// to it. While m holds 2^k−1 and nm its complement, iteration j leaves
// t = (p₀ + j·stride) & m and p = (p₀ & nm) | t, so any number of
// iterations costs O(1) register work (and one hierarchy and data
// access each when the body has a memory op).
type sweep struct {
	p, t, m, nm isa.Reg
	stride      uint32
	memAtP      bool
	self        []isa.Instruction
}

// closedForm sets lp.sw to the closed form of the body's register ops
// (the first nPre of them before the memory op), or reports that it has
// none.
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
	if lp.hasMem {
		note(lp.mem)
	}
	sw := &lp.sw
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
	if len(group) != 4 {
		return false
	}
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
	if !haveM || !haveNM || !distinct(sw.p, sw.t, sw.m, sw.nm) {
		return false
	}
	if lp.hasMem {
		m := lp.mem
		if m.Op == isa.LD && (m.Rd == m.Rs1 || touched[m.Rd] != 1) ||
			m.Op == isa.ST && (m.Rd == sw.p || m.Rd == sw.t) || m.Rs1 == sw.t {
			return false
		}
		sw.memAtP = m.Rs1 == sw.p
		if sw.memAtP && !groupInPre {
			return false
		}
	}
	return true
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
// closed form: m a low-bit mask and nm its complement.
func (sw *sweep) holds(regs *[isa.NumRegs]uint32) bool {
	m := regs[sw.m]
	return m&(m+1) == 0 && regs[sw.nm] == ^m
}

// sweepForward executes up to n iterations of a body in closed form.
func (c *CPU) sweepForward(lp *loop, n uint64) uint64 {
	regs, sw := &c.regs, &lp.sw
	if lp.hasMem {
		if n = c.sweepMemory(lp, n); n == 0 {
			return 0
		}
	}
	p0, m := regs[sw.p], regs[sw.m]
	regs[sw.t] = (p0 + uint32(n)*sw.stride) & m
	regs[sw.p] = p0&^m | regs[sw.t]
	for i := range sw.self {
		selfForward(&sw.self[i], regs, n)
	}
	return n
}

// sweepMemory applies the memory op of up to n iterations of a body in
// closed form, before its registers advance, and returns how many it
// applied. It goes one run at a time: the iterations, from the first
// not yet applied, whose addresses step through one block (see
// CPU.block) without the mask wrapping — all of them when the address
// does not move. AccessRepeats applies a run whole or not at all, as
// the accesses one by one would; the run it declines is left to the
// interpreter. A store run writes its words with one page lookup; a
// load's destination is private to it, so only the last word loaded
// is read.
func (c *CPU) sweepMemory(lp *loop, n uint64) uint64 {
	regs, sw, mi := &c.regs, &lp.sw, &lp.mem
	write := mi.Op == isa.ST
	p0, m, imm := regs[sw.p], regs[sw.m], uint32(mi.Imm)
	// Within the mask's region of size 2^k the pointer moves forward by
	// step per iteration, wrapping to the region's start.
	region := uint64(m) + 1
	var step uint64
	if sw.memAtP {
		step = uint64(sw.stride & m)
	}
	block := uint64(c.block)
	done := uint64(0)
	var last uint64 // the address of the last access applied
	for done < n {
		base := regs[mi.Rs1]
		var t uint64
		if sw.memAtP {
			t = uint64((p0 + uint32(done+1)*sw.stride) & m)
			base = p0&^m | uint32(t)
		}
		addr := uint64(base + imm)
		// The run's i-th access is at addr + i·step while that keeps t
		// inside the region and addr's block; a fixed address is one
		// word however long the run.
		run, words := n-done, uint64(1)
		if step != 0 {
			more := min((region-1-t)/step, (block-1-addr%block)/step)
			run = min(run, 1+more)
			words = run
		}
		if !c.hier.AccessRepeats(addr, write, run, &c.act) {
			break
		}
		if write {
			c.mem.Store32Run(addr, step, words, regs[mi.Rd])
		}
		done += run
		last = addr + step*(words-1)
	}
	if done > 0 && !write {
		regs[mi.Rd] = c.mem.Load32(last)
	}
	return done
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
