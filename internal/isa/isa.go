// Package isa defines SVX32, the 32-bit fixed-width instruction set
// executed by the simulated machines in this repository.
//
// SVX32 is deliberately small: it contains exactly the instruction classes
// exercised by the SAVAT case study (Callan, Zajić, Prvulovic, MICRO 2014,
// Figure 5) — loads and stores whose cache behaviour is controlled by the
// addresses they sweep, short integer arithmetic (ADD/SUB and logic ops),
// long integer arithmetic (MUL and the iterative DIV), and the control-flow
// and address-update instructions needed to express the Figure 4
// alternation loop. Every instruction encodes to a single 32-bit word and
// round-trips through Encode/Decode/Disassemble.
package isa

import "fmt"

// Op identifies an SVX32 operation.
type Op uint8

// Opcode space. The *I forms take a 16-bit immediate; the *R forms take a
// second source register. LUI fills bits 31:16 of rd so that MOVI+LUI can
// materialize any 32-bit constant.
const (
	NOP Op = iota
	HALT
	MOVI // rd = signExt(imm16)
	LUI  // rd = (rd & 0xFFFF) | imm16<<16
	ADDI // rd = rs1 + imm
	ADDR // rd = rs1 + rs2
	SUBI // rd = rs1 - imm
	SUBR // rd = rs1 - rs2
	ANDI // rd = rs1 & zeroExt(imm)
	ANDR // rd = rs1 & rs2
	ORI  // rd = rs1 | zeroExt(imm)
	ORR  // rd = rs1 | rs2
	XORI // rd = rs1 ^ zeroExt(imm)
	XORR // rd = rs1 ^ rs2
	SHLI // rd = rs1 << imm
	SHRI // rd = rs1 >> imm (logical)
	MULI // rd = rs1 * imm
	MULR // rd = rs1 * rs2
	DIVI // rd = rs1 / imm (signed; imm != 0)
	DIVR // rd = rs1 / rs2 (rs2 == 0 -> rd = -1, matches divider saturation)
	LD   // rd = mem32[rs1 + imm]
	ST   // mem32[rs1 + imm] = rd
	BEQ  // if rd == rs1: pc += imm (word offset)
	BNE  // if rd != rs1: pc += imm (word offset)
	JMP  // pc += imm (word offset)
	opCount
)

// NumOps is the number of defined opcodes.
const NumOps = int(opCount)

// Reg identifies one of the 16 general-purpose registers r0..r15.
// There is no hardwired zero register; the assembler's `r0` is general.
type Reg uint8

// NumRegs is the number of architectural registers.
const NumRegs = 16

// Class groups opcodes by the functional unit and memory behaviour they
// exercise; the CPU model and the SAVAT kernel generator dispatch on it.
type Class uint8

const (
	ClassNop Class = iota
	ClassSys
	ClassALU
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassBranch
)

var opInfo = [NumOps]struct {
	name     string
	class    Class
	hasImm   bool // uses the imm16 field
	hasRs1   bool
	hasRs2   bool
	writesRd bool
	readsRd  bool
}{
	NOP:  {"nop", ClassNop, false, false, false, false, false},
	HALT: {"halt", ClassSys, false, false, false, false, false},
	MOVI: {"movi", ClassALU, true, false, false, true, false},
	LUI:  {"lui", ClassALU, true, false, false, true, true},
	ADDI: {"addi", ClassALU, true, true, false, true, false},
	ADDR: {"add", ClassALU, false, true, true, true, false},
	SUBI: {"subi", ClassALU, true, true, false, true, false},
	SUBR: {"sub", ClassALU, false, true, true, true, false},
	ANDI: {"andi", ClassALU, true, true, false, true, false},
	ANDR: {"and", ClassALU, false, true, true, true, false},
	ORI:  {"ori", ClassALU, true, true, false, true, false},
	ORR:  {"or", ClassALU, false, true, true, true, false},
	XORI: {"xori", ClassALU, true, true, false, true, false},
	XORR: {"xor", ClassALU, false, true, true, true, false},
	SHLI: {"shli", ClassALU, true, true, false, true, false},
	SHRI: {"shri", ClassALU, true, true, false, true, false},
	MULI: {"muli", ClassMul, true, true, false, true, false},
	MULR: {"mul", ClassMul, false, true, true, true, false},
	DIVI: {"divi", ClassDiv, true, true, false, true, false},
	DIVR: {"div", ClassDiv, false, true, true, true, false},
	LD:   {"ld", ClassLoad, true, true, false, true, false},
	ST:   {"st", ClassStore, true, true, false, false, true},
	BEQ:  {"beq", ClassBranch, true, true, false, false, true},
	BNE:  {"bne", ClassBranch, true, true, false, false, true},
	JMP:  {"jmp", ClassBranch, true, false, false, false, false},
}

// Valid reports whether op is a defined SVX32 opcode.
func (op Op) Valid() bool { return int(op) < NumOps }

// String returns the assembler mnemonic for op.
func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opInfo[op].name
}

// Class returns the functional class of op.
func (op Op) Class() Class {
	if !op.Valid() {
		panic(fmt.Sprintf("isa: invalid opcode %d", uint8(op)))
	}
	return opInfo[op].class
}

// HasImm reports whether op uses the 16-bit immediate field.
func (op Op) HasImm() bool { return op.Valid() && opInfo[op].hasImm }

// WritesRd reports whether op writes its destination register.
func (op Op) WritesRd() bool { return op.Valid() && opInfo[op].writesRd }

// ReadsRd reports whether op reads the register named in the rd field
// (stores read their data from rd; branches compare rd with rs1).
func (op Op) ReadsRd() bool { return op.Valid() && opInfo[op].readsRd }

// ReadsRs1 reports whether op reads rs1.
func (op Op) ReadsRs1() bool { return op.Valid() && opInfo[op].hasRs1 }

// ReadsRs2 reports whether op reads rs2.
func (op Op) ReadsRs2() bool { return op.Valid() && opInfo[op].hasRs2 }

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassSys:
		return "sys"
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassDiv:
		return "div"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// String returns the assembler register name rN.
func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Instruction is one decoded SVX32 instruction.
//
// Imm holds the sign-extended immediate for immediate forms and branch/jump
// word offsets; it is ignored by register-register forms.
type Instruction struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

// Validate reports the first structural problem with the instruction, or
// nil if it is encodable.
func (in Instruction) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return fmt.Errorf("isa: %s: register out of range (rd=%d rs1=%d rs2=%d)",
			in.Op, in.Rd, in.Rs1, in.Rs2)
	}
	if in.Op.HasImm() {
		min, max := immRange(in.Op)
		if in.Imm < min || in.Imm > max {
			return fmt.Errorf("isa: %s: immediate %d outside [%d,%d]", in.Op, in.Imm, min, max)
		}
	}
	if (in.Op == DIVI) && in.Imm == 0 {
		return fmt.Errorf("isa: divi: zero immediate divisor")
	}
	return nil
}

// immRange returns the encodable immediate range for op. Logical ops and
// LUI treat the field as unsigned 16 bits; everything else is signed.
func immRange(op Op) (min, max int32) {
	switch op {
	case ANDI, ORI, XORI, LUI:
		return 0, 0xFFFF
	case SHLI, SHRI:
		return 0, 31
	default:
		return -32768, 32767
	}
}

// String renders the instruction in assembler syntax.
func (in Instruction) String() string {
	switch in.Op {
	case NOP, HALT:
		return in.Op.String()
	case MOVI, LUI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case ADDI, SUBI, ANDI, ORI, XORI, SHLI, SHRI, MULI, DIVI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case ADDR, SUBR, ANDR, ORR, XORR, MULR, DIVR:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	case LD:
		return fmt.Sprintf("ld %s, [%s%+d]", in.Rd, in.Rs1, in.Imm)
	case ST:
		return fmt.Sprintf("st [%s%+d], %s", in.Rs1, in.Imm, in.Rd)
	case BEQ, BNE:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case JMP:
		return fmt.Sprintf("jmp %d", in.Imm)
	}
	return fmt.Sprintf("%s ?", in.Op)
}

// IsMem reports whether the instruction accesses data memory.
func (in Instruction) IsMem() bool {
	return in.Op == LD || in.Op == ST
}

// RegSets returns the registers the instruction writes and reads, as
// bitmasks (bit r for register r).
func (in Instruction) RegSets() (writes, reads uint32) {
	if in.Op.WritesRd() {
		writes |= 1 << in.Rd
	}
	if in.Op.ReadsRd() {
		reads |= 1 << in.Rd
	}
	if in.Op.ReadsRs1() {
		reads |= 1 << in.Rs1
	}
	if in.Op.ReadsRs2() {
		reads |= 1 << in.Rs2
	}
	return writes, reads
}

// IsBranch reports whether the instruction can redirect control flow.
func (in Instruction) IsBranch() bool {
	c := in.Op.Class()
	return c == ClassBranch
}
