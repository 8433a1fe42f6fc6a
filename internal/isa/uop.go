// Micro-op lowering: the predecoded form executed by the VM's block
// dispatcher. A basic block of FAROS-32 instructions is lowered once into a
// dense array of micro-ops with operands pre-resolved (base/index registers
// extracted, addressing mode folded into the kind, memory width made
// explicit), so the block executors dispatch on one small enum instead of
// re-deriving op×mode combinations every execution.
//
// Lowering also fuses the superinstruction patterns the sample corpus is
// dominated by: compare-and-branch loop heads, ALU-and-jump back edges,
// and the wide memory micro-ops of buffer loops: a MOVI that sets an
// access's base register rides on the access, and a load carries the ALU
// op that consumes the loaded register. A fused micro-op retires N
// architectural instructions (two or three); a branch into its middle
// simply enters a different block starting at that instruction, so fusion
// never needs branch-target knowledge.

package isa

// NoIdx marks a micro-op memory operand with no index register (the
// displacement form).
const NoIdx = 0xFF

// UopKind selects a micro-op. Each kind implies both the architectural
// effect and the compiled-in taint effect (paper Table I): e.g. UMovRI is
// "write immediate, delete taint", ULoad is "load memory, copy the loaded
// bytes' provenance into the destination register and run the load policy".
type UopKind uint8

// Micro-op kinds. The superinstructions and the wide memory forms retire
// more than one architectural instruction (Uop.N).
const (
	UNop UopKind = iota + 1
	UHlt
	USyscall
	UMovRR    // A=dst, B=src
	UMovRI    // A=dst, Imm=value (taint delete)
	ULoad     // A=dst, B=base, C=index or NoIdx, Imm=disp, Size=1|4; Op≠0 folds an ALU op (foldALU)
	UStore    // A=src(data), B=base, C=index or NoIdx, Imm=disp, Size=1|4
	UAluRR    // Op=ALU selector, A=dst, B=src (taint union)
	UAluRI    // Op=ALU selector, A=dst, Imm (taint unchanged)
	UXorClear // XOR r,r: A=dst (zero result, taint delete)
	UNot      // A=dst (taint kept)
	UCmpRR    // A, B (flags only)
	UCmpRI    // A, Imm (flags only)
	UJmp      // D=0 abs(Imm), 1 rel(Imm), 2 reg(A)
	UJcc      // Op=cond, D=0 abs(Imm), 1 rel(Imm)
	UCall     // D as UJmp; pushes the return address
	URet
	UPush // D=0 reg(A), 1 imm(Imm)
	UPop  // A=dst

	// Superinstructions.
	UCmpJccRR // Op=cond, A,B compare regs; Imm2=branch target, D=1 if rel
	UCmpJccRI // Op=cond, A reg, Imm compare imm; Imm2=branch target, D=1 if rel
	UAluJmp   // Op=ALU selector, A=dst, Imm=ALU imm; Imm2=jump target, D=1 if rel

	// Wide memory micro-ops: MOVI B,Imm2 (taint delete), then the access
	// exactly as ULoad/UStore with the same fields. A fault in the access
	// retires the MOVI.
	UMoviLoad  // MOVI + LD/LDB, plus the folded ALU op of ULoad when Op≠0
	UMoviStore // MOVI + ST/STB
)

// Uop is one predecoded micro-op. The field meanings depend on Kind (see
// the kind constants); N is the number of architectural instructions the
// micro-op retires (more than one for the fused forms).
//
// A load whose Op is nonzero also runs the ALU instruction after it, which
// reads the loaded register A: with D == NoIdx it is "Op A, Imm" (only on
// indexed loads, whose Imm is otherwise unused; taint unchanged), otherwise
// "Op D, A" (taint union into D).
type Uop struct {
	Kind UopKind
	Op   Op // original opcode: ALU selector, branch condition
	A    uint8
	B    uint8
	C    uint8
	D    uint8
	Size uint8
	N    uint8
	Imm  uint32
	Imm2 uint32
}

// EvalALU evaluates a two-operand ALU operation. The VM's reference Step
// and both block executors share it so the semantics cannot drift.
func EvalALU(op Op, a, b uint32) uint32 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpMul:
		return a * b
	case OpShl:
		return a << (b & 31)
	case OpShr:
		return a >> (b & 31)
	}
	return 0
}

// CondTaken evaluates a conditional-branch opcode against the Z (equal) and
// S (signed less-than) flags.
func CondTaken(op Op, z, s bool) bool {
	switch op {
	case OpJz:
		return z
	case OpJnz:
		return !z
	case OpJl:
		return s
	case OpJge:
		return !s
	case OpJg:
		return !s && !z
	case OpJle:
		return s || z
	}
	return false
}

// LowerOne lowers a single decoded instruction to its micro-op, unfused.
func LowerOne(in Instruction) Uop {
	switch in.Op {
	case OpNop:
		return Uop{Kind: UNop, N: 1}
	case OpHlt:
		return Uop{Kind: UHlt, N: 1}
	case OpSyscall:
		return Uop{Kind: USyscall, N: 1}
	case OpMov:
		if in.Mode == ModeRR {
			return Uop{Kind: UMovRR, A: uint8(in.Dst & 7), B: uint8(in.Src & 7), N: 1}
		}
		return Uop{Kind: UMovRI, A: uint8(in.Dst & 7), Imm: in.Imm, N: 1}
	case OpLd, OpLdb:
		size := uint8(4)
		if in.Op == OpLdb {
			size = 1
		}
		u := Uop{Kind: ULoad, A: uint8(in.Dst & 7), B: uint8(in.Src & 7), C: NoIdx, Size: size, N: 1, Imm: in.Imm}
		if in.Mode == ModeRX {
			u.C = uint8(in.Imm & 7)
			u.Imm = 0
		}
		return u
	case OpSt, OpStb:
		size := uint8(4)
		if in.Op == OpStb {
			size = 1
		}
		u := Uop{Kind: UStore, A: uint8(in.Src & 7), B: uint8(in.Dst & 7), C: NoIdx, Size: size, N: 1, Imm: in.Imm}
		if in.Mode == ModeXR {
			u.C = uint8(in.Imm & 7)
			u.Imm = 0
		}
		return u
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpMul, OpShl, OpShr:
		if in.Mode == ModeRR {
			if in.Op == OpXor && in.Dst == in.Src {
				return Uop{Kind: UXorClear, A: uint8(in.Dst & 7), N: 1}
			}
			return Uop{Kind: UAluRR, Op: in.Op, A: uint8(in.Dst & 7), B: uint8(in.Src & 7), N: 1}
		}
		return Uop{Kind: UAluRI, Op: in.Op, A: uint8(in.Dst & 7), Imm: in.Imm, N: 1}
	case OpNot:
		return Uop{Kind: UNot, A: uint8(in.Dst & 7), N: 1}
	case OpCmp:
		if in.Mode == ModeRR {
			return Uop{Kind: UCmpRR, A: uint8(in.Dst & 7), B: uint8(in.Src & 7), N: 1}
		}
		return Uop{Kind: UCmpRI, A: uint8(in.Dst & 7), Imm: in.Imm, N: 1}
	case OpJmp:
		return jumpUop(UJmp, in)
	case OpJz, OpJnz, OpJl, OpJg, OpJle, OpJge:
		u := jumpUop(UJcc, in)
		u.Op = in.Op
		return u
	case OpCall:
		return jumpUop(UCall, in)
	case OpRet:
		return Uop{Kind: URet, N: 1}
	case OpPush:
		if in.Mode == ModeRR {
			return Uop{Kind: UPush, A: uint8(in.Dst & 7), D: 0, N: 1}
		}
		return Uop{Kind: UPush, D: 1, Imm: in.Imm, N: 1}
	case OpPop:
		return Uop{Kind: UPop, A: uint8(in.Dst & 7), N: 1}
	}
	// Unreachable for validated instructions; a NOP-shaped fallback keeps
	// the lowering total.
	return Uop{Kind: UNop, N: 1}
}

// jumpUop lowers a control transfer, folding the target mode into D.
func jumpUop(kind UopKind, in Instruction) Uop {
	u := Uop{Kind: kind, N: 1}
	switch in.Mode {
	case ModeRI:
		u.D = 0
		u.Imm = in.Imm
	case ModeRel:
		u.D = 1
		u.Imm = in.Imm
	case ModeRR:
		u.D = 2
		u.A = uint8(in.Dst & 7)
	}
	return u
}

// aluImmediate reports whether in is an ALU operation in immediate form
// (whose taint effect is "unchanged" — safe to fuse with a following jump).
func aluImmediate(in Instruction) bool {
	switch in.Op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpMul, OpShl, OpShr:
		return in.Mode == ModeRI
	}
	return false
}

// Lower lowers a block of decoded instructions into micro-ops, fusing
// superinstruction patterns. Conditional branches may appear anywhere
// (blocks extend through the not-taken path), so the fused branch forms
// can occur mid-stream; unconditional transfers only at the tail.
func Lower(ins []Instruction) []Uop {
	uops := make([]Uop, 0, len(ins))
	for i := 0; i < len(ins); {
		u := fuse(ins[i:])
		uops = append(uops, u)
		i += int(u.N)
	}
	return uops
}

// fuse lowers the micro-op that starts at ins[0], folding in the
// instructions after it that a fusion pattern covers.
func fuse(ins []Instruction) Uop {
	in := ins[0]
	u := LowerOne(in)
	if len(ins) == 1 {
		return u
	}
	next := ins[1]
	switch {
	case in.Op == OpCmp && next.Op.IsCondJump():
		// CMP + Jcc → one compare-and-branch micro-op.
		j := jumpUop(UJcc, next)
		u = Uop{Op: next.Op, D: j.D, Imm2: j.Imm, N: 2}
		if in.Mode == ModeRR {
			u.Kind = UCmpJccRR
			u.A, u.B = uint8(in.Dst&7), uint8(in.Src&7)
		} else {
			u.Kind = UCmpJccRI
			u.A, u.Imm = uint8(in.Dst&7), in.Imm
		}
	case aluImmediate(in) && next.Op == OpJmp && next.Mode != ModeRR:
		// ALU-immediate + unconditional JMP → loop back edge.
		j := jumpUop(UJmp, next)
		u = Uop{Kind: UAluJmp, Op: in.Op, A: uint8(in.Dst & 7), Imm: in.Imm, Imm2: j.Imm, D: j.D, N: 2}
	case u.Kind == UMovRI:
		// MOVI into the base register of the next access → the access
		// carrying the immediate; a load may fold an ALU op too.
		acc := LowerOne(next)
		if acc.B != u.A {
			break
		}
		switch acc.Kind {
		case ULoad:
			acc.Kind, acc.Imm2, acc.N = UMoviLoad, in.Imm, 2
			foldALU(&acc, ins[2:])
			u = acc
		case UStore:
			acc.Kind, acc.Imm2, acc.N = UMoviStore, in.Imm, 2
			u = acc
		}
	case u.Kind == ULoad:
		foldALU(&u, ins[1:])
	}
	return u
}

// foldALU folds rest[0] into the load micro-op u when it is an ALU
// operation reading the loaded register: the immediate form on it (only
// after an indexed load, whose Imm is free) or the register form from it
// into another register. Other ALU shapes stay apart: XOR r,r is a taint
// delete, and an ALU op writing the loaded register from another one
// reads a register the load does not produce.
func foldALU(u *Uop, rest []Instruction) {
	if len(rest) == 0 {
		return
	}
	alu := rest[0]
	switch alu.Op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpMul, OpShl, OpShr:
	default:
		return
	}
	dst, src := uint8(alu.Dst&7), uint8(alu.Src&7)
	switch {
	case alu.Mode == ModeRI && dst == u.A && u.C != NoIdx:
		u.Op, u.D, u.Imm = alu.Op, NoIdx, alu.Imm
	case alu.Mode == ModeRR && src == u.A && dst != u.A:
		u.Op, u.D = alu.Op, dst
	default:
		return
	}
	u.N++
}
