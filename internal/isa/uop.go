// Micro-op lowering: the predecoded form executed by the VM's block
// dispatcher. A basic block of FAROS-32 instructions is lowered once into a
// dense array of micro-ops with operands pre-resolved (base/index registers
// extracted, addressing mode folded into the kind, memory width made
// explicit), so the block executors dispatch on one small enum instead of
// re-deriving op×mode combinations every execution.
//
// Lowering also fuses the superinstruction patterns the sample corpus is
// dominated by: compare-and-branch loop heads, ALU-and-jump back edges, and
// the byte-granular load/store pair of memcpy bodies. A fused micro-op
// retires N architectural instructions; a branch into the middle of a fused
// pair simply enters a different block starting at the second instruction,
// so fusion never needs branch-target knowledge.

package isa

// NoIdx marks a micro-op memory operand with no index register (the
// displacement form).
const NoIdx = 0xFF

// UopKind selects a micro-op. Each kind implies both the architectural
// effect and the compiled-in taint effect (paper Table I): e.g. UMovRI is
// "write immediate, delete taint", ULoad is "load memory, copy the loaded
// bytes' provenance into the destination register and run the load policy".
type UopKind uint8

// Micro-op kinds. The fused kinds retire two architectural instructions.
const (
	UNop UopKind = iota + 1
	UHlt
	USyscall
	UMovRR    // A=dst, B=src
	UMovRI    // A=dst, Imm=value (taint delete)
	ULoad     // A=dst, B=base, C=index or NoIdx, Imm=disp, Size=1|4
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
	UMemMoveB // LDB+STB pair: A=load base, B=load idx, C=store base, D=store idx, Imm=data reg
)

// Uop is one predecoded micro-op. The field meanings depend on Kind (see
// the kind constants); N is the number of architectural instructions the
// micro-op retires (2 for superinstructions).
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

// IsFused reports whether the micro-op is a superinstruction.
func (u *Uop) IsFused() bool { return u.N > 1 }

// TouchesMem reports whether the micro-op performs a data memory access.
func (k UopKind) TouchesMem() bool {
	switch k {
	case ULoad, UStore, UCall, URet, UPush, UPop, UMemMoveB:
		return true
	}
	return false
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
	for i := 0; i < len(ins); i++ {
		in := ins[i]
		if i+1 < len(ins) {
			next := ins[i+1]
			// CMP + Jcc → one compare-and-branch micro-op.
			if in.Op == OpCmp && next.Op.IsCondJump() {
				j := jumpUop(UJcc, next)
				u := Uop{Op: next.Op, D: j.D, Imm2: j.Imm, N: 2}
				if in.Mode == ModeRR {
					u.Kind = UCmpJccRR
					u.A, u.B = uint8(in.Dst&7), uint8(in.Src&7)
				} else {
					u.Kind = UCmpJccRI
					u.A, u.Imm = uint8(in.Dst&7), in.Imm
				}
				uops = append(uops, u)
				i++
				continue
			}
			// ALU-immediate + unconditional JMP → loop back edge.
			if aluImmediate(in) && next.Op == OpJmp && next.Mode != ModeRR {
				j := jumpUop(UJmp, next)
				uops = append(uops, Uop{
					Kind: UAluJmp, Op: in.Op, A: uint8(in.Dst & 7),
					Imm: in.Imm, Imm2: j.Imm, D: j.D, N: 2,
				})
				i++
				continue
			}
			// LDB [b1+i] + STB [b2+j] through the same data register → the
			// memcpy body micro-op.
			if in.Op == OpLdb && in.Mode == ModeRX &&
				next.Op == OpStb && next.Mode == ModeXR && next.Src == in.Dst {
				uops = append(uops, Uop{
					Kind: UMemMoveB,
					A:    uint8(in.Src & 7), B: uint8(in.Imm & 7),
					C: uint8(next.Dst & 7), D: uint8(next.Imm & 7),
					Imm: uint32(in.Dst & 7), Size: 1, N: 2,
				})
				i++
				continue
			}
		}
		uops = append(uops, LowerOne(in))
	}
	return uops
}
