package isa

import "testing"

// TestEveryBuilderMethodEncodes drives each Block emitter once and checks
// the opcode/mode/operands of the emitted instruction.
func TestEveryBuilderMethodEncodes(t *testing.T) {
	type want struct {
		op   Op
		mode Mode
		dst  Reg
		src  Reg
		imm  uint32
	}
	cases := []struct {
		name string
		emit func(*Block)
		want want
	}{
		{"Mov", func(b *Block) { b.Mov(EAX, EBX) }, want{OpMov, ModeRR, EAX, EBX, 0}},
		{"Movi", func(b *Block) { b.Movi(ECX, 7) }, want{OpMov, ModeRI, ECX, 0, 7}},
		{"Ld", func(b *Block) { b.Ld(EAX, EBX, 4) }, want{OpLd, ModeRM, EAX, EBX, 4}},
		{"LdIdx", func(b *Block) { b.LdIdx(EAX, EBX, ECX) }, want{OpLd, ModeRX, EAX, EBX, uint32(ECX)}},
		{"Ldb", func(b *Block) { b.Ldb(EAX, EBX, 2) }, want{OpLdb, ModeRM, EAX, EBX, 2}},
		{"LdbIdx", func(b *Block) { b.LdbIdx(EAX, EBX, EDX) }, want{OpLdb, ModeRX, EAX, EBX, uint32(EDX)}},
		{"St", func(b *Block) { b.St(EBP, 8, ESI) }, want{OpSt, ModeMR, EBP, ESI, 8}},
		{"StIdx", func(b *Block) { b.StIdx(EBP, ECX, ESI) }, want{OpSt, ModeXR, EBP, ESI, uint32(ECX)}},
		{"Stb", func(b *Block) { b.Stb(EBP, 1, ESI) }, want{OpStb, ModeMR, EBP, ESI, 1}},
		{"StbIdx", func(b *Block) { b.StbIdx(EBP, ECX, ESI) }, want{OpStb, ModeXR, EBP, ESI, uint32(ECX)}},
		{"Add", func(b *Block) { b.Add(EAX, EBX) }, want{OpAdd, ModeRR, EAX, EBX, 0}},
		{"Addi", func(b *Block) { b.Addi(EAX, 3) }, want{OpAdd, ModeRI, EAX, 0, 3}},
		{"Sub", func(b *Block) { b.Sub(EAX, EBX) }, want{OpSub, ModeRR, EAX, EBX, 0}},
		{"Subi", func(b *Block) { b.Subi(EAX, 3) }, want{OpSub, ModeRI, EAX, 0, 3}},
		{"And", func(b *Block) { b.And(EAX, EBX) }, want{OpAnd, ModeRR, EAX, EBX, 0}},
		{"Andi", func(b *Block) { b.Andi(EAX, 3) }, want{OpAnd, ModeRI, EAX, 0, 3}},
		{"Or", func(b *Block) { b.Or(EAX, EBX) }, want{OpOr, ModeRR, EAX, EBX, 0}},
		{"Ori", func(b *Block) { b.Ori(EAX, 3) }, want{OpOr, ModeRI, EAX, 0, 3}},
		{"Xor", func(b *Block) { b.Xor(EAX, EBX) }, want{OpXor, ModeRR, EAX, EBX, 0}},
		{"Xori", func(b *Block) { b.Xori(EAX, 3) }, want{OpXor, ModeRI, EAX, 0, 3}},
		{"Mul", func(b *Block) { b.Mul(EAX, EBX) }, want{OpMul, ModeRR, EAX, EBX, 0}},
		{"Muli", func(b *Block) { b.Muli(EAX, 3) }, want{OpMul, ModeRI, EAX, 0, 3}},
		{"Shl", func(b *Block) { b.Shl(EAX, EBX) }, want{OpShl, ModeRR, EAX, EBX, 0}},
		{"Shli", func(b *Block) { b.Shli(EAX, 3) }, want{OpShl, ModeRI, EAX, 0, 3}},
		{"Shr", func(b *Block) { b.Shr(EAX, EBX) }, want{OpShr, ModeRR, EAX, EBX, 0}},
		{"Shri", func(b *Block) { b.Shri(EAX, 3) }, want{OpShr, ModeRI, EAX, 0, 3}},
		{"Not", func(b *Block) { b.Not(EAX) }, want{OpNot, ModeRR, EAX, 0, 0}},
		{"Cmp", func(b *Block) { b.Cmp(EAX, EBX) }, want{OpCmp, ModeRR, EAX, EBX, 0}},
		{"Cmpi", func(b *Block) { b.Cmpi(EAX, 3) }, want{OpCmp, ModeRI, EAX, 0, 3}},
		{"JmpReg", func(b *Block) { b.JmpReg(ESI) }, want{OpJmp, ModeRR, ESI, 0, 0}},
		{"CallAbs", func(b *Block) { b.CallAbs(0x1234) }, want{OpCall, ModeRI, 0, 0, 0x1234}},
		{"CallReg", func(b *Block) { b.CallReg(ESI) }, want{OpCall, ModeRR, ESI, 0, 0}},
		{"Ret", func(b *Block) { b.Ret() }, want{OpRet, ModeNone, 0, 0, 0}},
		{"Push", func(b *Block) { b.Push(EAX) }, want{OpPush, ModeRR, EAX, 0, 0}},
		{"Pushi", func(b *Block) { b.Pushi(9) }, want{OpPush, ModeRI, 0, 0, 9}},
		{"Pop", func(b *Block) { b.Pop(EAX) }, want{OpPop, ModeRR, EAX, 0, 0}},
		{"Syscall", func(b *Block) { b.Syscall() }, want{OpSyscall, ModeNone, 0, 0, 0}},
		{"Nop", func(b *Block) { b.Nop() }, want{OpNop, ModeNone, 0, 0, 0}},
		{"Hlt", func(b *Block) { b.Hlt() }, want{OpHlt, ModeNone, 0, 0, 0}},
	}
	for _, tc := range cases {
		b := NewBlock()
		tc.emit(b)
		code, err := b.Assemble(0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		in, err := Decode(code[:InstrSize])
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		got := want{in.Op, in.Mode, in.Dst, in.Src, in.Imm}
		if got != tc.want {
			t.Errorf("%s: got %+v want %+v", tc.name, got, tc.want)
		}
	}
}

// TestConditionalJumpEmitters verifies every Jcc variant resolves its
// relative target.
func TestConditionalJumpEmitters(t *testing.T) {
	emitters := []struct {
		name string
		emit func(*Block, string) *Block
		op   Op
	}{
		{"Jmp", (*Block).Jmp, OpJmp},
		{"Jz", (*Block).Jz, OpJz},
		{"Jnz", (*Block).Jnz, OpJnz},
		{"Jl", (*Block).Jl, OpJl},
		{"Jg", (*Block).Jg, OpJg},
		{"Jle", (*Block).Jle, OpJle},
		{"Jge", (*Block).Jge, OpJge},
	}
	for _, e := range emitters {
		b := NewBlock()
		e.emit(b, "t")
		b.Nop()
		b.Label("t")
		code, err := b.Assemble(0)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		in, _ := Decode(code[:InstrSize])
		if in.Op != e.op || in.Mode != ModeRel || in.RelOffset() != InstrSize {
			t.Errorf("%s: %+v", e.name, in)
		}
	}
}

// AddiLabel computes dst += offset(label).
func (b *Block) AddiLabel(dst Reg, label string) *Block {
	return b.emitFix(Instruction{Op: OpAdd, Mode: ModeRI, Dst: dst}, label, fixDeltaImm)
}

// TestAddiLabel verifies the label-offset immediate fixup LeaSelf relies on.
func TestAddiLabel(t *testing.T) {
	b := NewBlock()
	b.AddiLabel(EAX, "data")
	b.Nop()
	b.Label("data")
	code := b.MustAssemble(0)
	in, _ := Decode(code[:InstrSize])
	if in.Op != OpAdd || in.Imm != 16 {
		t.Errorf("AddiLabel = %+v", in)
	}
}

// TestMustAssemblePanics documents the panic contract.
func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic on undefined label")
		}
	}()
	b := NewBlock()
	b.Jmp("missing")
	b.MustAssemble(0)
}
