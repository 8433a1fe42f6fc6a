package isa

import "testing"

// retired sums the architectural instructions a micro-op stream retires.
func retired(uops []Uop) int {
	n := 0
	for i := range uops {
		n += int(uops[i].N)
	}
	return n
}

func TestLowerSingleInstructions(t *testing.T) {
	cases := []struct {
		name string
		in   Instruction
		want Uop
	}{
		{"mov rr", Instruction{Op: OpMov, Mode: ModeRR, Dst: EAX, Src: EBX},
			Uop{Kind: UMovRR, A: 0, B: 1, N: 1}},
		{"mov ri", Instruction{Op: OpMov, Mode: ModeRI, Dst: ECX, Imm: 42},
			Uop{Kind: UMovRI, A: 2, Imm: 42, N: 1}},
		{"xor clear", Instruction{Op: OpXor, Mode: ModeRR, Dst: EDX, Src: EDX},
			Uop{Kind: UXorClear, A: 3, N: 1}},
		{"xor rr", Instruction{Op: OpXor, Mode: ModeRR, Dst: EDX, Src: EAX},
			Uop{Kind: UAluRR, Op: OpXor, A: 3, B: 0, N: 1}},
		{"ld disp", Instruction{Op: OpLd, Mode: ModeRI, Dst: EAX, Src: EBX, Imm: 8},
			Uop{Kind: ULoad, A: 0, B: 1, C: NoIdx, Size: 4, Imm: 8, N: 1}},
		{"ldb indexed", Instruction{Op: OpLdb, Mode: ModeRX, Dst: EAX, Src: ESI, Imm: uint32(ECX)},
			Uop{Kind: ULoad, A: 0, B: 4, C: 2, Size: 1, N: 1}},
		{"stb indexed", Instruction{Op: OpStb, Mode: ModeXR, Dst: ESI, Src: EAX, Imm: uint32(ECX)},
			Uop{Kind: UStore, A: 0, B: 4, C: 2, Size: 1, N: 1}},
		{"jmp rel", Instruction{Op: OpJmp, Mode: ModeRel, Imm: 0xFFFFFFF0},
			Uop{Kind: UJmp, D: 1, Imm: 0xFFFFFFF0, N: 1}},
		{"jmp reg", Instruction{Op: OpJmp, Mode: ModeRR, Dst: EDI},
			Uop{Kind: UJmp, D: 2, A: 5, N: 1}},
		{"jz abs", Instruction{Op: OpJz, Mode: ModeRI, Imm: 0x1000},
			Uop{Kind: UJcc, Op: OpJz, D: 0, Imm: 0x1000, N: 1}},
	}
	for _, tc := range cases {
		if got := LowerOne(tc.in); got != tc.want {
			t.Errorf("%s: LowerOne = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestLowerFusesCmpJcc(t *testing.T) {
	ins := []Instruction{
		{Op: OpCmp, Mode: ModeRR, Dst: EAX, Src: EBX},
		{Op: OpJz, Mode: ModeRel, Imm: 16},
		{Op: OpCmp, Mode: ModeRI, Dst: ECX, Imm: 100},
		{Op: OpJge, Mode: ModeRI, Imm: 0x2000},
		{Op: OpHlt},
	}
	uops := Lower(ins)
	if len(uops) != 3 {
		t.Fatalf("lowered to %d uops, want 3: %+v", len(uops), uops)
	}
	rr := uops[0]
	if rr.Kind != UCmpJccRR || rr.Op != OpJz || rr.A != 0 || rr.B != 1 || rr.D != 1 || rr.Imm2 != 16 || rr.N != 2 {
		t.Errorf("cmp+jcc rr = %+v", rr)
	}
	ri := uops[1]
	if ri.Kind != UCmpJccRI || ri.Op != OpJge || ri.A != 2 || ri.Imm != 100 || ri.D != 0 || ri.Imm2 != 0x2000 || ri.N != 2 {
		t.Errorf("cmp+jcc ri = %+v", ri)
	}
	if got := retired(uops); got != len(ins) {
		t.Errorf("retired %d instructions, want %d", got, len(ins))
	}
}

// With superblocks, fused compare-and-branch forms appear mid-stream:
// the block continues through the not-taken path.
func TestLowerFusesCmpJccMidStream(t *testing.T) {
	ins := []Instruction{
		{Op: OpMov, Mode: ModeRI, Dst: EAX, Imm: 1},
		{Op: OpCmp, Mode: ModeRI, Dst: EAX, Imm: 5},
		{Op: OpJge, Mode: ModeRel, Imm: 32},
		{Op: OpAdd, Mode: ModeRI, Dst: EAX, Imm: 1},
		{Op: OpJmp, Mode: ModeRel, Imm: 0xFFFFFFE0},
	}
	uops := Lower(ins)
	if len(uops) != 3 {
		t.Fatalf("lowered to %d uops, want 3: %+v", len(uops), uops)
	}
	if uops[1].Kind != UCmpJccRI || uops[1].N != 2 {
		t.Errorf("mid-stream cmp+jcc = %+v", uops[1])
	}
	if uops[2].Kind != UAluJmp || uops[2].Op != OpAdd || uops[2].N != 2 {
		t.Errorf("alu+jmp back edge = %+v", uops[2])
	}
	if got := retired(uops); got != len(ins) {
		t.Errorf("retired %d instructions, want %d", got, len(ins))
	}
}

func TestLowerFusesMemMove(t *testing.T) {
	fusable := []Instruction{
		{Op: OpLdb, Mode: ModeRX, Dst: EAX, Src: ESI, Imm: uint32(ECX)},
		{Op: OpStb, Mode: ModeXR, Dst: EDI, Src: EAX, Imm: uint32(ECX)},
	}
	uops := Lower(fusable)
	if len(uops) != 1 || uops[0].Kind != UMemMoveB || uops[0].N != 2 {
		t.Fatalf("memcpy body not fused: %+v", uops)
	}
	u := uops[0]
	if u.A != 4 || u.B != 2 || u.C != 5 || u.D != 2 || u.Imm != 0 {
		t.Errorf("memmove operands = %+v", u)
	}

	// A store of a different register than the load's destination must
	// not fuse: the intermediate value is observable.
	unfusable := []Instruction{
		{Op: OpLdb, Mode: ModeRX, Dst: EAX, Src: ESI, Imm: uint32(ECX)},
		{Op: OpStb, Mode: ModeXR, Dst: EDI, Src: EBX, Imm: uint32(ECX)},
	}
	if uops := Lower(unfusable); len(uops) != 2 {
		t.Errorf("mismatched data reg fused anyway: %+v", uops)
	}
}

// An ALU in register form before a JMP must not fuse (its taint effect is
// a union, not "unchanged"), and neither may a register-indirect JMP.
func TestLowerAluJmpGuards(t *testing.T) {
	regAlu := []Instruction{
		{Op: OpAdd, Mode: ModeRR, Dst: EAX, Src: EBX},
		{Op: OpJmp, Mode: ModeRel, Imm: 8},
	}
	if uops := Lower(regAlu); len(uops) != 2 {
		t.Errorf("reg-reg alu fused with jmp: %+v", uops)
	}
	regJmp := []Instruction{
		{Op: OpAdd, Mode: ModeRI, Dst: EAX, Imm: 1},
		{Op: OpJmp, Mode: ModeRR, Dst: EDI},
	}
	if uops := Lower(regJmp); len(uops) != 2 {
		t.Errorf("alu fused with register-indirect jmp: %+v", uops)
	}
}
