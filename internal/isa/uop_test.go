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

// A memcpy body's LDB/STB pair has no superinstruction: through one data
// register or through two, it lowers to a ULoad and a UStore that retire
// one instruction each.
func TestLowerFusesMemMove(t *testing.T) {
	cases := []struct {
		name string
		ins  []Instruction
		want []Uop
	}{
		{"memcpy pair", []Instruction{ldbIdx(EAX, ESI, ECX), stbIdx(EDI, ECX, EAX)},
			[]Uop{{Kind: ULoad, A: 0, B: 4, C: 2, Size: 1, N: 1}, {Kind: UStore, A: 0, B: 5, C: 2, Size: 1, N: 1}}},
		{"ldb, stb of another register", []Instruction{ldbIdx(EAX, ESI, ECX), stbIdx(EDI, ECX, EBX)},
			[]Uop{{Kind: ULoad, A: 0, B: 4, C: 2, Size: 1, N: 1}, {Kind: UStore, A: 1, B: 5, C: 2, Size: 1, N: 1}}},
	}
	for _, tc := range cases {
		got := Lower(tc.ins)
		if len(got) != len(tc.want) {
			t.Errorf("%s: lowered to %+v, want %+v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: uop %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
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

// Shorthands for the wide-fusion tables.
func movi(r Reg, v uint32) Instruction { return Instruction{Op: OpMov, Mode: ModeRI, Dst: r, Imm: v} }
func ldbIdx(dst, base, idx Reg) Instruction {
	return Instruction{Op: OpLdb, Mode: ModeRX, Dst: dst, Src: base, Imm: uint32(idx)}
}
func stbIdx(base, idx, src Reg) Instruction {
	return Instruction{Op: OpStb, Mode: ModeXR, Dst: base, Src: src, Imm: uint32(idx)}
}
func aluRR(op Op, dst, src Reg) Instruction {
	return Instruction{Op: op, Mode: ModeRR, Dst: dst, Src: src}
}
func aluRI(op Op, dst Reg, v uint32) Instruction {
	return Instruction{Op: op, Mode: ModeRI, Dst: dst, Imm: v}
}

// TestLowerWideMemory pins which MOVI/access/ALU sequences lower to one
// wide micro-op and which stay apart.
func TestLowerWideMemory(t *testing.T) {
	cases := []struct {
		name string
		ins  []Instruction
		want []Uop
	}{
		{"movi base, ldb indexed", []Instruction{movi(ESI, 0x5000), ldbIdx(EAX, ESI, ECX)},
			[]Uop{{Kind: UMoviLoad, A: 0, B: 4, C: 2, Size: 1, Imm2: 0x5000, N: 2}}},
		{"movi base, ld displacement", []Instruction{movi(EBX, 0x5000), {Op: OpLd, Mode: ModeRM, Dst: EAX, Src: EBX, Imm: 8}},
			[]Uop{{Kind: UMoviLoad, A: 0, B: 1, C: NoIdx, Size: 4, Imm: 8, Imm2: 0x5000, N: 2}}},
		{"movi base, stb indexed", []Instruction{movi(ESI, 0x6000), stbIdx(ESI, ECX, EAX)},
			[]Uop{{Kind: UMoviStore, A: 0, B: 4, C: 2, Size: 1, Imm2: 0x6000, N: 2}}},
		{"movi base, st displacement", []Instruction{movi(EDI, 0x6000), {Op: OpSt, Mode: ModeMR, Dst: EDI, Src: EDX, Imm: 4}},
			[]Uop{{Kind: UMoviStore, A: 3, B: 5, C: NoIdx, Size: 4, Imm: 4, Imm2: 0x6000, N: 2}}},
		{"movi base == index", []Instruction{movi(EBP, 0x2800), ldbIdx(EAX, EBP, EBP)},
			[]Uop{{Kind: UMoviLoad, A: 0, B: 6, C: 6, Size: 1, Imm2: 0x2800, N: 2}}},
		{"movi base, store of the base", []Instruction{movi(EAX, 0x6000), stbIdx(EAX, ECX, EAX)},
			[]Uop{{Kind: UMoviStore, A: 0, B: 0, C: 2, Size: 1, Imm2: 0x6000, N: 2}}},
		{"movi into another register", []Instruction{movi(EBX, 7), ldbIdx(EAX, ESI, ECX)},
			[]Uop{{Kind: UMovRI, A: 1, Imm: 7, N: 1}, {Kind: ULoad, A: 0, B: 4, C: 2, Size: 1, N: 1}}},
		{"movi into the index", []Instruction{movi(ECX, 7), ldbIdx(EAX, ESI, ECX)},
			[]Uop{{Kind: UMovRI, A: 2, Imm: 7, N: 1}, {Kind: ULoad, A: 0, B: 4, C: 2, Size: 1, N: 1}}},
		{"movi into the stored register", []Instruction{movi(EAX, 7), stbIdx(ESI, ECX, EAX)},
			[]Uop{{Kind: UMovRI, A: 0, Imm: 7, N: 1}, {Kind: UStore, A: 0, B: 4, C: 2, Size: 1, N: 1}}},
		{"mov rr into the base", []Instruction{aluRR(OpMov, ESI, EDI), ldbIdx(EAX, ESI, ECX)},
			[]Uop{{Kind: UMovRR, A: 4, B: 5, N: 1}, {Kind: ULoad, A: 0, B: 4, C: 2, Size: 1, N: 1}}},
		{"ldb, xori on it", []Instruction{ldbIdx(EAX, ESI, ECX), aluRI(OpXor, EAX, 0x5A)},
			[]Uop{{Kind: ULoad, Op: OpXor, A: 0, B: 4, C: 2, D: NoIdx, Size: 1, Imm: 0x5A, N: 2}}},
		{"ldb, add from it", []Instruction{ldbIdx(EAX, ESI, ECX), aluRR(OpAdd, EDX, EAX)},
			[]Uop{{Kind: ULoad, Op: OpAdd, A: 0, B: 4, C: 2, D: 3, Size: 1, N: 2}}},
		{"Table V copy load", []Instruction{movi(ESI, 0x5000), ldbIdx(EAX, ESI, ECX), aluRI(OpXor, EAX, 0x5A)},
			[]Uop{{Kind: UMoviLoad, Op: OpXor, A: 0, B: 4, C: 2, D: NoIdx, Size: 1, Imm: 0x5A, Imm2: 0x5000, N: 3}}},
		{"Table V accumulate load", []Instruction{movi(ESI, 0x6000), ldbIdx(EAX, ESI, ECX), aluRR(OpAdd, EDX, EAX)},
			[]Uop{{Kind: UMoviLoad, Op: OpAdd, A: 0, B: 4, C: 2, D: 3, Size: 1, Imm2: 0x6000, N: 3}}},
		{"ld displacement, addi: Imm is taken", []Instruction{{Op: OpLd, Mode: ModeRM, Dst: EAX, Src: EBX, Imm: 8}, aluRI(OpAdd, EAX, 1)},
			[]Uop{{Kind: ULoad, A: 0, B: 1, C: NoIdx, Size: 4, Imm: 8, N: 1}, {Kind: UAluRI, Op: OpAdd, A: 0, Imm: 1, N: 1}}},
		{"ldb, xori on another register", []Instruction{ldbIdx(EAX, ESI, ECX), aluRI(OpXor, EBX, 1)},
			[]Uop{{Kind: ULoad, A: 0, B: 4, C: 2, Size: 1, N: 1}, {Kind: UAluRI, Op: OpXor, A: 1, Imm: 1, N: 1}}},
		{"ldb, xor clear", []Instruction{ldbIdx(EAX, ESI, ECX), aluRR(OpXor, EAX, EAX)},
			[]Uop{{Kind: ULoad, A: 0, B: 4, C: 2, Size: 1, N: 1}, {Kind: UXorClear, A: 0, N: 1}}},
		{"ldb, add into it from another", []Instruction{ldbIdx(EAX, ESI, ECX), aluRR(OpAdd, EAX, EDX)},
			[]Uop{{Kind: ULoad, A: 0, B: 4, C: 2, Size: 1, N: 1}, {Kind: UAluRR, Op: OpAdd, A: 0, B: 3, N: 1}}},
		{"ldb, add it to itself", []Instruction{ldbIdx(EAX, ESI, ECX), aluRR(OpAdd, EAX, EAX)},
			[]Uop{{Kind: ULoad, A: 0, B: 4, C: 2, Size: 1, N: 1}, {Kind: UAluRR, Op: OpAdd, A: 0, B: 0, N: 1}}},
		{"ldb, not", []Instruction{ldbIdx(EAX, ESI, ECX), {Op: OpNot, Mode: ModeRR, Dst: EAX}},
			[]Uop{{Kind: ULoad, A: 0, B: 4, C: 2, Size: 1, N: 1}, {Kind: UNot, A: 0, N: 1}}},
		{"stb, xori on its register", []Instruction{stbIdx(ESI, ECX, EAX), aluRI(OpXor, EAX, 1)},
			[]Uop{{Kind: UStore, A: 0, B: 4, C: 2, Size: 1, N: 1}, {Kind: UAluRI, Op: OpXor, A: 0, Imm: 1, N: 1}}},
		{"movi before a memcpy pair", []Instruction{movi(ESI, 0x5000), ldbIdx(EAX, ESI, ECX), stbIdx(EDI, ECX, EAX)},
			[]Uop{{Kind: UMoviLoad, A: 0, B: 4, C: 2, Size: 1, Imm2: 0x5000, N: 2}, {Kind: UStore, A: 0, B: 5, C: 2, Size: 1, N: 1}}},
		{"Table V copy body", []Instruction{movi(ESI, 0x5000), ldbIdx(EAX, ESI, ECX), aluRI(OpXor, EAX, 0x5A), movi(ESI, 0x6000), stbIdx(ESI, ECX, EAX)},
			[]Uop{
				{Kind: UMoviLoad, Op: OpXor, A: 0, B: 4, C: 2, D: NoIdx, Size: 1, Imm: 0x5A, Imm2: 0x5000, N: 3},
				{Kind: UMoviStore, A: 0, B: 4, C: 2, Size: 1, Imm2: 0x6000, N: 2},
			}},
	}
	for _, tc := range cases {
		got := Lower(tc.ins)
		if len(got) != len(tc.want) {
			t.Errorf("%s: lowered to %+v, want %+v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: uop %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
		if n := retired(got); n != len(tc.ins) {
			t.Errorf("%s: retired %d instructions, want %d", tc.name, n, len(tc.ins))
		}
	}
}
