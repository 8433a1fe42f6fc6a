package taint

import (
	"testing"

	"faros/internal/isa"
)

// TestSummarizeUopsCountsWideKinds: a wide memory micro-op counts as the
// one load or store it performs; its folded MOVI and ALU op touch no
// memory.
func TestSummarizeUopsCountsWideKinds(t *testing.T) {
	cases := []struct {
		name string
		ins  []isa.Instruction
		want BlockEffects
	}{
		{"movi+ldb+xori", []isa.Instruction{
			{Op: isa.OpMov, Mode: isa.ModeRI, Dst: isa.ESI, Imm: 0x5000},
			{Op: isa.OpLdb, Mode: isa.ModeRX, Dst: isa.EAX, Src: isa.ESI, Imm: uint32(isa.ECX)},
			{Op: isa.OpXor, Mode: isa.ModeRI, Dst: isa.EAX, Imm: 0x5A},
		}, BlockEffects{MemUops: 1, LoadInstrs: 1}},
		{"movi+ld", []isa.Instruction{
			{Op: isa.OpMov, Mode: isa.ModeRI, Dst: isa.EBX, Imm: 0x5000},
			{Op: isa.OpLd, Mode: isa.ModeRM, Dst: isa.EAX, Src: isa.EBX, Imm: 8},
		}, BlockEffects{MemUops: 1, LoadInstrs: 1}},
		{"ldb+add", []isa.Instruction{
			{Op: isa.OpLdb, Mode: isa.ModeRX, Dst: isa.EAX, Src: isa.ESI, Imm: uint32(isa.ECX)},
			{Op: isa.OpAdd, Mode: isa.ModeRR, Dst: isa.EDX, Src: isa.EAX},
		}, BlockEffects{MemUops: 1, LoadInstrs: 1}},
		{"movi+stb", []isa.Instruction{
			{Op: isa.OpMov, Mode: isa.ModeRI, Dst: isa.ESI, Imm: 0x6000},
			{Op: isa.OpStb, Mode: isa.ModeXR, Dst: isa.ESI, Src: isa.EAX, Imm: uint32(isa.ECX)},
		}, BlockEffects{MemUops: 1, StoreUops: 1}},
		{"movi alone", []isa.Instruction{
			{Op: isa.OpMov, Mode: isa.ModeRI, Dst: isa.ESI, Imm: 0x6000},
		}, BlockEffects{RegOnly: true}},
	}
	for _, tc := range cases {
		uops := isa.Lower(tc.ins)
		if len(uops) != 1 {
			t.Fatalf("%s: lowered to %d micro-ops, want one wide one: %+v", tc.name, len(uops), uops)
		}
		if got := SummarizeUops(uops); got != tc.want {
			t.Errorf("%s: SummarizeUops = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
