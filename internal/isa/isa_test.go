package isa

import (
	"bytes"
	"testing"
	"testing/quick"
)

// EncodeBytes returns the 8-byte encoding of the instruction.
func (in Instruction) EncodeBytes() []byte {
	buf := make([]byte, InstrSize)
	in.Encode(buf)
	return buf
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []Instruction{
		{Op: OpNop, Mode: ModeNone},
		{Op: OpMov, Mode: ModeRR, Dst: EAX, Src: EBX},
		{Op: OpMov, Mode: ModeRI, Dst: ECX, Imm: 0xDEADBEEF},
		{Op: OpLd, Mode: ModeRM, Dst: EDX, Src: ESI, Imm: 0x10},
		{Op: OpLd, Mode: ModeRX, Dst: EDX, Src: ESI, Imm: uint32(EDI)},
		{Op: OpSt, Mode: ModeMR, Dst: EBP, Src: EAX, Imm: 4},
		{Op: OpStb, Mode: ModeXR, Dst: EBP, Src: EAX, Imm: uint32(ECX)},
		{Op: OpJmp, Mode: ModeRel, Imm: uint32(0xFFFFFFF8)},
		{Op: OpCall, Mode: ModeRR, Dst: ESI},
		{Op: OpSyscall, Mode: ModeNone},
		{Op: OpXor, Mode: ModeRR, Dst: EAX, Src: EAX},
	}
	for _, in := range tests {
		buf := in.EncodeBytes()
		if len(buf) != InstrSize {
			t.Fatalf("%v: encoded to %d bytes", in, len(buf))
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", in, err)
		}
		if got != in {
			t.Errorf("round trip: got %+v want %+v", got, in)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	// Any valid instruction must round-trip through its encoding.
	f := func(opRaw, modeRaw, dstRaw, srcRaw uint8, imm uint32) bool {
		in := Instruction{
			Op:   Op(opRaw%uint8(opMax-1) + 1),
			Mode: Mode(modeRaw%uint8(modeMax-1) + 1),
			Dst:  Reg(dstRaw % NumRegs),
			Src:  Reg(srcRaw % NumRegs),
			Imm:  imm,
		}
		if in.Validate() != nil {
			return true // not a legal combination; nothing to round-trip
		}
		got, err := Decode(in.EncodeBytes())
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
	}{
		{"short", []byte{1, 2, 3}},
		{"zero opcode", make([]byte, InstrSize)},
		{"bad opcode", []byte{0xFF, byte(ModeRR), 0, 0, 0, 0, 0, 0}},
		{"bad mode", []byte{byte(OpMov), 0xFF, 0, 0, 0, 0, 0, 0}},
		{"mode mismatch", Instruction{Op: OpRet, Mode: ModeRI}.EncodeBytes()},
		{"bad reg", []byte{byte(OpMov), byte(ModeRR), 9, 0, 0, 0, 0, 0}},
	}
	for _, tc := range tests {
		if _, err := Decode(tc.buf); err == nil {
			t.Errorf("%s: Decode accepted invalid encoding", tc.name)
		}
	}
}

func TestValidateModeTable(t *testing.T) {
	// Loads must not accept register-register mode, stores must not accept
	// immediate destinations, etc.
	bad := []Instruction{
		{Op: OpLd, Mode: ModeRR, Dst: EAX, Src: EBX},
		{Op: OpSt, Mode: ModeRI, Dst: EAX},
		{Op: OpSyscall, Mode: ModeRR},
		{Op: OpRet, Mode: ModeRel},
		{Op: OpNot, Mode: ModeRI, Dst: EAX},
	}
	for _, in := range bad {
		if in.Validate() == nil {
			t.Errorf("Validate accepted %s/%s", in.Op, in.Mode)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpJz.IsCondJump() || OpJmp.IsCondJump() || !OpJmp.IsJump() {
		t.Error("jump predicate broken")
	}
}

func TestLooksLikeCode(t *testing.T) {
	b := NewBlock()
	b.Movi(EAX, 1).Movi(EBX, 2).Add(EAX, EBX).Ret()
	code := b.MustAssemble(0)
	if !LooksLikeCode(code, 4) {
		t.Error("valid code not recognized")
	}
	if LooksLikeCode(code, 5) {
		t.Error("minRun beyond code length should fail")
	}
	junk := bytes.Repeat([]byte{0xAB}, 64)
	if LooksLikeCode(junk, 2) {
		t.Error("junk recognized as code")
	}
}

func TestRegString(t *testing.T) {
	if EAX.String() != "EAX" || ESP.String() != "ESP" {
		t.Errorf("unexpected names: %s %s", EAX, ESP)
	}
	if !ESP.Valid() || Reg(8).Valid() {
		t.Error("Valid broken")
	}
}
