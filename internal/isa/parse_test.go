package isa

import (
	"strings"
	"testing"
)

// MustParse is Parse panicking on error, for test-covered fixtures.
func MustParse(src string) *Block {
	b, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return b
}

func TestParseFullProgram(t *testing.T) {
	src := `
; sum 1..5 into EAX
start:
  MOV EAX, 0
  MOV ECX, 1
loop:
  CMP ECX, 5
  JG done
  ADD EAX, ECX
  ADD ECX, 1
  JMP loop
done:
  HLT
`
	b, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	code, err := b.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check: first instruction MOV EAX, 0; the JG resolves forward.
	in := decodeAt(t, code, 0)
	if in.Op != OpMov || in.Mode != ModeRI || in.Dst != EAX {
		t.Errorf("first = %+v", in)
	}
	jg := decodeAt(t, code, 3*InstrSize)
	if jg.Op != OpJg || jg.Mode != ModeRel || jg.RelOffset() != 3*InstrSize {
		t.Errorf("JG = %+v off=%d", jg, jg.RelOffset())
	}
}

// TestParseRoundTripThroughDisasm parses a program, disassembles it, and
// re-parses the disassembly: the encodings must match.
func TestParseRoundTripThroughDisasm(t *testing.T) {
	src := `
  MOV EAX, 0x10
  MOV EBX, EAX
  LD ECX, [EAX+0x4]
  LD ECX, [EAX+EBX]
  LDB EDX, [EAX]
  ST [EBP+0x8], ECX
  STB [EBP+ECX], EDX
  ADD EAX, 0x3
  XOR EAX, EAX
  NOT EBX
  PUSH EAX
  PUSH 0x7
  POP EBX
  CALL ESI
  SYSCALL
  RET
`
	b := MustParse(src)
	code := b.MustAssemble(0)
	dis := DisasmBytes(code, 0)
	// Strip the address column for re-parsing.
	var cleaned []string
	for _, line := range strings.Split(strings.TrimSpace(dis), "\n") {
		parts := strings.SplitN(line, "  ", 2)
		cleaned = append(cleaned, parts[1])
	}
	b2, err := Parse(strings.Join(cleaned, "\n"))
	if err != nil {
		t.Fatalf("re-parse of disassembly: %v\n%s", err, dis)
	}
	code2 := b2.MustAssemble(0)
	if string(code) != string(code2) {
		t.Errorf("round trip differs:\n%s\nvs\n%s", DisasmBytes(code, 0), DisasmBytes(code2, 0))
	}
}

func TestParseDirectives(t *testing.T) {
	src := `
msg:
  .ascii "hi"
  .align 8
  .word 0x11223344
  .space 4
code:
  MOV EAX, 0
`
	b := MustParse(src)
	code := b.MustAssemble(0)
	if string(code[:2]) != "hi" || code[2] != 0 {
		t.Errorf("ascii = %v", code[:3])
	}
	if code[8] != 0x44 || code[11] != 0x11 {
		t.Errorf("word = %v", code[8:12])
	}
	off, _ := b.LabelOffset("code")
	if off != 16 {
		t.Errorf("code offset = %d", off)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"BOGUS EAX",
		"MOV EAX",
		"MOV [EAX], 5",
		"LD EAX, EBX",
		"ST [EAX+0x4], 0x5",
		"PUSH",
		".ascii unquoted",
		".word zzz",
		".unknown 5",
		".align 0",
		".space 0xFFFFFFFF",
		".space 0x80000\n.space 0x80001",
		".align 0x80000000",
		"JMP",
		"NOT 0x5",
		"NOT",
		"POP",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: accepted", src)
		}
	}
}

func TestParseNegativeImmediate(t *testing.T) {
	b := MustParse("ADD EAX, -1")
	in, _ := Decode(b.MustAssemble(0))
	if in.Imm != 0xFFFFFFFF {
		t.Errorf("imm = %#x", in.Imm)
	}
}

func TestParseAbsoluteJumpAndCall(t *testing.T) {
	b := MustParse("JMP 0x2000\nCALL 0x3000\nJMP EAX")
	code := b.MustAssemble(0)
	j := decodeAt(t, code, 0)
	if j.Op != OpJmp || j.Mode != ModeRI || j.Imm != 0x2000 {
		t.Errorf("jmp = %+v", j)
	}
	c := decodeAt(t, code, InstrSize)
	if c.Op != OpCall || c.Mode != ModeRI || c.Imm != 0x3000 {
		t.Errorf("call = %+v", c)
	}
	jr := decodeAt(t, code, 2*InstrSize)
	if jr.Op != OpJmp || jr.Mode != ModeRR || jr.Dst != EAX {
		t.Errorf("jmp reg = %+v", jr)
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	b := MustParse("mov eax, 5\nadd EaX, eBx")
	code := b.MustAssemble(0)
	if in := decodeAt(t, code, 0); in.Op != OpMov || in.Dst != EAX {
		t.Errorf("lowercase mov = %+v", in)
	}
}
