package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse assembles FAROS-32 text source into a Block. The syntax is one
// instruction, label, or directive per line:
//
//	loop:                     ; labels end with ':'
//	  MOV EAX, 0x10           ; immediate load
//	  MOV EAX, EBX            ; register copy
//	  LD  EAX, [EBX+0x4]      ; load (also LDB; [EBX+ECX] indexed form)
//	  ST  [EBP+0x8], ECX      ; store (also STB)
//	  ADD EAX, EBX            ; ALU ops take a register or immediate
//	  CMP EAX, 0x5
//	  JNZ loop                ; jumps/calls take a label or absolute hex
//	  CALL ESI                ; register-indirect call
//	  PUSH EAX                ; PUSH also takes an immediate
//	  SYSCALL
//	  .ascii "hi there"       ; NUL-terminated string data
//	  .word 0xDEADBEEF        ; 32-bit little-endian data
//	  .space 16               ; zero bytes
//	  .align 8                ; pad to alignment
//
// Comments start with ';' or '#'. Register names are case-insensitive, as
// are mnemonics.
func Parse(src string) (*Block, error) {
	b := NewBlock()
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := parseLine(b, line); err != nil {
			return nil, fmt.Errorf("isa: line %d: %w", lineNo+1, err)
		}
	}
	return b, nil
}

func stripComment(line string) string {
	for _, c := range []string{";", "#"} {
		if i := strings.Index(line, c); i >= 0 {
			line = line[:i]
		}
	}
	return line
}

var regByName = map[string]Reg{
	"EAX": EAX, "EBX": EBX, "ECX": ECX, "EDX": EDX,
	"ESI": ESI, "EDI": EDI, "EBP": EBP, "ESP": ESP,
}

func parseReg(s string) (Reg, bool) {
	r, ok := regByName[strings.ToUpper(strings.TrimSpace(s))]
	return r, ok
}

func parseImm(s string) (uint32, error) {
	s = strings.TrimSpace(s)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	out := uint32(v)
	if neg {
		out = uint32(-int32(v))
	}
	return out, nil
}

// memOperand is a parsed [base+off] or [base+idx] reference.
type memOperand struct {
	base    Reg
	idx     Reg
	off     uint32
	indexed bool
}

func parseMem(s string) (memOperand, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return memOperand{}, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	parts := strings.SplitN(inner, "+", 2)
	base, ok := parseReg(parts[0])
	if !ok {
		return memOperand{}, fmt.Errorf("bad base register %q", parts[0])
	}
	m := memOperand{base: base}
	if len(parts) == 1 {
		return m, nil
	}
	if idx, ok := parseReg(parts[1]); ok {
		m.idx = idx
		m.indexed = true
		return m, nil
	}
	off, err := parseImm(parts[1])
	if err != nil {
		return memOperand{}, err
	}
	m.off = off
	return m, nil
}

// splitOperands splits on commas not inside brackets or quotes.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// aluEmitters maps mnemonics to their RR and RI builder methods.
var aluOps = map[string]struct {
	rr func(*Block, Reg, Reg) *Block
	ri func(*Block, Reg, uint32) *Block
}{
	"ADD": {(*Block).Add, (*Block).Addi},
	"SUB": {(*Block).Sub, (*Block).Subi},
	"AND": {(*Block).And, (*Block).Andi},
	"OR":  {(*Block).Or, (*Block).Ori},
	"XOR": {(*Block).Xor, (*Block).Xori},
	"MUL": {(*Block).Mul, (*Block).Muli},
	"SHL": {(*Block).Shl, (*Block).Shli},
	"SHR": {(*Block).Shr, (*Block).Shri},
	"CMP": {(*Block).Cmp, (*Block).Cmpi},
}

var jumpOps = map[string]func(*Block, string) *Block{
	"JMP": (*Block).Jmp, "JZ": (*Block).Jz, "JNZ": (*Block).Jnz,
	"JL": (*Block).Jl, "JG": (*Block).Jg, "JLE": (*Block).Jle, "JGE": (*Block).Jge,
}

func parseLine(b *Block, line string) error {
	// Label?
	if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
		b.Label(strings.TrimSuffix(line, ":"))
		return nil
	}
	// Directive?
	if strings.HasPrefix(line, ".") {
		return parseDirective(b, line)
	}

	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	mnemonic = strings.ToUpper(mnemonic)
	ops := []string{}
	if rest != "" {
		ops = splitOperands(rest)
	}

	switch mnemonic {
	case "NOP":
		b.Nop()
	case "HLT":
		b.Hlt()
	case "RET":
		b.Ret()
	case "SYSCALL":
		b.Syscall()
	case "NOT":
		if len(ops) != 1 {
			return fmt.Errorf("NOT needs one operand")
		}
		r, ok := parseReg(ops[0])
		if !ok {
			return fmt.Errorf("NOT needs a register")
		}
		b.Not(r)
	case "PUSH":
		if len(ops) != 1 {
			return fmt.Errorf("PUSH needs one operand")
		}
		if r, ok := parseReg(ops[0]); ok {
			b.Push(r)
		} else {
			imm, err := parseImm(ops[0])
			if err != nil {
				return err
			}
			b.Pushi(imm)
		}
	case "POP":
		if len(ops) != 1 {
			return fmt.Errorf("POP needs one operand")
		}
		r, ok := parseReg(ops[0])
		if !ok {
			return fmt.Errorf("POP needs a register")
		}
		b.Pop(r)
	case "MOV":
		if len(ops) != 2 {
			return fmt.Errorf("MOV needs two operands")
		}
		dst, ok := parseReg(ops[0])
		if !ok {
			return fmt.Errorf("MOV destination %q", ops[0])
		}
		if src, ok := parseReg(ops[1]); ok {
			b.Mov(dst, src)
		} else {
			imm, err := parseImm(ops[1])
			if err != nil {
				return err
			}
			b.Movi(dst, imm)
		}
	case "LD", "LDB":
		if len(ops) != 2 {
			return fmt.Errorf("%s needs two operands", mnemonic)
		}
		dst, ok := parseReg(ops[0])
		if !ok {
			return fmt.Errorf("%s destination %q", mnemonic, ops[0])
		}
		m, err := parseMem(ops[1])
		if err != nil {
			return err
		}
		switch {
		case mnemonic == "LD" && m.indexed:
			b.LdIdx(dst, m.base, m.idx)
		case mnemonic == "LD":
			b.Ld(dst, m.base, m.off)
		case m.indexed:
			b.LdbIdx(dst, m.base, m.idx)
		default:
			b.Ldb(dst, m.base, m.off)
		}
	case "ST", "STB":
		if len(ops) != 2 {
			return fmt.Errorf("%s needs two operands", mnemonic)
		}
		m, err := parseMem(ops[0])
		if err != nil {
			return err
		}
		src, ok := parseReg(ops[1])
		if !ok {
			return fmt.Errorf("%s source %q", mnemonic, ops[1])
		}
		switch {
		case mnemonic == "ST" && m.indexed:
			b.StIdx(m.base, m.idx, src)
		case mnemonic == "ST":
			b.St(m.base, m.off, src)
		case m.indexed:
			b.StbIdx(m.base, m.idx, src)
		default:
			b.Stb(m.base, m.off, src)
		}
	case "CALL":
		if len(ops) != 1 {
			return fmt.Errorf("CALL needs one operand")
		}
		if r, ok := parseReg(ops[0]); ok {
			b.CallReg(r)
		} else if imm, err := parseImm(ops[0]); err == nil {
			b.CallAbs(imm)
		} else {
			b.Call(ops[0])
		}
	default:
		if alu, ok := aluOps[mnemonic]; ok {
			if len(ops) != 2 {
				return fmt.Errorf("%s needs two operands", mnemonic)
			}
			dst, okr := parseReg(ops[0])
			if !okr {
				return fmt.Errorf("%s destination %q", mnemonic, ops[0])
			}
			if src, okr := parseReg(ops[1]); okr {
				alu.rr(b, dst, src)
			} else {
				imm, err := parseImm(ops[1])
				if err != nil {
					return err
				}
				alu.ri(b, dst, imm)
			}
			return nil
		}
		if jump, ok := jumpOps[mnemonic]; ok {
			if len(ops) != 1 {
				return fmt.Errorf("%s needs one operand", mnemonic)
			}
			if r, ok := parseReg(ops[0]); ok && mnemonic == "JMP" {
				b.JmpReg(r)
			} else if imm, err := parseImm(ops[0]); err == nil {
				b.Raw(Instruction{Op: opForJump(mnemonic), Mode: ModeRI, Imm: imm})
			} else {
				jump(b, ops[0])
			}
			return nil
		}
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	return nil
}

func opForJump(mnemonic string) Op {
	switch mnemonic {
	case "JMP":
		return OpJmp
	case "JZ":
		return OpJz
	case "JNZ":
		return OpJnz
	case "JL":
		return OpJl
	case "JG":
		return OpJg
	case "JLE":
		return OpJle
	case "JGE":
		return OpJge
	}
	return OpNop
}

// maxPadBytes bounds the program that .space and .align may grow: they
// take a 32-bit count, and a source line must not allocate gigabytes.
const maxPadBytes = 1 << 20

func parseDirective(b *Block, line string) error {
	fields := strings.SplitN(line, " ", 2)
	dir := strings.ToLower(fields[0])
	arg := ""
	if len(fields) > 1 {
		arg = strings.TrimSpace(fields[1])
	}
	switch dir {
	case ".ascii":
		s, err := strconv.Unquote(arg)
		if err != nil {
			return fmt.Errorf(".ascii needs a quoted string: %w", err)
		}
		b.DataString(s)
	case ".word":
		v, err := parseImm(arg)
		if err != nil {
			return err
		}
		b.Word(v)
	case ".space":
		n, err := parseImm(arg)
		if err != nil {
			return err
		}
		if uint64(b.Len())+uint64(n) > maxPadBytes {
			return fmt.Errorf(".space %d grows the program past %d bytes", n, maxPadBytes)
		}
		b.Space(int(n))
	case ".align":
		n, err := parseImm(arg)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf(".align 0")
		}
		if uint64(b.Len())+uint64(n) > maxPadBytes {
			return fmt.Errorf(".align %d may grow the program past %d bytes", n, maxPadBytes)
		}
		b.Align(int(n))
	default:
		return fmt.Errorf("unknown directive %q", dir)
	}
	return nil
}
