// Package isa defines FAROS-32, the 32-bit instruction set architecture
// executed by the whole-system virtual machine.
//
// FAROS-32 stands in for x86 in this reproduction: it is a small
// register-based ISA with a fixed 8-byte instruction encoding, byte-
// addressable memory, and byte/word loads and stores. The fixed encoding
// keeps decoding trivial, which matters because injected payloads are raw
// machine-code blobs that must be assembled, copied between address spaces,
// disassembled for reports, and scanned by the malfind baseline.
//
// Every instruction is encoded as:
//
//	byte 0   opcode
//	byte 1   addressing mode
//	byte 2   destination register
//	byte 3   source register
//	byte 4-7 32-bit immediate (little endian)
package isa

import (
	"encoding/binary"
	"fmt"
)

// InstrSize is the fixed size in bytes of every encoded instruction.
const InstrSize = 8

// Reg names a general-purpose register. FAROS-32 has eight, aliased to the
// x86 names used throughout the paper's figures.
type Reg uint8

// General-purpose registers. ESP is the stack pointer used implicitly by
// PUSH, POP, CALL, and RET.
const (
	EAX Reg = 0
	EBX Reg = 1
	ECX Reg = 2
	EDX Reg = 3
	ESI Reg = 4
	EDI Reg = 5
	EBP Reg = 6
	ESP Reg = 7

	// NumRegs is the number of general-purpose registers.
	NumRegs = 8
)

var regNames = [NumRegs]string{"EAX", "EBX", "ECX", "EDX", "ESI", "EDI", "EBP", "ESP"}

// String returns the conventional register name.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("R?%d", uint8(r))
}

// Valid reports whether r names an existing register.
func (r Reg) Valid() bool { return r < NumRegs }

// Op is an instruction opcode.
type Op uint8

// Opcodes. The groupings matter to the DIFT engine: MOV/LD/ST/PUSH/POP are
// copy operations, the ALU group unions taint, and MOVI / XOR r,r delete it
// (paper Table I).
const (
	OpNop Op = iota + 1
	OpHlt
	OpMov // RR copy, RI immediate load (taint delete)
	OpLd  // 32-bit load: RM dst←mem[src+imm], RX dst←mem[src+reg(imm)]
	OpSt  // 32-bit store: MR mem[dst+imm]←src, XR mem[dst+reg(imm)]←src
	OpLdb // byte load (zero-extended)
	OpStb // byte store (low byte)
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpMul
	OpShl
	OpShr
	OpNot // unary, RR with src ignored
	OpCmp // sets flags; RR or RI
	OpJmp
	OpJz
	OpJnz
	OpJl
	OpJg
	OpJle
	OpJge
	OpCall // RI/Rel: push return address and jump; RR: call through register
	OpRet
	OpPush
	OpPop
	OpSyscall

	opMax // sentinel; keep last
)

var opNames = map[Op]string{
	OpNop: "NOP", OpHlt: "HLT", OpMov: "MOV", OpLd: "LD", OpSt: "ST",
	OpLdb: "LDB", OpStb: "STB", OpAdd: "ADD", OpSub: "SUB", OpAnd: "AND",
	OpOr: "OR", OpXor: "XOR", OpMul: "MUL", OpShl: "SHL", OpShr: "SHR",
	OpNot: "NOT", OpCmp: "CMP", OpJmp: "JMP", OpJz: "JZ", OpJnz: "JNZ",
	OpJl: "JL", OpJg: "JG", OpJle: "JLE", OpJge: "JGE", OpCall: "CALL",
	OpRet: "RET", OpPush: "PUSH", OpPop: "POP", OpSyscall: "SYSCALL",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OP?%d", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o >= OpNop && o < opMax }

// IsJump reports whether o may transfer control.
func (o Op) IsJump() bool {
	switch o {
	case OpJmp, OpJz, OpJnz, OpJl, OpJg, OpJle, OpJge, OpCall, OpRet:
		return true
	}
	return false
}

// IsCondJump reports whether o is a conditional branch.
func (o Op) IsCondJump() bool {
	switch o {
	case OpJz, OpJnz, OpJl, OpJg, OpJle, OpJge:
		return true
	}
	return false
}

// Mode is an instruction addressing mode.
type Mode uint8

// Addressing modes.
const (
	ModeRR   Mode = iota + 1 // dst reg, src reg
	ModeRI                   // dst reg, immediate
	ModeRM                   // dst reg ← mem[src reg + imm]
	ModeMR                   // mem[dst reg + imm] ← src reg
	ModeRX                   // dst reg ← mem[src reg + reg(imm&7)]
	ModeXR                   // mem[dst reg + reg(imm&7)] ← src reg
	ModeRel                  // imm is a signed offset from the next instruction
	ModeNone                 // no operands

	modeMax // sentinel; keep last
)

var modeNames = map[Mode]string{
	ModeRR: "RR", ModeRI: "RI", ModeRM: "RM", ModeMR: "MR",
	ModeRX: "RX", ModeXR: "XR", ModeRel: "REL", ModeNone: "NONE",
}

// String returns a short mode name.
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("MODE?%d", uint8(m))
}

// Valid reports whether m is a defined mode.
func (m Mode) Valid() bool { return m >= ModeRR && m < modeMax }

// Instruction is a decoded FAROS-32 instruction.
type Instruction struct {
	Op   Op
	Mode Mode
	Dst  Reg
	Src  Reg
	Imm  uint32
}

// IndexReg returns the index register encoded in the immediate for the RX
// and XR modes.
func (in Instruction) IndexReg() Reg { return Reg(in.Imm & 0x7) }

// RelOffset returns the immediate interpreted as a signed relative offset
// (ModeRel).
func (in Instruction) RelOffset() int32 { return int32(in.Imm) }

// Encode writes the 8-byte encoding of the instruction into buf, which must
// be at least InstrSize bytes long.
func (in Instruction) Encode(buf []byte) {
	_ = buf[InstrSize-1]
	buf[0] = byte(in.Op)
	buf[1] = byte(in.Mode)
	buf[2] = byte(in.Dst)
	buf[3] = byte(in.Src)
	binary.LittleEndian.PutUint32(buf[4:8], in.Imm)
}

// Decode parses the instruction encoded at the start of buf. It returns an
// error when buf is too short or the encoding is not a valid instruction;
// the CPU surfaces that error as an illegal-instruction fault.
func Decode(buf []byte) (Instruction, error) {
	if len(buf) < InstrSize {
		return Instruction{}, fmt.Errorf("isa: truncated instruction: %d bytes", len(buf))
	}
	in := Instruction{
		Op:   Op(buf[0]),
		Mode: Mode(buf[1]),
		Dst:  Reg(buf[2]),
		Src:  Reg(buf[3]),
		Imm:  binary.LittleEndian.Uint32(buf[4:8]),
	}
	if err := in.Validate(); err != nil {
		return Instruction{}, err
	}
	return in, nil
}

// modeSets for Validate.
var validModes = map[Op][]Mode{
	OpNop:     {ModeNone},
	OpHlt:     {ModeNone},
	OpMov:     {ModeRR, ModeRI},
	OpLd:      {ModeRM, ModeRX},
	OpLdb:     {ModeRM, ModeRX},
	OpSt:      {ModeMR, ModeXR},
	OpStb:     {ModeMR, ModeXR},
	OpAdd:     {ModeRR, ModeRI},
	OpSub:     {ModeRR, ModeRI},
	OpAnd:     {ModeRR, ModeRI},
	OpOr:      {ModeRR, ModeRI},
	OpXor:     {ModeRR, ModeRI},
	OpMul:     {ModeRR, ModeRI},
	OpShl:     {ModeRR, ModeRI},
	OpShr:     {ModeRR, ModeRI},
	OpNot:     {ModeRR},
	OpCmp:     {ModeRR, ModeRI},
	OpJmp:     {ModeRI, ModeRel, ModeRR},
	OpJz:      {ModeRI, ModeRel},
	OpJnz:     {ModeRI, ModeRel},
	OpJl:      {ModeRI, ModeRel},
	OpJg:      {ModeRI, ModeRel},
	OpJle:     {ModeRI, ModeRel},
	OpJge:     {ModeRI, ModeRel},
	OpCall:    {ModeRI, ModeRel, ModeRR},
	OpRet:     {ModeNone},
	OpPush:    {ModeRR, ModeRI},
	OpPop:     {ModeRR},
	OpSyscall: {ModeNone},
}

// Validate reports whether the instruction is a legal op/mode/register
// combination.
func (in Instruction) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if !in.Mode.Valid() {
		return fmt.Errorf("isa: invalid mode %d for %s", uint8(in.Mode), in.Op)
	}
	modes, ok := validModes[in.Op]
	if !ok {
		return fmt.Errorf("isa: opcode %s has no mode table", in.Op)
	}
	found := false
	for _, m := range modes {
		if m == in.Mode {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("isa: mode %s not valid for %s", in.Mode, in.Op)
	}
	if !in.Dst.Valid() || !in.Src.Valid() {
		return fmt.Errorf("isa: invalid register in %s (dst=%d src=%d)", in.Op, in.Dst, in.Src)
	}
	return nil
}

// LooksLikeCode reports whether buf begins with a plausible run of valid
// instructions. The malfind baseline uses this heuristic to decide whether a
// private executable region contains injected code. minRun is the number of
// consecutive valid instructions required.
func LooksLikeCode(buf []byte, minRun int) bool {
	run := 0
	for off := 0; off+InstrSize <= len(buf) && run < minRun; off += InstrSize {
		if _, err := Decode(buf[off : off+InstrSize]); err != nil {
			return false
		}
		run++
	}
	return run >= minRun
}
