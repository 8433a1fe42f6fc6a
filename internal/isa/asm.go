package isa

import (
	"encoding/binary"
	"fmt"
)

// fixKind says how a fixup patches the immediate field once labels resolve.
type fixKind uint8

const (
	fixRel      fixKind = iota + 1 // signed offset from the end of the instruction
	fixAbs                         // base + label offset
	fixOffset                      // raw label offset within the block
	fixDeltaImm                    // label offset, for ADD-style base+offset math
)

type fixup struct {
	at    int // byte offset of the instruction whose imm is patched
	label string
	kind  fixKind
}

// Block builds a contiguous run of code and data with label-based fixups.
// It is the assembler for FAROS-32: guest programs, kernel stubs, and
// injected payloads are all produced through it. All control flow emitted by
// the convenience methods is EIP-relative, so an assembled block is
// position-independent unless fixAbs references are used.
type Block struct {
	buf    []byte
	labels map[string]int
	fixups []fixup
	errs   []error
}

// NewBlock returns an empty Block.
func NewBlock() *Block {
	return &Block{labels: make(map[string]int)}
}

// Len returns the current size of the block in bytes.
func (b *Block) Len() int { return len(b.buf) }

// Label defines name at the current offset. Defining the same label twice is
// an error reported by Assemble.
func (b *Block) Label(name string) *Block {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("isa: duplicate label %q", name))
		return b
	}
	b.labels[name] = len(b.buf)
	return b
}

// LabelOffset returns the byte offset of a defined label.
func (b *Block) LabelOffset(name string) (int, bool) {
	off, ok := b.labels[name]
	return off, ok
}

// emit appends one encoded instruction.
func (b *Block) emit(in Instruction) *Block {
	if err := in.Validate(); err != nil {
		b.errs = append(b.errs, fmt.Errorf("isa: at offset %d: %w", len(b.buf), err))
	}
	var tmp [InstrSize]byte
	in.Encode(tmp[:])
	b.buf = append(b.buf, tmp[:]...)
	return b
}

// emitFix appends an instruction whose immediate is patched at Assemble time.
func (b *Block) emitFix(in Instruction, label string, kind fixKind) *Block {
	b.fixups = append(b.fixups, fixup{at: len(b.buf), label: label, kind: kind})
	return b.emit(in)
}

// Raw appends a pre-encoded instruction.
func (b *Block) Raw(in Instruction) *Block { return b.emit(in) }

// Data appends raw bytes (for strings, tables, embedded payloads).
func (b *Block) Data(p []byte) *Block {
	b.buf = append(b.buf, p...)
	return b
}

// DataString appends a NUL-terminated string.
func (b *Block) DataString(s string) *Block {
	b.buf = append(b.buf, s...)
	b.buf = append(b.buf, 0)
	return b
}

// Word appends a little-endian 32-bit value.
func (b *Block) Word(v uint32) *Block {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return b.Data(tmp[:])
}

// Align pads with zero bytes to the given alignment.
func (b *Block) Align(n int) *Block {
	for len(b.buf)%n != 0 {
		b.buf = append(b.buf, 0)
	}
	return b
}

// Space appends n zero bytes.
func (b *Block) Space(n int) *Block {
	b.buf = append(b.buf, make([]byte, n)...)
	return b
}

// --- data movement ---

// Movi loads an immediate (taint delete).
func (b *Block) Movi(dst Reg, imm uint32) *Block {
	return b.emit(Instruction{Op: OpMov, Mode: ModeRI, Dst: dst, Imm: imm})
}

// MoviLabel loads the block-relative offset of label as an immediate.
func (b *Block) MoviLabel(dst Reg, label string) *Block {
	return b.emitFix(Instruction{Op: OpMov, Mode: ModeRI, Dst: dst}, label, fixOffset)
}

// Mov copies src into dst.
func (b *Block) Mov(dst, src Reg) *Block {
	return b.emit(Instruction{Op: OpMov, Mode: ModeRR, Dst: dst, Src: src})
}

// Ld loads a 32-bit word: dst = mem[base+off].
func (b *Block) Ld(dst, base Reg, off uint32) *Block {
	return b.emit(Instruction{Op: OpLd, Mode: ModeRM, Dst: dst, Src: base, Imm: off})
}

// LdIdx loads a 32-bit word: dst = mem[base+idx].
func (b *Block) LdIdx(dst, base, idx Reg) *Block {
	return b.emit(Instruction{Op: OpLd, Mode: ModeRX, Dst: dst, Src: base, Imm: uint32(idx)})
}

// Ldb loads a byte, zero-extended: dst = mem8[base+off].
func (b *Block) Ldb(dst, base Reg, off uint32) *Block {
	return b.emit(Instruction{Op: OpLdb, Mode: ModeRM, Dst: dst, Src: base, Imm: off})
}

// LdbIdx loads a byte: dst = mem8[base+idx].
func (b *Block) LdbIdx(dst, base, idx Reg) *Block {
	return b.emit(Instruction{Op: OpLdb, Mode: ModeRX, Dst: dst, Src: base, Imm: uint32(idx)})
}

// St stores a 32-bit word: mem[base+off] = src.
func (b *Block) St(base Reg, off uint32, src Reg) *Block {
	return b.emit(Instruction{Op: OpSt, Mode: ModeMR, Dst: base, Src: src, Imm: off})
}

// StIdx stores a 32-bit word: mem[base+idx] = src.
func (b *Block) StIdx(base, idx, src Reg) *Block {
	return b.emit(Instruction{Op: OpSt, Mode: ModeXR, Dst: base, Src: src, Imm: uint32(idx)})
}

// Stb stores the low byte of src: mem8[base+off] = src.
func (b *Block) Stb(base Reg, off uint32, src Reg) *Block {
	return b.emit(Instruction{Op: OpStb, Mode: ModeMR, Dst: base, Src: src, Imm: off})
}

// StbIdx stores the low byte of src: mem8[base+idx] = src.
func (b *Block) StbIdx(base, idx, src Reg) *Block {
	return b.emit(Instruction{Op: OpStb, Mode: ModeXR, Dst: base, Src: src, Imm: uint32(idx)})
}

// --- arithmetic / logic ---

func (b *Block) alu(op Op, dst, src Reg) *Block {
	return b.emit(Instruction{Op: op, Mode: ModeRR, Dst: dst, Src: src})
}

func (b *Block) alui(op Op, dst Reg, imm uint32) *Block {
	return b.emit(Instruction{Op: op, Mode: ModeRI, Dst: dst, Imm: imm})
}

// Add computes dst += src.
func (b *Block) Add(dst, src Reg) *Block { return b.alu(OpAdd, dst, src) }

// Addi computes dst += imm.
func (b *Block) Addi(dst Reg, imm uint32) *Block { return b.alui(OpAdd, dst, imm) }

// Sub computes dst -= src.
func (b *Block) Sub(dst, src Reg) *Block { return b.alu(OpSub, dst, src) }

// Subi computes dst -= imm.
func (b *Block) Subi(dst Reg, imm uint32) *Block { return b.alui(OpSub, dst, imm) }

// And computes dst &= src.
func (b *Block) And(dst, src Reg) *Block { return b.alu(OpAnd, dst, src) }

// Andi computes dst &= imm.
func (b *Block) Andi(dst Reg, imm uint32) *Block { return b.alui(OpAnd, dst, imm) }

// Or computes dst |= src.
func (b *Block) Or(dst, src Reg) *Block { return b.alu(OpOr, dst, src) }

// Ori computes dst |= imm.
func (b *Block) Ori(dst Reg, imm uint32) *Block { return b.alui(OpOr, dst, imm) }

// Xor computes dst ^= src. XOR of a register with itself deletes taint.
func (b *Block) Xor(dst, src Reg) *Block { return b.alu(OpXor, dst, src) }

// Xori computes dst ^= imm.
func (b *Block) Xori(dst Reg, imm uint32) *Block { return b.alui(OpXor, dst, imm) }

// Mul computes dst *= src.
func (b *Block) Mul(dst, src Reg) *Block { return b.alu(OpMul, dst, src) }

// Muli computes dst *= imm.
func (b *Block) Muli(dst Reg, imm uint32) *Block { return b.alui(OpMul, dst, imm) }

// Shl computes dst <<= src.
func (b *Block) Shl(dst, src Reg) *Block { return b.alu(OpShl, dst, src) }

// Shli computes dst <<= imm.
func (b *Block) Shli(dst Reg, imm uint32) *Block { return b.alui(OpShl, dst, imm) }

// Shr computes dst >>= src (logical).
func (b *Block) Shr(dst, src Reg) *Block { return b.alu(OpShr, dst, src) }

// Shri computes dst >>= imm (logical).
func (b *Block) Shri(dst Reg, imm uint32) *Block { return b.alui(OpShr, dst, imm) }

// Not computes dst = ^dst.
func (b *Block) Not(dst Reg) *Block {
	return b.emit(Instruction{Op: OpNot, Mode: ModeRR, Dst: dst})
}

// Cmp compares two registers and sets flags.
func (b *Block) Cmp(a, c Reg) *Block {
	return b.emit(Instruction{Op: OpCmp, Mode: ModeRR, Dst: a, Src: c})
}

// Cmpi compares a register with an immediate and sets flags.
func (b *Block) Cmpi(a Reg, imm uint32) *Block {
	return b.emit(Instruction{Op: OpCmp, Mode: ModeRI, Dst: a, Imm: imm})
}

// --- control flow ---

func (b *Block) jump(op Op, label string) *Block {
	return b.emitFix(Instruction{Op: op, Mode: ModeRel}, label, fixRel)
}

// Jmp jumps unconditionally to label (relative).
func (b *Block) Jmp(label string) *Block { return b.jump(OpJmp, label) }

// Jz jumps when the zero flag is set.
func (b *Block) Jz(label string) *Block { return b.jump(OpJz, label) }

// Jnz jumps when the zero flag is clear.
func (b *Block) Jnz(label string) *Block { return b.jump(OpJnz, label) }

// Jl jumps when less (signed).
func (b *Block) Jl(label string) *Block { return b.jump(OpJl, label) }

// Jg jumps when greater (signed).
func (b *Block) Jg(label string) *Block { return b.jump(OpJg, label) }

// Jle jumps when less or equal (signed).
func (b *Block) Jle(label string) *Block { return b.jump(OpJle, label) }

// Jge jumps when greater or equal (signed).
func (b *Block) Jge(label string) *Block { return b.jump(OpJge, label) }

// JmpReg jumps to the address in a register.
func (b *Block) JmpReg(r Reg) *Block {
	return b.emit(Instruction{Op: OpJmp, Mode: ModeRR, Dst: r})
}

// Call calls label (relative), pushing the return address.
func (b *Block) Call(label string) *Block { return b.jump(OpCall, label) }

// CallAbs calls an absolute address.
func (b *Block) CallAbs(addr uint32) *Block {
	return b.emit(Instruction{Op: OpCall, Mode: ModeRI, Imm: addr})
}

// CallReg calls through a register, as injected payloads do after resolving
// an API address from the export table.
func (b *Block) CallReg(r Reg) *Block {
	return b.emit(Instruction{Op: OpCall, Mode: ModeRR, Dst: r})
}

// Ret pops the return address and jumps to it.
func (b *Block) Ret() *Block { return b.emit(Instruction{Op: OpRet, Mode: ModeNone}) }

// Push pushes a register.
func (b *Block) Push(r Reg) *Block {
	return b.emit(Instruction{Op: OpPush, Mode: ModeRR, Dst: r})
}

// Pushi pushes an immediate.
func (b *Block) Pushi(imm uint32) *Block {
	return b.emit(Instruction{Op: OpPush, Mode: ModeRI, Imm: imm})
}

// Pop pops into a register.
func (b *Block) Pop(r Reg) *Block {
	return b.emit(Instruction{Op: OpPop, Mode: ModeRR, Dst: r})
}

// Syscall traps into the kernel. By convention EAX holds the syscall number,
// EBX/ECX/EDX/ESI the arguments, and the result returns in EAX.
func (b *Block) Syscall() *Block {
	return b.emit(Instruction{Op: OpSyscall, Mode: ModeNone})
}

// Nop emits a no-op.
func (b *Block) Nop() *Block { return b.emit(Instruction{Op: OpNop, Mode: ModeNone}) }

// Hlt halts the CPU (only meaningful for kernel-less test harnesses).
func (b *Block) Hlt() *Block { return b.emit(Instruction{Op: OpHlt, Mode: ModeNone}) }

// GetPC loads the address of the emitted POP instruction into dst using the
// classic CALL/POP shellcode idiom (CALL rel +0 pushes the POP's address).
// It keeps payloads position-independent.
func (b *Block) GetPC(dst Reg) *Block {
	b.emit(Instruction{Op: OpCall, Mode: ModeRel, Imm: 0})
	return b.Pop(dst)
}

// LeaSelf loads the runtime address of label into dst, assuming the block
// executes contiguously from its start. It emits GetPC and adjusts by the
// assembly-time distance, so it works at any load address.
func (b *Block) LeaSelf(dst Reg, label string) *Block {
	b.GetPC(dst) // dst = address of the POP just emitted
	here := len(b.buf) - InstrSize
	b.fixups = append(b.fixups, fixup{at: len(b.buf), label: label, kind: fixDeltaImm})
	// Emit ADD dst, (labelOff - here); patched below with wrap-around math.
	b.emit(Instruction{Op: OpAdd, Mode: ModeRI, Dst: dst, Imm: uint32(-int32(here))})
	return b
}

// Assemble resolves all fixups and returns the machine code for the block
// loaded at base. Position-independent blocks may pass base 0.
func (b *Block) Assemble(base uint32) ([]byte, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	out := make([]byte, len(b.buf))
	copy(out, b.buf)
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q", f.label)
		}
		var v uint32
		switch f.kind {
		case fixRel:
			// Offset from the end of the fixed-up instruction.
			v = uint32(int32(target) - int32(f.at+InstrSize))
		case fixAbs:
			v = base + uint32(target)
		case fixOffset:
			v = uint32(target)
		case fixDeltaImm:
			// Add the label offset to whatever delta the instruction already
			// carries (used by LeaSelf: imm was -here, becomes target-here).
			prev := binary.LittleEndian.Uint32(out[f.at+4 : f.at+8])
			v = prev + uint32(target)
		default:
			return nil, fmt.Errorf("isa: unknown fixup kind %d", f.kind)
		}
		binary.LittleEndian.PutUint32(out[f.at+4:f.at+8], v)
	}
	return out, nil
}

// MustAssemble is Assemble but panics on error. It is intended for sample
// programs constructed from trusted, test-covered builders.
func (b *Block) MustAssemble(base uint32) []byte {
	out, err := b.Assemble(base)
	if err != nil {
		panic(err)
	}
	return out
}
