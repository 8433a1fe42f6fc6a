// Package vmtest generates the single-block guest loops that the block
// executors' differential tests run against the per-instruction
// reference: internal/vm's FuzzLoopBudget for the plain executor and
// internal/core's FuzzFusedLoop for the FAROS one, and the counted byte
// loops (Counted) their batch-boundary tests place across page ends. Only
// tests import it.
package vmtest

import "faros/internal/isa"

// Back-edge kinds a generated loop closes with. The loop head sits at
// "loop"; every kind branches back to it, so the loop is one block that
// targets its own first instruction.
const (
	EdgeJmp    = iota // ADDI, NOP, JMP: a plain unconditional back edge
	EdgeAluJmp        // ADDI+JMP: the fused ALU-and-jump
	EdgeJcc           // CMPI, NOP, JL: a plain taken conditional
	EdgeCmpJcc        // CMPI+JL: the fused compare-and-branch
	NumEdges
)

// Events a generated loop body triggers at one chosen iteration. The wide
// forms make the event's access the second instruction of a MOVI-prefixed
// micro-op, so its fault or self-modifying-code exit lands inside it.
const (
	EventNone          = iota
	EventCodeStore     // a byte store into the loop's own code page
	EventBadLoad       // a load from an unmapped page
	EventWideCodeStore // EventCodeStore as MOVI base, STB [base+idx]
	EventWideBadLoad   // EventBadLoad as MOVI base, LDB [base+idx], XORI
	NumEvents
)

// UnmappedVA is an address the loops' machines leave unmapped.
const UnmappedVA = 0x00000FF8

// MaxBody bounds the body shapes a loop uses.
const MaxBody = 12

// Pattern returns the n bytes the tests fill a loop's data with before it
// runs, so that a wrong address loads a different value.
func Pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*37 + 11)
	}
	return p
}

// Layout places a loop's memory. Data must map at least 0x400 writable
// bytes: the loops load from Data and Data+0x100 and store to Data+0x100,
// at offsets below 0x48 from either, address base == index bytes at
// Data+0x40 and Data+0x180, and run events against a scratch byte at
// Data+0x300. Data must be even. Code is the page the loop's code sits on,
// which the code-store events write.
type Layout struct {
	Data uint32
	Code uint32
}

// Loop is one generated loop, decoded from fuzz input.
type Loop struct {
	// Body picks the loop's instructions, one shape per byte (see Emit).
	Body []byte
	// Edge picks the back edge (mod NumEdges) and N the trip count.
	Edge uint8
	N    uint8
	// Event (mod NumEvents), when not EventNone, adds a store or load whose
	// address is the scratch byte on every iteration but iteration K, where
	// it is the code byte at Code+Patch%0x100 (the code stores) or
	// UnmappedVA (the bad loads). The address is computed without branches,
	// so the loop stays one block.
	Event uint8
	K     uint8
	Patch uint16
}

// Block assembles the loop into a fresh block.
func (l Loop) Block(at Layout) *isa.Block {
	b := isa.NewBlock()
	l.Emit(b, at)
	return b
}

// Emit appends the loop to b: a prologue setting ESI (source), EDI
// (destination), ECX (counter) and EDX (accumulator), the loop, and a HLT.
// Each body byte, mod 20, emits one shape: the plain ALU, load, store and
// stack forms, and the shapes lowering fuses into wide micro-ops — MOVI
// into an access's base before indexed and displacement loads and stores,
// loads followed by an ALU op on the loaded register, MOVIs into a
// register the next access does not use or uses as its index, base == index
// accesses, an ALU op writing the loaded register from another one, and a
// copy of loaded data into the register the MOVI shapes overwrite.
func (l Loop) Emit(b *isa.Block, at Layout) {
	src, dst := at.Data, at.Data+0x100
	scratch := at.Data + 0x300
	b.Movi(isa.ESI, src)
	b.Movi(isa.EDI, dst)
	b.Movi(isa.ECX, 0)
	b.Movi(isa.EDX, 0)
	b.Label("loop")
	if l.Edge%NumEdges < EdgeJcc {
		// Head-tested: the exit test leads the block.
		b.Cmpi(isa.ECX, uint32(l.N))
		b.Jge("done")
	}
	for i, op := range l.Body {
		if i == MaxBody {
			break
		}
		switch op % 20 {
		case 0:
			b.LdbIdx(isa.EAX, isa.ESI, isa.ECX)
		case 1:
			b.StbIdx(isa.EDI, isa.ECX, isa.EAX)
		case 2:
			b.Add(isa.EDX, isa.EAX)
		case 3:
			b.Xori(isa.EAX, uint32(op))
		case 4:
			b.Push(isa.EAX)
		case 5:
			b.Pop(isa.EBX)
		case 6:
			b.Ld(isa.EBX, isa.EDI, 0)
		case 7:
			b.St(isa.EDI, 4, isa.EDX)
		case 8: // the Table V loops' load
			b.Movi(isa.ESI, src)
			b.LdbIdx(isa.EAX, isa.ESI, isa.ECX)
		case 9:
			b.Movi(isa.ESI, src)
			b.LdIdx(isa.EAX, isa.ESI, isa.ECX)
		case 10: // the Table V copy loop's store; ESI stays on dst
			b.Movi(isa.ESI, dst)
			b.StbIdx(isa.ESI, isa.ECX, isa.EAX)
		case 11:
			b.Movi(isa.EDI, dst)
			b.StIdx(isa.EDI, isa.ECX, isa.EDX)
		case 12: // displacement form
			b.Movi(isa.EBP, src)
			b.Ld(isa.EAX, isa.EBP, uint32(op)%0x40)
		case 13:
			b.Movi(isa.EBP, dst)
			b.Stb(isa.EBP, uint32(op)%0x40, isa.EAX)
		case 14: // MOVI into a register that is not the access's base
			b.Movi(isa.EBX, uint32(op))
			b.LdbIdx(isa.EAX, isa.ESI, isa.ECX)
		case 15: // base == index
			b.Movi(isa.EBP, (at.Data+0x40)/2)
			b.LdbIdx(isa.EAX, isa.EBP, isa.EBP)
		case 16:
			b.Movi(isa.EBP, (at.Data+0x180)/2)
			b.StbIdx(isa.EBP, isa.EBP, isa.EAX)
		case 17: // writes the loaded register from another one
			b.Sub(isa.EAX, isa.EDX)
		case 18: // carries data (and its taint) into the next MOVI's base
			b.Mov(isa.EBP, isa.EAX)
		case 19: // MOVI into the access's index, not its base
			b.Movi(isa.EBP, uint32(op)%0x40)
			b.LdbIdx(isa.EAX, isa.ESI, isa.EBP)
		}
	}
	if ev := l.Event % NumEvents; ev != EventNone {
		target := uint32(UnmappedVA)
		if ev == EventCodeStore || ev == EventWideCodeStore {
			target = at.Code + uint32(l.Patch)%0x100
		}
		// EBX = 1 when ECX == K, else 0 (ECX stays far below 2^31).
		b.Mov(isa.EBX, isa.ECX)
		b.Xori(isa.EBX, uint32(l.K))
		b.Subi(isa.EBX, 1)
		b.Shri(isa.EBX, 31)
		b.Muli(isa.EBX, target-scratch)
		b.Addi(isa.EBX, scratch)
		switch ev {
		case EventCodeStore:
			b.Stb(isa.EBX, 0, isa.EAX)
		case EventBadLoad:
			b.Ldb(isa.EAX, isa.EBX, 0)
		case EventWideCodeStore:
			b.Movi(isa.EBP, 0)
			b.StbIdx(isa.EBP, isa.EBX, isa.EAX)
		case EventWideBadLoad:
			b.Movi(isa.EBP, 0)
			b.LdbIdx(isa.EAX, isa.EBP, isa.EBX)
			b.Xori(isa.EAX, 1)
		}
	}
	switch l.Edge % NumEdges {
	case EdgeJmp:
		b.Addi(isa.ECX, 1)
		b.Nop()
		b.Jmp("loop")
	case EdgeAluJmp:
		b.Addi(isa.ECX, 1)
		b.Jmp("loop")
	case EdgeJcc:
		b.Addi(isa.ECX, 1)
		b.Cmpi(isa.ECX, uint32(l.N))
		b.Nop()
		b.Jl("loop")
	case EdgeCmpJcc:
		b.Addi(isa.ECX, 1)
		b.Cmpi(isa.ECX, uint32(l.N))
		b.Jl("loop")
	}
	b.Label("done")
	b.Hlt()
}

// Counted is a Table V-shaped counted byte loop: the copy loop (load,
// XORI, store) from Src to Dst or the accumulate loop (load, ADD into EDX)
// over Src, N passes with the exit test leading the block. The bases are
// MOVIs in the body, as the Table V apps emit them, or with RegBase ESI
// and EDI set before the loop. The block executors run both shapes as
// counted loops (vm.CountedLoop).
type Counted struct {
	Src, Dst   uint32
	N          uint32
	Accumulate bool
	RegBase    bool
	// ExitZ tests the exit with JZ (ECX == N) instead of JGE.
	ExitZ bool
	// Dst2, when nonzero, gives the loop a second store of each byte, to
	// Dst2 (based on EBX under RegBase). An accumulate loop with a nonzero
	// Dst also stores each loaded byte, to Dst and Dst2.
	Dst2 uint32
}

// Emit appends the loop and a HLT to b.
func (c Counted) Emit(b *isa.Block) {
	b.Movi(isa.ECX, 0)
	b.Movi(isa.EDX, 0)
	if c.RegBase {
		b.Movi(isa.ESI, c.Src)
		b.Movi(isa.EDI, c.Dst)
		if c.Dst2 != 0 {
			b.Movi(isa.EBX, c.Dst2)
		}
	}
	b.Label("counted")
	b.Cmpi(isa.ECX, c.N)
	if c.ExitZ {
		b.Jz("counted_done")
	} else {
		b.Jge("counted_done")
	}
	if !c.RegBase {
		b.Movi(isa.ESI, c.Src)
	}
	b.LdbIdx(isa.EAX, isa.ESI, isa.ECX)
	if c.Accumulate {
		b.Add(isa.EDX, isa.EAX)
	} else {
		b.Xori(isa.EAX, 0x5A)
	}
	if !c.Accumulate || c.Dst != 0 {
		c.store(b, c.Dst, isa.EDI)
		if c.Dst2 != 0 {
			c.store(b, c.Dst2, isa.EBX)
		}
	}
	b.Addi(isa.ECX, 1)
	b.Jmp("counted")
	b.Label("counted_done")
	b.Hlt()
}

// store emits the store of EAX to dst+ECX: through base, set before the
// loop, under RegBase, else through a MOVI into ESI.
func (c Counted) store(b *isa.Block, dst uint32, base isa.Reg) {
	if c.RegBase {
		b.StbIdx(base, isa.ECX, isa.EAX)
		return
	}
	b.Movi(isa.ESI, dst)
	b.StbIdx(isa.ESI, isa.ECX, isa.EAX)
}
