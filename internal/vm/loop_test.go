package vm

import (
	"bytes"
	"testing"

	"faros/internal/isa"
	"faros/internal/mem"
)

// Back-edge kinds a generated loop closes with. The loop head sits at
// "loop"; every kind branches back to it, so the loop is one block that
// targets its own first instruction.
const (
	edgeJmp    = iota // ADDI, NOP, JMP: a plain unconditional back edge
	edgeAluJmp        // ADDI+JMP: the fused ALU-and-jump
	edgeJcc           // CMPI, NOP, JL: a plain taken conditional
	edgeCmpJcc        // CMPI+JL: the fused compare-and-branch
	numEdges
)

// Events a generated loop body triggers at one chosen iteration.
const (
	eventNone      = iota
	eventCodeStore // a byte store into the loop's own code page
	eventBadLoad   // a load from an unmapped page
	numEvents
)

// unmappedVA is below every mapping of the test machines.
const unmappedVA = 0x00000FF8

// loopProgram assembles a single-page loop from fuzz input. body picks
// the loop's instructions (ALU, byte and word loads and stores, fused
// LDB/STB moves, PUSH/POP); edge picks the back edge; n is the trip
// count. event, when not eventNone, adds a store or load whose address
// is a harmless scratch byte on every iteration but iteration k, where it
// is the code byte at patch (eventCodeStore) or an unmapped page
// (eventBadLoad). The address is computed without branches, so the loop
// stays one block.
func loopProgram(body []byte, edge, event, k, n uint8, patch uint16) *isa.Block {
	const scratch = dataBase + 0x300
	b := isa.NewBlock()
	b.Movi(isa.ESI, dataBase)       // src
	b.Movi(isa.EDI, dataBase+0x100) // dst
	b.Movi(isa.ECX, 0)
	b.Movi(isa.EDX, 0)
	b.Label("loop")
	if edge%numEdges < edgeJcc {
		// Head-tested: the exit test leads the block.
		b.Cmpi(isa.ECX, uint32(n))
		b.Jge("done")
	}
	for i, op := range body {
		if i == 12 {
			break
		}
		switch op % 8 {
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
		}
	}
	if ev := event % numEvents; ev != eventNone {
		target := uint32(unmappedVA)
		if ev == eventCodeStore {
			target = codeBase + uint32(patch)%0x100
		}
		// EBX = 1 when ECX == k, else 0 (ECX stays far below 2^31).
		b.Mov(isa.EBX, isa.ECX)
		b.Xori(isa.EBX, uint32(k))
		b.Subi(isa.EBX, 1)
		b.Shri(isa.EBX, 31)
		b.Muli(isa.EBX, target-scratch)
		b.Addi(isa.EBX, scratch)
		if ev == eventCodeStore {
			b.Stb(isa.EBX, 0, isa.EAX)
		} else {
			b.Ldb(isa.EAX, isa.EBX, 0)
		}
	}
	switch edge % numEdges {
	case edgeJmp:
		b.Addi(isa.ECX, 1)
		b.Nop()
		b.Jmp("loop")
	case edgeAluJmp:
		b.Addi(isa.ECX, 1)
		b.Jmp("loop")
	case edgeJcc:
		b.Addi(isa.ECX, 1)
		b.Cmpi(isa.ECX, uint32(n))
		b.Nop()
		b.Jl("loop")
	case edgeCmpJcc:
		b.Addi(isa.ECX, 1)
		b.Cmpi(isa.ECX, uint32(n))
		b.Jl("loop")
	}
	b.Label("done")
	b.Hlt()
	return b
}

// FuzzLoopBudget runs a generated single-page loop through RunBlock in
// quanta drawn from a budget sequence, driven like the kernel's scheduler
// loop, against a machine running the same quanta on Step. After every
// quantum the two must agree on CPU state, InstrCount, trap and fault, and
// at the end on the data and code pages. The loops iterate in place, the
// quanta end on block prefixes and split fused pairs, and the events
// exercise the self-modifying-code and fault exits after earlier passes.
func FuzzLoopBudget(f *testing.F) {
	// copyLoop's body (LDB/STB move, checksum ADD) under each back edge,
	// and selfPatch's store into its own code at iteration 3.
	copyBody := []byte{0, 1, 6, 2}
	for edge := uint8(0); edge < numEdges; edge++ {
		f.Add(copyBody, edge, uint8(eventNone), uint8(0), uint8(12), uint16(0), []byte{255})
		f.Add(copyBody, edge, uint8(eventCodeStore), uint8(3), uint8(12), uint16(0x24), []byte{6, 0, 60})
		f.Add(copyBody, edge, uint8(eventBadLoad), uint8(5), uint8(12), uint16(0), []byte{2, 9})
	}
	f.Add([]byte{4, 3, 5, 7}, uint8(edgeAluJmp), uint8(eventNone), uint8(0), uint8(20), uint16(0), []byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, body []byte, edge, event, k, n uint8, patch uint16, budgets []byte) {
		prog := loopProgram(body, edge, event, k, n%64, patch)
		mb, ms := newRWXMachine(t, prog), newRWXMachine(t, prog)
		mb.blockTab = &blockTable{} // generated code stays out of the process-wide table
		if len(budgets) == 0 {
			budgets = []byte{255}
		}
		const maxInstr = 4000
		for q := 0; mb.InstrCount < maxInstr; q++ {
			budget := uint64(budgets[q%len(budgets)]) + 1
			trap, err := TrapNone, error(nil)
			for rem := budget; rem > 0 && trap == TrapNone && err == nil; {
				var n uint64
				n, trap, err = mb.RunBlock(rem)
				if n > rem || (n == 0 && trap == TrapNone && err == nil) {
					t.Fatalf("quantum %d: RunBlock(%d) retired %d (trap %v)", q, rem, n, trap)
				}
				rem -= n
			}
			wtrap, werr := TrapNone, error(nil)
			for i := uint64(0); i < budget && wtrap == TrapNone && werr == nil; i++ {
				wtrap, werr = ms.Step()
			}
			if trap != wtrap || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("quantum %d (budget %d): RunBlock trap %v err %v; Step trap %v err %v", q, budget, trap, err, wtrap, werr)
			}
			if mb.CPU != ms.CPU || mb.InstrCount != ms.InstrCount {
				t.Fatalf("quantum %d (budget %d): RunBlock EIP %#x count %d regs %v; Step EIP %#x count %d regs %v",
					q, budget, mb.CPU.EIP, mb.InstrCount, mb.CPU.Regs, ms.CPU.EIP, ms.InstrCount, ms.CPU.Regs)
			}
			if trap != TrapNone {
				break
			}
		}
		for _, r := range [][2]uint32{{dataBase, 0x400}, {codeBase, 0x100}, {stackBase, mem.PageSize}} {
			gb, _ := mb.space.ReadBytes(r[0], int(r[1]), mem.AccessRead)
			gs, _ := ms.space.ReadBytes(r[0], int(r[1]), mem.AccessRead)
			if !bytes.Equal(gb, gs) {
				t.Fatalf("memory at %#x diverged", r[0])
			}
		}
	})
}

// TestLoopRunsInPlace: a self-looping block runs all its passes in one
// executor call, and a budget that lands inside it runs a prefix of the
// cached block rather than an uncached one-instruction block.
func TestLoopRunsInPlace(t *testing.T) {
	prog := loopProgram([]byte{0, 1, 2}, edgeAluJmp, eventNone, 0, 40, 0)
	m := newRWXMachine(t, prog)
	runBlocksToHalt(t, m, 10_000)
	if st := m.BlockStats(); st.Hits != 0 {
		t.Errorf("one RunBlock call re-dispatched the loop %d times", st.Hits)
	}

	// The loop block is CMPI+JGE, LDB+STB, ADD, ADDI+JMP: seven
	// instructions. A budget of 5 runs its first three micro-ops in one
	// call; a budget of 1 then splits ADDI+JMP, which runs its first
	// instruction as an uncached block.
	m = newRWXMachine(t, prog)
	if n, trap, err := m.RunBlock(4); n != 4 || trap != TrapNone || err != nil {
		t.Fatalf("RunBlock(4) = %d, %v, %v", n, trap, err)
	}
	loop := m.CPU.EIP
	if blk := m.LookupBlock(loop); blk == nil || blk.NInstr != 7 {
		t.Fatalf("loop block %+v", blk)
	}
	if n, _, _ := m.RunBlock(5); n != 5 || m.CPU.EIP != loop+5*isa.InstrSize {
		t.Fatalf("RunBlock(5) at the loop retired %d, EIP %#x", n, m.CPU.EIP)
	}
	if st := m.BlockStats(); st.FusedOps != 2 {
		t.Errorf("prefix retired %d fused ops, want 2 (CMPI+JGE, LDB+STB)", st.FusedOps)
	}
	if n, _, _ := m.RunBlock(1); n != 1 || m.CPU.EIP != loop+6*isa.InstrSize || m.CPU.Regs[isa.ECX] != 1 {
		t.Fatalf("RunBlock(1) inside ADDI+JMP retired %d, EIP %#x, ECX %d", n, m.CPU.EIP, m.CPU.Regs[isa.ECX])
	}
}
