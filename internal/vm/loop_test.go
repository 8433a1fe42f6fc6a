package vm

import (
	"bytes"
	"testing"

	"faros/internal/isa"
	"faros/internal/mem"
	"faros/internal/vm/vmtest"
)

// loopLayout places the generated loops on the test machines: data at
// dataBase, code (writable, for the code-store events) at codeBase.
var loopLayout = vmtest.Layout{Data: dataBase, Code: codeBase}

// FuzzLoopBudget runs a generated single-page loop (vmtest.Loop) through
// RunBlock in quanta drawn from a budget sequence, driven like the kernel's
// scheduler loop, against a machine running the same quanta on Step. After
// every quantum the two must agree on CPU state, InstrCount, trap and
// fault, and at the end on the data and code pages. The loops iterate in
// place, the quanta end on block prefixes and split fused and wide
// micro-ops, and the events exercise the self-modifying-code and fault
// exits after earlier passes, inside wide micro-ops too.
func FuzzLoopBudget(f *testing.F) {
	// copyLoop's body (LDB/STB move, checksum ADD) under each back edge,
	// and selfPatch's store into its own code at iteration 3.
	copyBody := []byte{0, 1, 6, 2}
	for edge := uint8(0); edge < vmtest.NumEdges; edge++ {
		f.Add(copyBody, edge, uint8(vmtest.EventNone), uint8(0), uint8(12), uint16(0), []byte{255})
		f.Add(copyBody, edge, uint8(vmtest.EventCodeStore), uint8(3), uint8(12), uint16(0x24), []byte{6, 0, 60})
		f.Add(copyBody, edge, uint8(vmtest.EventBadLoad), uint8(5), uint8(12), uint16(0), []byte{2, 9})
		f.Add(copyBody, edge, uint8(vmtest.EventWideCodeStore), uint8(3), uint8(12), uint16(0x24), []byte{6, 0, 60})
		f.Add(copyBody, edge, uint8(vmtest.EventWideBadLoad), uint8(5), uint8(12), uint16(0), []byte{2, 9})
	}
	f.Add([]byte{4, 3, 5, 7}, uint8(vmtest.EdgeAluJmp), uint8(vmtest.EventNone), uint8(0), uint8(20), uint16(0), []byte{0, 1, 2})
	// The Table V copy (MOVI+LDB+XORI, MOVI+STB) and accumulate
	// (MOVI+LDB+ADD) bodies, and every other wide shape and guard, at
	// budgets of 1, 2 and 3: quantum ends land on every instruction
	// boundary, so each wide micro-op is split at every offset.
	bodies := [][]byte{{8, 3, 10}, {8, 2}, {9, 2, 11, 18, 12, 3, 18, 13, 14, 18, 16, 19}, {0, 17, 8, 2, 0, 3, 0, 1, 18, 15}}
	for _, body := range bodies {
		for _, budgets := range [][]byte{{0}, {1}, {2}, {255}} {
			f.Add(body, uint8(vmtest.EdgeAluJmp), uint8(vmtest.EventNone), uint8(0), uint8(9), uint16(0), budgets)
		}
		f.Add(body, uint8(vmtest.EdgeCmpJcc), uint8(vmtest.EventWideBadLoad), uint8(4), uint8(9), uint16(0), []byte{2, 0, 1})
		f.Add(body, uint8(vmtest.EdgeJmp), uint8(vmtest.EventWideCodeStore), uint8(2), uint8(9), uint16(0x10), []byte{1, 0})
	}
	// Head-tested counted byte loops long enough that their passes batch
	// (CountedLoop): the register-base copy and load-accumulate bodies and
	// the Table V copy and accumulate bodies, in quanta of 61 and 256.
	for _, body := range [][]byte{{0, 1}, {8, 3, 10}, {8, 2}, {0, 2}} {
		for _, budgets := range [][]byte{{60}, {255}} {
			f.Add(body, uint8(vmtest.EdgeAluJmp), uint8(vmtest.EventNone), uint8(0), uint8(48), uint16(0), budgets)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, edge, event, k, n uint8, patch uint16, budgets []byte) {
		prog := vmtest.Loop{Body: body, Edge: edge, Event: event, K: k, N: n % 64, Patch: patch}.Block(loopLayout)
		mb, ms := newRWXMachine(t, prog), newRWXMachine(t, prog)
		for _, m := range []*Machine{mb, ms} {
			if err := m.space.WriteBytes(dataBase, vmtest.Pattern(0x400)); err != nil {
				t.Fatal(err)
			}
		}
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
	prog := vmtest.Loop{Body: []byte{0, 1, 2}, Edge: vmtest.EdgeAluJmp, N: 40}.Block(loopLayout)
	m := newRWXMachine(t, prog)
	runBlocksToHalt(t, m, 10_000)
	if st := m.BlockStats(); st.Hits != 0 {
		t.Errorf("one RunBlock call re-dispatched the loop %d times", st.Hits)
	}

	// The loop block is CMPI+JGE, LDB, STB, ADD, ADDI+JMP: seven
	// instructions. A budget of 5 runs its first four micro-ops in one
	// call; a budget of 1 then splits ADDI+JMP, which runs its first
	// instruction as an uncached block.
	m = newRWXMachine(t, prog)
	if n, trap, err := m.RunBlock(4); n != 4 || trap != TrapNone || err != nil {
		t.Fatalf("RunBlock(4) = %d, %v, %v", n, trap, err)
	}
	loop := m.CPU.EIP
	if blk := m.lookupBlock(loop); blk == nil || blk.NInstr != 7 {
		t.Fatalf("loop block %+v", blk)
	}
	if n, _, _ := m.RunBlock(5); n != 5 || m.CPU.EIP != loop+5*isa.InstrSize {
		t.Fatalf("RunBlock(5) at the loop retired %d, EIP %#x", n, m.CPU.EIP)
	}
	if st := m.BlockStats(); st.FusedOps != 1 {
		t.Errorf("prefix retired %d fused ops, want 1 (CMPI+JGE)", st.FusedOps)
	}
	if n, _, _ := m.RunBlock(1); n != 1 || m.CPU.EIP != loop+6*isa.InstrSize || m.CPU.Regs[isa.ECX] != 1 {
		t.Fatalf("RunBlock(1) inside ADDI+JMP retired %d, EIP %#x, ECX %d", n, m.CPU.EIP, m.CPU.Regs[isa.ECX])
	}
}

// TestWideUopBudgetTail: a budget below the instruction count of the wide
// micro-op a block starts with runs its first instruction as the uncached
// one-instruction block, and the chain goes on at the next instruction,
// exactly as Step retires them.
func TestWideUopBudgetTail(t *testing.T) {
	b := isa.NewBlock()
	b.Movi(isa.ECX, 3)
	b.Label("wide") // MOVI+LDB+XORI: one three-instruction micro-op
	b.Movi(isa.ESI, dataBase)
	b.LdbIdx(isa.EAX, isa.ESI, isa.ECX)
	b.Xori(isa.EAX, 0x5A)
	b.Hlt()
	mb, ms := newRWXMachine(t, b), newRWXMachine(t, b)
	for _, m := range []*Machine{mb, ms} {
		if err := m.space.WriteBytes(dataBase, vmtest.Pattern(0x10)); err != nil {
			t.Fatal(err)
		}
		m.Step() // MOVI ECX: the next block starts with the wide micro-op
	}
	wide := mb.CPU.EIP
	if blk := mb.lookupBlock(wide); blk == nil || blk.Uops[0].N != 3 {
		t.Fatalf("block at the wide micro-op: %+v", blk)
	}
	// RunBlock(2) chains two uncached tails: MOVI alone (2 < 3), then LDB
	// alone (its block starts with LDB+XORI, 2 > 1). RunBlock(1) then runs
	// XORI as the prefix of XORI, HLT. Each call's state must equal that many
	// Steps.
	for _, c := range []struct{ budget, want uint64 }{{2, 2}, {1, 1}} {
		n, trap, err := mb.RunBlock(c.budget)
		if n != c.want || err != nil || trap != TrapNone {
			t.Fatalf("RunBlock(%d) = %d, %v, %v; want %d instructions", c.budget, n, trap, err, c.want)
		}
		for i := uint64(0); i < n; i++ {
			ms.Step()
		}
		if mb.CPU != ms.CPU || mb.InstrCount != ms.InstrCount {
			t.Fatalf("RunBlock(%d): EIP %#x regs %v; Step EIP %#x regs %v",
				c.budget, mb.CPU.EIP, mb.CPU.Regs, ms.CPU.EIP, ms.CPU.Regs)
		}
	}
	if mb.CPU.EIP != wide+3*isa.InstrSize || mb.CPU.Regs[isa.EAX] != uint32(vmtest.Pattern(4)[3])^0x5A {
		t.Errorf("after the tails: EIP %#x EAX %#x", mb.CPU.EIP, mb.CPU.Regs[isa.EAX])
	}
}
