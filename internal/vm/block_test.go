package vm

import (
	"testing"

	"faros/internal/isa"
	"faros/internal/mem"
)

// newRWXMachine is newTestMachine with a writable code page, for the
// self-modifying-code tests.
func newRWXMachine(t *testing.T, b *isa.Block) *Machine {
	t.Helper()
	phys := mem.NewPhys()
	space := mem.NewSpace(phys, 0xC0DE)
	code, err := b.Assemble(codeBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Map(codeBase, mem.PagesSpanned(codeBase, uint32(len(code))), mem.PermRWX); err != nil {
		t.Fatal(err)
	}
	for i, by := range code {
		pa, err := space.Translate(codeBase+uint32(i), mem.AccessWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := phys.WriteByteAt(pa, by); err != nil {
			t.Fatal(err)
		}
	}
	if err := space.Map(dataBase, 4, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := space.Map(stackBase, 1, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	m := New(phys)
	m.SetSpace(space)
	m.CPU.EIP = codeBase
	m.CPU.Regs[isa.ESP] = stackTop
	return m
}

// runBlocksToHalt drives the machine through RunBlock (the kernel's
// dispatch entry) until it halts, returning retired instructions.
func runBlocksToHalt(t *testing.T, m *Machine, maxSteps uint64) uint64 {
	t.Helper()
	return runQuantaToHalt(t, m, maxSteps, maxSteps)
}

// runQuantaToHalt is runBlocksToHalt with at most quantum instructions per
// RunBlock call, as the kernel's scheduler drives it.
func runQuantaToHalt(t *testing.T, m *Machine, quantum, maxSteps uint64) uint64 {
	t.Helper()
	var total uint64
	for total < maxSteps {
		n, trap, err := m.RunBlock(min(quantum, maxSteps-total))
		total += n
		if err != nil {
			t.Fatalf("run block: %v", err)
		}
		if trap == TrapHalt {
			return total
		}
	}
	t.Fatalf("no halt within %d instructions", maxSteps)
	return 0
}

// copyLoop assembles the memcpy-shaped loop the corpus is dominated by:
// fused compare-and-branch head, LDB/STB body, fused ALU+JMP back edge.
func copyLoop(n uint32) *isa.Block {
	b := isa.NewBlock()
	b.Movi(isa.ESI, dataBase)       // src
	b.Movi(isa.EDI, dataBase+0x100) // dst
	b.Movi(isa.ECX, 0)
	b.Movi(isa.EDX, 0) // checksum
	// Fill src with i*3.
	b.Label("fill")
	b.Cmpi(isa.ECX, n)
	b.Jge("copy")
	b.Mov(isa.EAX, isa.ECX)
	b.Muli(isa.EAX, 3)
	b.StbIdx(isa.ESI, isa.ECX, isa.EAX)
	b.Addi(isa.ECX, 1)
	b.Jmp("fill")
	// Copy src → dst, accumulating a checksum.
	b.Label("copy")
	b.Movi(isa.ECX, 0)
	b.Label("cp")
	b.Cmpi(isa.ECX, n)
	b.Jge("done")
	b.LdbIdx(isa.EAX, isa.ESI, isa.ECX)
	b.StbIdx(isa.EDI, isa.ECX, isa.EAX)
	b.LdbIdx(isa.EBX, isa.EDI, isa.ECX)
	b.Add(isa.EDX, isa.EBX)
	b.Addi(isa.ECX, 1)
	b.Jmp("cp")
	b.Label("done")
	b.Hlt()
	return b
}

// TestBlockDispatchMatchesStep runs the same program through block
// dispatch and through the reference seam (Step per instruction) and
// requires identical architectural outcomes — registers, memory, and the
// exact retired-instruction count (the record/replay cursor).
func TestBlockDispatchMatchesStep(t *testing.T) {
	// The kernel's 256-instruction quantum: each loop runs passes in place
	// within a quantum and is re-dispatched from the block cache after it.
	mb := newTestMachine(t, copyLoop(64))
	nb := runQuantaToHalt(t, mb, 256, 100_000)

	ms := newTestMachine(t, copyLoop(64))
	ms.UseReferenceStep(nil)
	ns := runBlocksToHalt(t, ms, 100_000)

	if nb != ns {
		t.Errorf("retired %d instructions via blocks, %d via steps", nb, ns)
	}
	if mb.CPU.Regs != ms.CPU.Regs {
		t.Errorf("register files diverged:\nblocks: %v\nsteps:  %v", mb.CPU.Regs, ms.CPU.Regs)
	}
	for i := uint32(0); i < 64; i++ {
		vb, _, err := mb.DataRead8(dataBase + 0x100 + i)
		if err != nil {
			t.Fatal(err)
		}
		vs, _, err := ms.DataRead8(dataBase + 0x100 + i)
		if err != nil {
			t.Fatal(err)
		}
		if vb != vs {
			t.Fatalf("dst[%d] = %d via blocks, %d via steps", i, vb, vs)
		}
	}

	st := mb.BlockStats()
	if st.Built == 0 || st.Hits == 0 {
		t.Errorf("block cache unused: %+v", st)
	}
	if st.FusedOps == 0 {
		t.Errorf("copy loop retired no superinstructions: %+v", st)
	}
	if off := ms.BlockStats(); off.Built != 0 {
		t.Errorf("reference seam still built blocks: %+v", off)
	}
}

// TestSuperblockExtendsThroughConditional: the loop-head conditional must
// not end the block — the body rides in the same block and a taken exit
// is a mid-block side exit with an exact fused-op count.
func TestSuperblockExtendsThroughConditional(t *testing.T) {
	m := newTestMachine(t, copyLoop(8))
	runBlocksToHalt(t, m, 10_000)

	// Find the loop-head block: it starts with a fused compare-and-branch
	// (the exit test) and must span the body behind it, not stop at the
	// conditional.
	found := false
	for off := uint32(0); off < 0x200; off += isa.InstrSize {
		blk := m.lookupBlock(codeBase + off)
		if blk == nil || len(blk.Uops) == 0 {
			continue
		}
		if k := blk.Uops[0].Kind; (k == isa.UCmpJccRI || k == isa.UCmpJccRR) && blk.NInstr > 2 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no block extends through a leading compare-and-branch")
	}
}

// selfPatch assembles a program that patches the immediate byte of the
// instruction at "patch" (offset +4 is the little-endian imm's low byte),
// then falls through into it. The store and its target share one
// straight-line block.
func selfPatch() *isa.Block {
	b := isa.NewBlock()
	b.MoviLabel(isa.ESI, "patch")
	b.Addi(isa.ESI, codeBase+4)
	b.Movi(isa.EAX, 0x22)
	b.Stb(isa.ESI, 0, isa.EAX)
	b.Label("patch")
	b.Movi(isa.EBX, 0x11)
	b.Hlt()
	return b
}

// TestBlockInvalidationOnSelfModify: a store into the executing code page
// must invalidate the cached block and take effect on the very next
// visit, even when the patched instruction sits later in the same block.
func TestBlockInvalidationOnSelfModify(t *testing.T) {
	mb := newRWXMachine(t, selfPatch())
	nb := runBlocksToHalt(t, mb, 100)
	if got := mb.CPU.Regs[isa.EBX]; got != 0x22 {
		t.Errorf("patched immediate not observed via blocks: EBX = %#x, want 0x22", got)
	}
	if st := mb.BlockStats(); st.Invalidated == 0 {
		t.Errorf("self-modifying store invalidated nothing: %+v", st)
	}

	ms := newRWXMachine(t, selfPatch())
	ms.UseReferenceStep(nil)
	ns := runBlocksToHalt(t, ms, 100)
	if got := ms.CPU.Regs[isa.EBX]; got != 0x22 {
		t.Errorf("patched immediate not observed via steps: EBX = %#x, want 0x22", got)
	}
	if nb != ns {
		t.Errorf("retired %d instructions via blocks, %d via steps", nb, ns)
	}
}

// TestRunBlockBudgetMatchesStep holds RunBlock to an exact budget. For
// every budget from 1 up, the program runs in quanta of that many
// instructions, each driven like the kernel's scheduler loop (RunBlock on
// the remaining budget until it is spent or a trap ends the quantum).
// After every quantum the machine must match one that ran the same number
// of Steps: registers, flags, EIP, InstrCount, and finally memory.
// Budgets shorter than a block end inside it, so the small ones split
// every fused pair (compare-and-branch, the LDB/STB move, the ALU+JMP
// back edge) across two quanta, and the unaligned copy runs entirely on
// uncached one-instruction blocks.
func TestRunBlockBudgetMatchesStep(t *testing.T) {
	programs := []struct {
		name  string
		build func(t *testing.T) *Machine
		mem   [2]uint32 // (va, length) compared at the end
	}{
		{"copyLoop", func(t *testing.T) *Machine { return newTestMachine(t, copyLoop(12)) }, [2]uint32{dataBase, 0x200}},
		// Misaligned by half an instruction, with one instruction straddling
		// the page boundary: no PC has a cached block, so every instruction
		// runs as a one-instruction block fetched at EIP.
		{"copyLoopUnaligned", func(t *testing.T) *Machine {
			return newTestMachineAt(t, copyLoop(12), codeBase+mem.PageSize-3*isa.InstrSize-isa.InstrSize/2)
		}, [2]uint32{dataBase, 0x200}},
		{"selfPatch", func(t *testing.T) *Machine { return newRWXMachine(t, selfPatch()) }, [2]uint32{codeBase, 0x40}},
	}
	for _, p := range programs {
		fused := false
		for budget := uint64(1); budget <= 24; budget++ {
			mb, ms := p.build(t), p.build(t)
			for quantum := 0; ; quantum++ {
				trap := TrapNone
				for rem := budget; rem > 0 && trap == TrapNone; {
					var n uint64
					var err error
					if n, trap, err = mb.RunBlock(rem); err != nil {
						t.Fatalf("%s budget %d: RunBlock: %v", p.name, budget, err)
					}
					if n == 0 || n > rem {
						t.Fatalf("%s budget %d: RunBlock(%d) retired %d", p.name, budget, rem, n)
					}
					rem -= n
				}
				wtrap := TrapNone
				for i := uint64(0); i < budget && wtrap == TrapNone; i++ {
					var err error
					if wtrap, err = ms.Step(); err != nil {
						t.Fatalf("%s budget %d: Step: %v", p.name, budget, err)
					}
				}
				if trap != wtrap || mb.CPU != ms.CPU || mb.InstrCount != ms.InstrCount {
					t.Fatalf("%s budget %d quantum %d: RunBlock trap %v, EIP %#x, count %d; Step trap %v, EIP %#x, count %d",
						p.name, budget, quantum, trap, mb.CPU.EIP, mb.InstrCount, wtrap, ms.CPU.EIP, ms.InstrCount)
				}
				if trap == TrapHalt {
					break
				}
			}
			for va := p.mem[0]; va < p.mem[0]+p.mem[1]; va++ {
				vb, _, _ := mb.DataRead8(va)
				vs, _, _ := ms.DataRead8(va)
				if vb != vs {
					t.Fatalf("%s budget %d: byte %#x = %#x via RunBlock, %#x via Step", p.name, budget, va, vb, vs)
				}
			}
			fused = fused || mb.BlockStats().FusedOps > 0
			if built := mb.BlockStats().Built; p.name == "copyLoopUnaligned" && built != 0 {
				t.Fatalf("%s: built %d blocks at unaligned PCs", p.name, built)
			}
		}
		if p.name == "copyLoop" && !fused {
			t.Errorf("%s: no budget ran a fused micro-op", p.name)
		}
	}
}

// BenchmarkRunBlockTails measures dispatch when every call is a budget
// tail: RunBlock(1) over the copy loop, so each instruction runs as a
// one-instruction prefix of its cached block, or as the uncached
// one-instruction block where the budget splits a fused pair. Reports ns
// per retired instruction.
func BenchmarkRunBlockTails(b *testing.B) {
	var n uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := newTestMachine(b, copyLoop(64))
		b.StartTimer()
		for {
			k, trap, err := m.RunBlock(1)
			n += k
			if err != nil {
				b.Fatal(err)
			}
			if trap == TrapHalt {
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/instr")
}
