package vm

import (
	"testing"

	"faros/internal/isa"
	"faros/internal/mem"
)

// TestSelfModifyingCode verifies the block cache invalidates on guest
// stores: a program patches an instruction it already ran (so its block is
// cached) and must execute the patched version, not the cached block.
func TestSelfModifyingCode(t *testing.T) {
	b := isa.NewBlock()
	// Run the target once so it is decoded and cached.
	b.Call("target")
	// Patch target's immediate from 1 to 42: the imm byte lives at
	// target+4.
	b.MoviLabel(isa.EBX, "target")
	b.Addi(isa.EBX, codeBase)
	b.Movi(isa.ECX, 42)
	b.Stb(isa.EBX, 4, isa.ECX)
	b.Call("target")
	b.Hlt()
	b.Label("target")
	b.Movi(isa.EAX, 1)
	b.Ret()

	// Code must be writable for the patch: map RWX.
	phys := mem.NewPhys()
	space := mem.NewSpace(phys, 1)
	code := b.MustAssemble(codeBase)
	if err := space.Map(codeBase, mem.PagesSpanned(codeBase, uint32(len(code))), mem.PermRWX); err != nil {
		t.Fatal(err)
	}
	if err := space.WriteBytes(codeBase, code); err != nil {
		t.Fatal(err)
	}
	if err := space.Map(stackBase, 1, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	m := New(phys)
	m.SetSpace(space)
	m.CPU.EIP = codeBase
	m.CPU.Regs[isa.ESP] = stackTop

	trap, _, err := run(m, 100)
	if err != nil || trap != TrapHalt {
		t.Fatalf("trap=%v err=%v", trap, err)
	}
	if got := m.CPU.Regs[isa.EAX]; got != 42 {
		t.Errorf("EAX = %d, want 42 (stale block?)", got)
	}
	if st := m.BlockStats(); st.Built == 0 || st.Invalidated == 0 {
		t.Errorf("patch did not go through the block cache: %+v", st)
	}
}

// TestKernelWriteInvalidation mirrors cross-process injection: bytes
// written behind the CPU's back and announced via InvalidateFrame must run
// from a freshly built block, not the one cached by the first run.
func TestKernelWriteInvalidation(t *testing.T) {
	b := isa.NewBlock()
	b.Label("probe").Movi(isa.EAX, 7).Hlt()
	phys := mem.NewPhys()
	space := mem.NewSpace(phys, 1)
	code := b.MustAssemble(codeBase)
	if err := space.Map(codeBase, 1, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	frame, _ := space.FrameOf(codeBase)
	f, _ := phys.Frame(frame)
	copy(f[:], code)

	m := New(phys)
	m.SetSpace(space)
	m.CPU.EIP = codeBase
	if trap, _, err := run(m, 10); err != nil || trap != TrapHalt {
		t.Fatalf("first run: %v %v", trap, err)
	}
	if m.CPU.Regs[isa.EAX] != 7 {
		t.Fatal("first run wrong")
	}
	built := m.BlockStats().Built
	if built == 0 {
		t.Fatal("first run built no block")
	}

	// Privileged overwrite (like WriteProcessMemory), then invalidate.
	patched := isa.NewBlock().Movi(isa.EAX, 99).Hlt().MustAssemble(codeBase)
	copy(f[:], patched)
	m.InvalidateFrame(frame)
	m.CPU.EIP = codeBase
	if trap, _, err := run(m, 10); err != nil || trap != TrapHalt {
		t.Fatalf("second run: %v %v", trap, err)
	}
	if got := m.CPU.Regs[isa.EAX]; got != 99 {
		t.Errorf("EAX = %d, want 99 (kernel write not visible)", got)
	}
	if st := m.BlockStats(); st.Built != built+1 || st.Invalidated != 1 {
		t.Errorf("second run did not rebuild the invalidated block: %+v", st)
	}
}

// TestFetchRespectsProtectAfterCache verifies the block TLB's generation
// check: removing exec permission must fault even for pages whose blocks
// are cached.
func TestFetchRespectsProtectAfterCache(t *testing.T) {
	b := isa.NewBlock()
	b.Label("top").Nop().Jmp("top")
	phys := mem.NewPhys()
	space := mem.NewSpace(phys, 1)
	code := b.MustAssemble(codeBase)
	if err := space.Map(codeBase, 1, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	frame, _ := space.FrameOf(codeBase)
	f, _ := phys.Frame(frame)
	copy(f[:], code)

	m := New(phys)
	m.SetSpace(space)
	m.CPU.EIP = codeBase
	if _, _, err := run(m, 10); err != nil {
		t.Fatal(err)
	}
	if err := space.Protect(codeBase, 1, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	trap, _, err := run(m, 10)
	if trap != TrapFault || err == nil {
		t.Errorf("exec after Protect: trap=%v err=%v", trap, err)
	}
}
