package vm

import (
	"errors"
	"strings"
	"testing"

	"faros/internal/isa"
	"faros/internal/mem"
)

const (
	codeBase  = 0x00010000
	dataBase  = 0x00020000
	stackTop  = 0x00031000
	stackBase = 0x00030000
)

// newTestMachine maps code at codeBase, 4 pages of data at dataBase, and a
// stack page, then loads the assembled block.
func newTestMachine(t testing.TB, b *isa.Block) *Machine {
	return newTestMachineAt(t, b, codeBase)
}

// newTestMachineAt is newTestMachine with the code assembled at, and EIP
// starting from, origin (on or after codeBase, before dataBase).
func newTestMachineAt(t testing.TB, b *isa.Block, origin uint32) *Machine {
	t.Helper()
	phys := mem.NewPhys()
	space := mem.NewSpace(phys, 0xC0DE)
	code, err := b.Assemble(origin)
	if err != nil {
		t.Fatal(err)
	}
	codePages := mem.PagesSpanned(codeBase, origin-codeBase+uint32(len(code)))
	if err := space.Map(codeBase, codePages, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	// Write through a temporary RW view: code pages are r-x.
	for i, by := range code {
		pa, err := space.Translate(origin+uint32(i), mem.AccessRead)
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
	m.CPU.EIP = origin
	m.CPU.Regs[isa.ESP] = stackTop
	return m
}

// run drives m through RunBlock, the kernel's dispatch entry, until a trap
// other than TrapNone, a fault, or maxSteps retired instructions.
func run(m *Machine, maxSteps uint64) (Trap, uint64, error) {
	var n uint64
	for n < maxSteps {
		k, trap, err := m.RunBlock(maxSteps - n)
		n += k
		if err != nil || trap != TrapNone {
			return trap, n, err
		}
	}
	return TrapNone, n, nil
}

func runToHalt(t *testing.T, m *Machine, maxSteps uint64) {
	t.Helper()
	trap, _, err := run(m, maxSteps)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if trap != TrapHalt {
		t.Fatalf("trap = %v, want halt", trap)
	}
}

func TestArithmeticAndFlags(t *testing.T) {
	b := isa.NewBlock()
	b.Movi(isa.EAX, 10).Movi(isa.EBX, 3)
	b.Add(isa.EAX, isa.EBX)         // 13
	b.Muli(isa.EAX, 2)              // 26
	b.Subi(isa.EAX, 1)              // 25
	b.Shli(isa.EAX, 2)              // 100
	b.Shri(isa.EAX, 1)              // 50
	b.Xori(isa.EAX, 0xFF)           // 50^255 = 205
	b.Andi(isa.EAX, 0xF0)           // 192
	b.Ori(isa.EAX, 0x05)            // 197
	b.Movi(isa.ECX, 0).Not(isa.ECX) // 0xFFFFFFFF
	b.Hlt()
	m := newTestMachine(t, b)
	runToHalt(t, m, 100)
	if got := m.CPU.Regs[isa.EAX]; got != 197 {
		t.Errorf("EAX = %d, want 197", got)
	}
	if got := m.CPU.Regs[isa.ECX]; got != 0xFFFFFFFF {
		t.Errorf("ECX = %#x", got)
	}
}

func TestLoadsAndStores(t *testing.T) {
	b := isa.NewBlock()
	b.Movi(isa.EBX, dataBase)
	b.Movi(isa.EAX, 0x11223344)
	b.St(isa.EBX, 0, isa.EAX)
	b.Ldb(isa.ECX, isa.EBX, 1) // 0x33 on little endian? byte1 = 0x33
	b.Movi(isa.EDX, 2)
	b.LdbIdx(isa.ESI, isa.EBX, isa.EDX) // byte2 = 0x22
	b.Stb(isa.EBX, 8, isa.ESI)
	b.Ld(isa.EDI, isa.EBX, 8) // 0x00000022
	b.Hlt()
	m := newTestMachine(t, b)
	runToHalt(t, m, 100)
	if got := m.CPU.Regs[isa.ECX]; got != 0x33 {
		t.Errorf("LDB = %#x, want 0x33", got)
	}
	if got := m.CPU.Regs[isa.EDI]; got != 0x22 {
		t.Errorf("round-trip byte = %#x, want 0x22", got)
	}
}

func TestConditionalBranches(t *testing.T) {
	// Compute sum 1..5 with a loop.
	b := isa.NewBlock()
	b.Movi(isa.EAX, 0).Movi(isa.ECX, 1)
	b.Label("loop")
	b.Cmpi(isa.ECX, 5)
	b.Jg("done")
	b.Add(isa.EAX, isa.ECX)
	b.Addi(isa.ECX, 1)
	b.Jmp("loop")
	b.Label("done").Hlt()
	m := newTestMachine(t, b)
	runToHalt(t, m, 200)
	if got := m.CPU.Regs[isa.EAX]; got != 15 {
		t.Errorf("sum = %d, want 15", got)
	}
}

func TestSignedComparisons(t *testing.T) {
	b := isa.NewBlock()
	b.Movi(isa.EAX, 0xFFFFFFFF) // -1
	b.Cmpi(isa.EAX, 1)
	b.Jl("less")
	b.Movi(isa.EBX, 0).Jmp("end")
	b.Label("less").Movi(isa.EBX, 1)
	b.Label("end").Hlt()
	m := newTestMachine(t, b)
	runToHalt(t, m, 50)
	if m.CPU.Regs[isa.EBX] != 1 {
		t.Error("-1 < 1 not taken as signed")
	}
}

func TestCallRetAndStack(t *testing.T) {
	b := isa.NewBlock()
	b.Movi(isa.EAX, 7)
	b.Call("double")
	b.Push(isa.EAX)
	b.Pop(isa.EBX)
	b.Hlt()
	b.Label("double")
	b.Add(isa.EAX, isa.EAX)
	b.Ret()
	m := newTestMachine(t, b)
	runToHalt(t, m, 50)
	if m.CPU.Regs[isa.EBX] != 14 {
		t.Errorf("EBX = %d, want 14", m.CPU.Regs[isa.EBX])
	}
	if m.CPU.Regs[isa.ESP] != stackTop {
		t.Errorf("ESP = %#x, want %#x (balanced)", m.CPU.Regs[isa.ESP], uint32(stackTop))
	}
}

func TestCallThroughRegister(t *testing.T) {
	b := isa.NewBlock()
	b.MoviLabel(isa.ESI, "fn")
	b.Addi(isa.ESI, codeBase) // label offset → absolute
	b.CallReg(isa.ESI)
	b.Hlt()
	b.Label("fn").Movi(isa.EAX, 0x77).Ret()
	m := newTestMachine(t, b)
	runToHalt(t, m, 50)
	if m.CPU.Regs[isa.EAX] != 0x77 {
		t.Errorf("EAX = %#x", m.CPU.Regs[isa.EAX])
	}
}

func TestGetPCIdiom(t *testing.T) {
	b := isa.NewBlock()
	b.GetPC(isa.EAX) // EAX = address of the POP = codeBase + 8
	b.Hlt()
	m := newTestMachine(t, b)
	runToHalt(t, m, 10)
	if got := m.CPU.Regs[isa.EAX]; got != codeBase+8 {
		t.Errorf("GetPC = %#x, want %#x", got, uint32(codeBase+8))
	}
}

// TestFigure1LookupTable runs the paper's Figure 1 address-dependency
// example: str2[j] = lookuptable[str1[j]].
func TestFigure1LookupTable(t *testing.T) {
	const (
		table = dataBase         // 256-byte identity table
		str1  = dataBase + 0x400 // source string
		str2  = dataBase + 0x500 // destination
		n     = 14               // len("Tainted string")
	)
	b := isa.NewBlock()
	// Build identity lookup table.
	b.Movi(isa.ECX, 0)
	b.Movi(isa.EBX, table)
	b.Label("init")
	b.Cmpi(isa.ECX, 256)
	b.Jge("copy")
	b.StbIdx(isa.EBX, isa.ECX, isa.ECX)
	b.Addi(isa.ECX, 1)
	b.Jmp("init")
	// Copy via table: for j in 0..n: str2[j] = table[str1[j]].
	b.Label("copy")
	b.Movi(isa.ECX, 0)
	b.Label("loop")
	b.Cmpi(isa.ECX, n)
	b.Jge("done")
	b.Movi(isa.ESI, str1)
	b.LdbIdx(isa.EAX, isa.ESI, isa.ECX) // EAX = str1[j]
	b.Movi(isa.ESI, table)
	b.LdbIdx(isa.EDX, isa.ESI, isa.EAX) // EDX = table[str1[j]]  (address dep)
	b.Movi(isa.ESI, str2)
	b.StbIdx(isa.ESI, isa.ECX, isa.EDX)
	b.Addi(isa.ECX, 1)
	b.Jmp("loop")
	b.Label("done").Hlt()

	m := newTestMachine(t, b)
	if err := m.Space().WriteBytes(str1, []byte("Tainted string")); err != nil {
		t.Fatal(err)
	}
	runToHalt(t, m, 10000)
	got, err := m.Space().ReadBytes(str2, n, mem.AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "Tainted string" {
		t.Errorf("str2 = %q", got)
	}
}

// TestFigure2BitByBitCopy runs the paper's Figure 2 control-dependency
// example: copy a byte one bit at a time through if statements.
func TestFigure2BitByBitCopy(t *testing.T) {
	const (
		in  = dataBase
		out = dataBase + 4
	)
	b := isa.NewBlock()
	b.Movi(isa.EBX, in)
	b.Ldb(isa.EAX, isa.EBX, 0) // tainted input
	b.Movi(isa.EDX, 0)         // untainted output
	b.Movi(isa.ECX, 1)         // bit
	b.Label("loop")
	b.Cmpi(isa.ECX, 256)
	b.Jge("done")
	b.Mov(isa.ESI, isa.EAX)
	b.And(isa.ESI, isa.ECX)
	b.Cmpi(isa.ESI, 0)
	b.Jz("skip")
	b.Or(isa.EDX, isa.ECX) // untaintedoutput |= bit
	b.Label("skip")
	b.Shli(isa.ECX, 1)
	b.Jmp("loop")
	b.Label("done")
	b.Movi(isa.EBX, out)
	b.Stb(isa.EBX, 0, isa.EDX)
	b.Hlt()

	m := newTestMachine(t, b)
	if err := m.Space().WriteByteAt(in, 0xA7); err != nil {
		t.Fatal(err)
	}
	runToHalt(t, m, 1000)
	got, err := m.Space().ReadByteAt(out, mem.AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xA7 {
		t.Errorf("bit-copied byte = %#x, want 0xA7", got)
	}
}

func TestSyscallTrap(t *testing.T) {
	b := isa.NewBlock()
	b.Movi(isa.EAX, 42).Syscall().Movi(isa.EBX, 1).Hlt()
	m := newTestMachine(t, b)
	trap, _, err := run(m, 10)
	if err != nil || trap != TrapSyscall {
		t.Fatalf("trap = %v, err %v", trap, err)
	}
	if m.CPU.Regs[isa.EAX] != 42 {
		t.Error("syscall number lost")
	}
	// Kernel would handle it; resuming continues after the SYSCALL.
	trap, _, err = run(m, 10)
	if err != nil || trap != TrapHalt {
		t.Fatalf("resume trap = %v, err %v", trap, err)
	}
	if m.CPU.Regs[isa.EBX] != 1 {
		t.Error("execution did not resume after syscall")
	}
}

func TestFaultOnWriteToCode(t *testing.T) {
	b := isa.NewBlock()
	b.Movi(isa.EBX, codeBase)
	b.Movi(isa.EAX, 1)
	b.St(isa.EBX, 0, isa.EAX) // code is r-x
	b.Hlt()
	m := newTestMachine(t, b)
	trap, _, err := run(m, 10)
	if trap != TrapFault || err == nil {
		t.Fatalf("trap = %v, err = %v", trap, err)
	}
	if !strings.Contains(err.Error(), "permission") {
		t.Errorf("unexpected fault: %v", err)
	}
	// EIP must still point at the faulting store (third instruction).
	if m.CPU.EIP != codeBase+2*isa.InstrSize {
		t.Errorf("EIP = %#x", m.CPU.EIP)
	}
}

func TestFaultOnExecData(t *testing.T) {
	b := isa.NewBlock()
	b.Movi(isa.EBX, dataBase).JmpReg(isa.EBX)
	m := newTestMachine(t, b)
	trap, _, err := run(m, 10)
	if trap != TrapFault || err == nil {
		t.Fatalf("jump to rw- data: trap=%v err=%v", trap, err)
	}
}

func TestFaultOnUnmapped(t *testing.T) {
	b := isa.NewBlock()
	b.Movi(isa.EBX, 0x66660000).Ld(isa.EAX, isa.EBX, 0)
	m := newTestMachine(t, b)
	trap, _, err := run(m, 10)
	if trap != TrapFault || err == nil {
		t.Fatalf("unmapped load: trap=%v err=%v", trap, err)
	}
}

func TestInstrCountAdvances(t *testing.T) {
	b := isa.NewBlock()
	b.Nop().Nop().Nop().Hlt()
	m := newTestMachine(t, b)
	runToHalt(t, m, 10)
	if m.InstrCount != 4 {
		t.Errorf("InstrCount = %d, want 4", m.InstrCount)
	}
}

func TestDeterminism(t *testing.T) {
	// Two identical machines must retire identical states.
	build := func() *Machine {
		b := isa.NewBlock()
		b.Movi(isa.EAX, 1)
		b.Label("l").Addi(isa.EAX, 3).Muli(isa.EAX, 5).Cmpi(isa.EAX, 1000000).Jl("l").Hlt()
		phys := mem.NewPhys()
		space := mem.NewSpace(phys, 1)
		code := b.MustAssemble(codeBase)
		_ = space.Map(codeBase, mem.PagesSpanned(codeBase, uint32(len(code))), mem.PermRWX)
		_ = space.WriteBytes(codeBase, code)
		m := New(phys)
		m.SetSpace(space)
		m.CPU.EIP = codeBase
		return m
	}
	m1, m2 := build(), build()
	t1, n1, err1 := run(m1, 100000)
	t2, n2, err2 := run(m2, 100000)
	if t1 != t2 || n1 != n2 || (err1 == nil) != (err2 == nil) {
		t.Fatalf("divergence: %v/%d vs %v/%d", t1, n1, t2, n2)
	}
	if m1.CPU != m2.CPU {
		t.Errorf("CPU state diverged: %+v vs %+v", m1.CPU, m2.CPU)
	}
}

// TestUndecodableFaultTextStable: fetching the same undecodable slot twice
// must fault with the same error text both times. The text reaches
// GuestException.Reason and the guest console, so it may not depend on
// whether some earlier fetch already saw the slot.
func TestUndecodableFaultTextStable(t *testing.T) {
	m := newTestMachine(t, isa.NewBlock().Nop().Hlt())
	pa, err := m.Space().Translate(codeBase, mem.AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Phys().WriteByteAt(pa, 0xFF); err != nil { // not an opcode
		t.Fatal(err)
	}
	m.InvalidateFrame(pa.Frame())
	var texts [2]string
	for i := range texts {
		m.CPU.EIP = codeBase
		n, trap, err := m.RunBlock(10)
		var fe *FaultError
		if !errors.As(err, &fe) || trap != TrapFault || n != 0 || fe.PC != codeBase {
			t.Fatalf("fetch %d: retired %d, trap %v, err %v; want a fault at %#x", i+1, n, trap, err, codeBase)
		}
		texts[i] = err.Error()
	}
	if texts[0] != texts[1] {
		t.Errorf("fault text changed on the second fetch:\nfirst:  %s\nsecond: %s", texts[0], texts[1])
	}
	if !strings.Contains(texts[0], "invalid opcode") {
		t.Errorf("fault text %q does not name the decode error", texts[0])
	}
}
