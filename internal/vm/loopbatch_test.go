package vm

import (
	"bytes"
	"fmt"
	"testing"

	"faros/internal/isa"
	"faros/internal/mem"
	"faros/internal/vm/vmtest"
)

// withoutLoopBatches gives m a private block table holding the blocks of
// its code page with their loop descriptors stripped, so the plain
// executor runs every pass micro-op by micro-op: the per-pass dispatch a
// batch must be indistinguishable from.
func withoutLoopBatches(t *testing.T, m *Machine) {
	t.Helper()
	pa, err := m.space.Translate(codeBase, mem.AccessExec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.phys.Frame(pa.Frame())
	if err != nil {
		t.Fatal(err)
	}
	tab := &blockTable{m: make(map[string]*Block)}
	for off := uint32(0); off < mem.PageSize; off += isa.InstrSize {
		key := blockKey(f, off)
		if b := decodeBlock(key); b != unbuildable {
			b.Loop = nil
			tab.m[string(key)] = b
		}
	}
	m.blockTab = tab
}

// runQuantum runs budget instructions through RunBlock as the kernel's
// scheduler would, chaining calls until the budget, a trap or a fault ends
// the quantum.
func runQuantum(t *testing.T, m *Machine, budget uint64) (Trap, error) {
	t.Helper()
	trap, err := TrapNone, error(nil)
	for rem := budget; rem > 0 && trap == TrapNone && err == nil; {
		var n uint64
		n, trap, err = m.RunBlock(rem)
		if n > rem || (n == 0 && trap == TrapNone && err == nil) {
			t.Fatalf("RunBlock(%d) retired %d (trap %v)", rem, n, trap)
		}
		rem -= n
	}
	return trap, err
}

// TestLoopBatchBoundaries runs Table V-shaped counted loops
// (vmtest.Counted) at the edges of the batch rule — buffers straddling a
// page end, a load or store running into an unmapped page, a store into
// the loop's own code page, register bases, a JZ exit test — in quanta of
// 61 and 256 instructions. The batching machine must match Step after
// every quantum (CPU, InstrCount, trap and fault) and on memory at the
// end, and match a machine that runs every pass micro-op by micro-op on
// every block counter but BatchedPasses, which must be nonzero exactly
// where the batch can run.
func TestLoopBatchBoundaries(t *testing.T) {
	const page = mem.PageSize
	cases := []struct {
		name    string
		loop    vmtest.Counted
		batched bool
	}{
		{"copy", vmtest.Counted{Src: dataBase + 0x10, Dst: dataBase + page + 0x10, N: 300}, true},
		{"copy straddling page ends", vmtest.Counted{Src: dataBase + page - 150, Dst: dataBase + 2*page - 37, N: 400}, true},
		{"accumulate straddling a page end, JZ exit", vmtest.Counted{Src: dataBase + page - 200, N: 400, Accumulate: true, ExitZ: true}, true},
		{"register-base copy", vmtest.Counted{Src: dataBase + page - 150, Dst: dataBase + 2*page - 37, N: 400, RegBase: true}, true},
		{"register-base accumulate", vmtest.Counted{Src: dataBase + 3*page - 90, N: 300, Accumulate: true, RegBase: true}, true},
		{"load into an unmapped page", vmtest.Counted{Src: dataBase + 4*page - 50, Dst: dataBase + 0x10, N: 200}, true},
		{"store into an unmapped page", vmtest.Counted{Src: dataBase + 0x10, Dst: dataBase + 4*page - 20, N: 200}, true},
		{"store into its own code page", vmtest.Counted{Src: dataBase + 0x10, Dst: codeBase + 0x800, N: 100}, false},
	}
	for _, c := range cases {
		for _, quantum := range []uint64{61, 256} {
			t.Run(fmt.Sprintf("%s/q%d", c.name, quantum), func(t *testing.T) {
				prog := isa.NewBlock()
				c.loop.Emit(prog)
				mb, mu, ms := newRWXMachine(t, prog), newRWXMachine(t, prog), newRWXMachine(t, prog)
				for _, m := range []*Machine{mb, mu, ms} {
					if err := m.space.WriteBytes(dataBase, vmtest.Pattern(4*page)); err != nil {
						t.Fatal(err)
					}
				}
				mb.blockTab = &blockTable{} // generated code stays out of the process-wide table
				withoutLoopBatches(t, mu)
				for q := 0; ; q++ {
					trap, err := runQuantum(t, mb, quantum)
					utrap, uerr := runQuantum(t, mu, quantum)
					strap, serr := TrapNone, error(nil)
					for i := uint64(0); i < quantum && strap == TrapNone && serr == nil; i++ {
						strap, serr = ms.Step()
					}
					for _, o := range []struct {
						name string
						m    *Machine
						trap Trap
						err  error
					}{{"per-pass", mu, utrap, uerr}, {"Step", ms, strap, serr}} {
						if trap != o.trap || fmt.Sprint(err) != fmt.Sprint(o.err) {
							t.Fatalf("quantum %d: batched trap %v err %v; %s trap %v err %v", q, trap, err, o.name, o.trap, o.err)
						}
						if mb.CPU != o.m.CPU || mb.InstrCount != o.m.InstrCount {
							t.Fatalf("quantum %d: batched EIP %#x count %d regs %v; %s EIP %#x count %d regs %v",
								q, mb.CPU.EIP, mb.InstrCount, mb.CPU.Regs, o.name, o.m.CPU.EIP, o.m.InstrCount, o.m.CPU.Regs)
						}
					}
					if trap != TrapNone || q > 10_000 {
						break
					}
				}
				for _, r := range [][2]uint32{{dataBase, 4 * page}, {codeBase, page}} {
					gb, _ := mb.space.ReadBytes(r[0], int(r[1]), mem.AccessRead)
					gs, _ := ms.space.ReadBytes(r[0], int(r[1]), mem.AccessRead)
					if !bytes.Equal(gb, gs) {
						t.Fatalf("memory at %#x diverged", r[0])
					}
				}
				got, want := mb.BlockStats(), mu.BlockStats()
				if batched := got.BatchedPasses; (batched > 0) != c.batched {
					t.Errorf("BatchedPasses %d, want nonzero %v", batched, c.batched)
				}
				got.BatchedPasses = 0
				if got != want {
					t.Errorf("block counters: batched %+v, per-pass %+v", got, want)
				}
			})
		}
	}
}

// TestCountedLoopDescriptor: decodeBlock marks exactly the blocks the
// batch rule admits.
func TestCountedLoopDescriptor(t *testing.T) {
	loopBlock := func(emit func(b *isa.Block)) *Block {
		b := isa.NewBlock()
		b.Label("top")
		emit(b)
		code, err := b.Assemble(codeBase)
		if err != nil {
			t.Fatal(err)
		}
		return decodeBlock(code)
	}
	head := func(b *isa.Block) { b.Cmpi(isa.ECX, 40).Jge("out") }
	edge := func(b *isa.Block) { b.Addi(isa.ECX, 1).Jmp("top").Label("out") }
	for _, c := range []struct {
		name string
		body func(b *isa.Block)
		want bool
	}{
		{"copy", func(b *isa.Block) {
			b.Movi(isa.ESI, dataBase).LdbIdx(isa.EAX, isa.ESI, isa.ECX).Xori(isa.EAX, 1).Movi(isa.ESI, dataBase+0x100).StbIdx(isa.ESI, isa.ECX, isa.EAX)
		}, true},
		{"register bases", func(b *isa.Block) { b.LdbIdx(isa.EAX, isa.ESI, isa.ECX).StbIdx(isa.EDI, isa.ECX, isa.EAX) }, true},
		{"store of the induction register", func(b *isa.Block) { b.StbIdx(isa.EDI, isa.ECX, isa.ECX) }, true},
		{"store before a load", func(b *isa.Block) { b.StbIdx(isa.EDI, isa.ECX, isa.EAX).LdbIdx(isa.EAX, isa.ESI, isa.ECX) }, false},
		{"word access", func(b *isa.Block) { b.LdIdx(isa.EAX, isa.ESI, isa.ECX) }, false},
		{"index other than the induction register", func(b *isa.Block) { b.LdbIdx(isa.EAX, isa.ESI, isa.EDX) }, false},
		{"load into a register base", func(b *isa.Block) { b.LdbIdx(isa.EDI, isa.ESI, isa.ECX).StbIdx(isa.EDI, isa.ECX, isa.EAX) }, false},
		{"folded ALU into the induction register", func(b *isa.Block) { b.LdbIdx(isa.EAX, isa.ESI, isa.ECX).Add(isa.ECX, isa.EAX) }, false},
		{"store of a base register", func(b *isa.Block) { b.StbIdx(isa.EDI, isa.ECX, isa.EDI) }, false},
		{"MOVI into a register base", func(b *isa.Block) {
			b.LdbIdx(isa.EAX, isa.ESI, isa.ECX).Movi(isa.ESI, dataBase).StbIdx(isa.ESI, isa.ECX, isa.EAX)
		}, false},
		{"non-access micro-op", func(b *isa.Block) { b.LdbIdx(isa.EAX, isa.ESI, isa.ECX).Nop() }, false},
	} {
		b := loopBlock(func(b *isa.Block) { head(b); c.body(b); edge(b) })
		if got := b.Loop != nil; got != c.want {
			t.Errorf("%s: counted loop %v, want %v (uops %+v)", c.name, got, c.want, b.Uops)
		}
	}
	// The edge must add exactly 1 to the tested register.
	for name, edge := range map[string]func(b *isa.Block){
		"step 2":         func(b *isa.Block) { b.Addi(isa.ECX, 2).Jmp("top") },
		"other register": func(b *isa.Block) { b.Addi(isa.EDX, 1).Jmp("top") },
	} {
		b := loopBlock(func(b *isa.Block) { head(b); b.LdbIdx(isa.EAX, isa.ESI, isa.ECX); edge(b); b.Label("out") })
		if b.Loop != nil {
			t.Errorf("%s: counted loop, want none", name)
		}
	}
}

// TestExitPass holds exitPass to a pass-by-pass evaluation of the exit
// test, for every condition, around each point where its outcome can
// change: the compared immediate and the signed wrap.
func TestExitPass(t *testing.T) {
	conds := []isa.Op{isa.OpJz, isa.OpJnz, isa.OpJl, isa.OpJge, isa.OpJg, isa.OpJle}
	points := []uint32{0, 1, 40, 1<<31 - 3, 1 << 31, 1<<31 + 2, 1<<32 - 2}
	for _, op := range conds {
		for _, imm := range points {
			head := isa.Uop{Kind: isa.UCmpJccRI, Op: op, Imm: imm}
			for _, at := range points {
				for d := uint32(0); d < 8; d++ {
					i := at - d
					const n = 12
					want := uint32(n)
					for p := uint32(0); p < n; p++ {
						if v := i + p; isa.CondTaken(op, v == imm, int32(v) < int32(imm)) {
							want = p
							break
						}
					}
					if got := exitPass(&head, i, n); got != want {
						t.Fatalf("%v against %#x from %#x: exitPass %d, want %d", op, imm, i, got, want)
					}
				}
			}
		}
	}
}
