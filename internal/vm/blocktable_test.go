package vm

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"faros/internal/isa"
	"faros/internal/mem"
)

// referenceBlock builds the block at off by decoding the page directly,
// slot by slot, with no key: the oracle for blockKey and the table.
func referenceBlock(f *[mem.PageSize]byte, off uint32) *Block {
	b := &Block{}
	for o := off; o <= mem.PageSize-isa.InstrSize; o += isa.InstrSize {
		in, err := isa.Decode(f[o : o+isa.InstrSize])
		if err != nil {
			break
		}
		b.Ins = append(b.Ins, in)
		if endsBlock(in.Op) {
			b.EndTrap = endTrap(in.Op)
			break
		}
	}
	if len(b.Ins) == 0 {
		return unbuildable
	}
	b.NInstr = len(b.Ins)
	b.Uops = isa.Lower(b.Ins)
	for i := range b.Uops {
		b.Fused += int(b.Uops[i].N) - 1
	}
	return b
}

// fullPage assembles a page-long block of code unique to i: 511 MOVs and
// a HLT. The last MOV leaves i<<16|510 in lastReg.
func fullPage(i uint32) *isa.Block {
	b := isa.NewBlock()
	for k := uint32(0); k < pageSlots-1; k++ {
		b.Movi(isa.Reg(k%4), i<<16|k)
	}
	b.Hlt()
	return b
}

// lastReg is the register fullPage's last MOV writes.
const lastReg = isa.Reg((pageSlots - 2) % 4)

// keyAt returns the block key at pc in m's active address space.
func keyAt(t *testing.T, m *Machine, pc uint32) []byte {
	t.Helper()
	pa, err := m.space.Translate(pc, mem.AccessExec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.phys.Frame(pa.Frame())
	if err != nil {
		t.Fatal(err)
	}
	return blockKey(f, pa.Offset())
}

// TestBlockTableBound fills a block table past its byte bound with
// distinct code pages. The table must stop growing within the bound, the
// machines after it must run on private blocks, and a private block must
// equal the shared block of the same bytes.
func TestBlockTableBound(t *testing.T) {
	tab := &blockTable{}
	// run executes fullPage(i) on a fresh machine over tab and returns the
	// block it ran with its key.
	run := func(i uint32) (*Block, []byte) {
		m := newTestMachine(t, fullPage(i))
		defer m.Release()
		m.blockTab = tab
		b := m.lookupBlock(codeBase)
		if b == nil || b.NInstr != pageSlots {
			t.Fatalf("page %d: block %+v, want %d instructions", i, b, pageSlots)
		}
		runToHalt(t, m, pageSlots)
		if got, want := m.CPU.Regs[lastReg], i<<16|(pageSlots-2); got != want {
			t.Fatalf("page %d: %v = %#x, want %#x", i, lastReg, got, want)
		}
		if st := m.BlockStats(); st.Built != 1 {
			t.Fatalf("page %d: built = %d, want 1 attached block", i, st.Built)
		}
		return b, keyAt(t, m, codeBase)
	}

	var i uint32
	for ; ; i++ {
		n := len(tab.m)
		run(i)
		if len(tab.m) == n {
			break // page i was the first one the table did not keep
		}
		if i > sharedBlockBytes/mem.PageSize {
			t.Fatalf("table still growing after %d pages (%d bytes)", i+1, tab.bytes)
		}
	}
	full, kept := tab.bytes, len(tab.m)
	if full > sharedBlockBytes {
		t.Fatalf("table holds %d bytes, bound %d", full, sharedBlockBytes)
	}
	t.Logf("table full after %d pages: %d blocks, %d bytes", i+1, kept, full)

	for range 3 {
		i++
		b, key := run(i)
		if tab.m[string(key)] != nil || len(tab.m) != kept || tab.bytes != full {
			t.Fatalf("page %d past the bound grew the table to %d blocks, %d bytes", i, len(tab.m), tab.bytes)
		}
		shared := (&blockTable{}).lookup(key)
		if !reflect.DeepEqual(b, shared) {
			t.Fatalf("page %d: private block differs from the shared block of the same bytes", i)
		}
	}

	// A full table still serves the bytes it holds.
	b, key := run(0)
	if tab.m[string(key)] != b {
		t.Fatal("full table no longer shares the block it holds")
	}
	// The gauges report what it holds and the four pages past the bound.
	if st := tab.stats(); st != (BlockTableStats{Entries: kept, Bytes: full, Private: 4}) {
		t.Fatalf("table stats %+v, want %d entries, %d bytes, 4 private", st, kept, full)
	}
}

// FuzzBuildBlock decodes the block at an arbitrary offset of an arbitrary
// page. It must never panic; the shared block must equal a direct decode
// of the page and a fresh private build of its key; a second lookup must
// return the same pointer; and the bytes outside the key must not matter.
func FuzzBuildBlock(f *testing.F) {
	for _, b := range []*isa.Block{copyLoop(16), fullPage(0)} {
		code, err := b.Assemble(codeBase)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(code, uint16(0))
		f.Add(code, uint16(5*isa.InstrSize))
	}
	f.Add([]byte{}, uint16(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint16(1))
	f.Fuzz(func(t *testing.T, page []byte, off uint16) {
		var frame [mem.PageSize]byte
		copy(frame[:], page)
		o := uint32(off) % pageSlots * isa.InstrSize
		key := blockKey(&frame, o)
		tab := &blockTable{}
		b := tab.lookup(key)
		if want := referenceBlock(&frame, o); !reflect.DeepEqual(b, want) {
			t.Fatalf("shared block %+v, direct decode %+v", b, want)
		}
		if priv := decodeBlock(key); !reflect.DeepEqual(priv, b) {
			t.Fatalf("shared block %+v, private build %+v", b, priv)
		}
		if again := tab.lookup(slices.Clone(key)); again != b {
			t.Fatal("second lookup of the same bytes returned another block")
		}
		var other [mem.PageSize]byte
		for i := range other {
			other[i] = ^frame[i]
		}
		copy(other[o:], key)
		if k := blockKey(&other, o); !bytes.Equal(k, key) {
			t.Fatalf("key depends on bytes outside it: % x vs % x", k, key)
		}
		if want := referenceBlock(&other, o); !reflect.DeepEqual(b, want) {
			t.Fatal("block depends on bytes outside its key")
		}
	})
}
