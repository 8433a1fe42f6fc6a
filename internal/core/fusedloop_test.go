package core

import (
	"bytes"
	"reflect"
	"testing"

	"faros/internal/guest"
	"faros/internal/mem"
	"faros/internal/peimg"
	"faros/internal/taint"
	"faros/internal/vm/vmtest"
)

// loopRun is one generated loop (vmtest.Loop) running as a guest process
// with FAROS attached, its data filled with vmtest.Pattern and the first
// half of its source bytes stamped with a netflow tag.
type loopRun struct {
	k    *guest.Kernel
	f    *FAROS
	p    *guest.Process
	data uint32
}

// loopDataLen is the data the generated loops touch (vmtest.Layout).
const loopDataLen = 0x400

// newLoopRun spawns the loop, on the reference interpreter when ref is
// set. The loop's code page is the image's r-x text, where the code-store
// events fault; rwx makes it writable, so they patch the running loop.
func newLoopRun(t *testing.T, l vmtest.Loop, cfg Config, ref, rwx bool) *loopRun {
	t.Helper()
	k, f := newKernelWithFAROS(t, cfg)
	if ref {
		UseRefStep(k)
	}
	p, data := spawnLoop(t, k, l, rwx)
	nf := f.T.Single(f.T.InternNetflow(taint.NetflowTag{SrcIP: attackerAddr.IP, SrcPort: uint16(attackerAddr.Port)}))
	f.memSetRange(p.Space, data, 0x80, nf)
	return &loopRun{k: k, f: f, p: p, data: data}
}

// spawnLoop installs the loop as an image on k and spawns it with its data
// filled with vmtest.Pattern, returning the process and the data address.
func spawnLoop(t *testing.T, k *guest.Kernel, l vmtest.Loop, rwx bool) (*guest.Process, uint32) {
	t.Helper()
	b := peimg.NewBuilder("loop.exe")
	// A data word ahead of the BSS: peimg.Unmarshal rejects an image whose
	// last section carries no bytes.
	b.DataBlk.Word(0)
	data := b.BSS(loopDataLen)
	code := b.Base + peimg.TextOff
	l.Emit(b.Text, vmtest.Layout{Data: data, Code: code})
	install(t, k, b, "loop.exe")
	p, err := k.Spawn("loop.exe", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rwx {
		if err := p.Space.Protect(code, 1, mem.PermRWX); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Space.WriteBytes(data, vmtest.Pattern(loopDataLen)); err != nil {
		t.Fatal(err)
	}
	return p, data
}

// shadow returns the shadow IDs over the loop's data page (nil while it
// has no shadow page).
func (r *loopRun) shadow(t *testing.T) []taint.ProvID {
	pa, err := r.p.Space.Translate(r.data, mem.AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	return r.f.T.PageIDs(uint64(pa.Frame()))
}

// FuzzFusedLoop is FuzzLoopBudget's FAROS leg: the same generated loops
// run under FAROS through block dispatch (execFused, which batches the
// passes of counted loops) and through the per-instruction reference
// (UseRefStep), in quanta drawn from a budget sequence, under each engine
// configuration that changes what the executor does. After every quantum
// the two must agree on the kernel's run summary, CPU state, InstrCount,
// the process's register taint bank, the shadow IDs over the data page and
// the findings; at the end, on the data page's bytes. Bit 0x100 of patch
// makes the code page writable, turning the code-store events' faults into
// self-modifying-code exits.
func FuzzFusedLoop(f *testing.F) {
	// FuzzLoopBudget's seed shapes: the Table V copy and accumulate bodies
	// and every other wide shape and guard at budgets that split each wide
	// micro-op at every offset and at whole-block budgets, plus the fault
	// and code-store events inside wide micro-ops, under every config.
	bodies := [][]byte{{8, 3, 10}, {8, 2}, {9, 2, 11, 18, 12, 3, 18, 13, 14, 18, 16, 19}, {0, 17, 8, 2, 0, 3, 0, 1, 18, 15}}
	for cfg := uint8(0); cfg < 4; cfg++ {
		for _, body := range bodies {
			for _, budgets := range [][]byte{{0}, {1}, {2}, {255}} {
				f.Add(body, uint8(vmtest.EdgeAluJmp), uint8(vmtest.EventNone), uint8(0), uint8(9), uint16(0), budgets, cfg)
			}
			for _, budgets := range [][]byte{{2, 0, 1}, {255}} {
				f.Add(body, uint8(vmtest.EdgeCmpJcc), uint8(vmtest.EventWideBadLoad), uint8(4), uint8(9), uint16(0), budgets, cfg)
				f.Add(body, uint8(vmtest.EdgeJmp), uint8(vmtest.EventWideCodeStore), uint8(2), uint8(9), uint16(0x10), budgets, cfg)
				f.Add(body, uint8(vmtest.EdgeJmp), uint8(vmtest.EventWideCodeStore), uint8(2), uint8(9), uint16(0x110), budgets, cfg)
			}
		}
		f.Add([]byte{0, 1, 6, 2}, uint8(vmtest.EdgeJcc), uint8(vmtest.EventBadLoad), uint8(5), uint8(12), uint16(0), []byte{2, 9}, cfg)
		// Head-tested counted byte loops long enough that their passes batch
		// (loopBatch), over the tainted first half of the source and on.
		for _, body := range [][]byte{{0, 1}, {8, 3, 10}, {8, 2}, {0, 2}} {
			for _, budgets := range [][]byte{{60}, {255}} {
				f.Add(body, uint8(vmtest.EdgeAluJmp), uint8(vmtest.EventNone), uint8(0), uint8(48), uint16(0), budgets, cfg)
			}
		}
	}
	configs := []Config{{}, {StrictExecCheck: true}, {PropagateAddrDeps: true}, {NoProcessTags: true}}
	f.Fuzz(func(t *testing.T, body []byte, edge, event, k, n uint8, patch uint16, budgets []byte, cfg uint8) {
		l := vmtest.Loop{Body: body, Edge: edge, Event: event, K: k, N: n % 64, Patch: patch}
		c := configs[int(cfg)%len(configs)]
		rwx := patch&0x100 != 0
		rb, rr := newLoopRun(t, l, c, false, rwx), newLoopRun(t, l, c, true, rwx)
		if len(budgets) == 0 {
			budgets = []byte{255}
		}
		const maxInstr = 4000
		for q := 0; rb.k.M.InstrCount < maxInstr; q++ {
			budget := uint64(budgets[q%len(budgets)]) + 1
			sb, errb := rb.k.Run(rb.k.M.InstrCount + budget)
			sr, errr := rr.k.Run(rr.k.M.InstrCount + budget)
			if errb != nil || errr != nil {
				t.Fatalf("quantum %d: Run errors: blocks %v, ref %v", q, errb, errr)
			}
			if !reflect.DeepEqual(sb, sr) {
				t.Fatalf("quantum %d (budget %d): run summary: blocks %+v, ref %+v", q, budget, sb, sr)
			}
			if rb.k.M.CPU != rr.k.M.CPU || rb.k.M.InstrCount != rr.k.M.InstrCount {
				t.Fatalf("quantum %d (budget %d): blocks EIP %#x count %d regs %v; ref EIP %#x count %d regs %v", q, budget,
					rb.k.M.CPU.EIP, rb.k.M.InstrCount, rb.k.M.CPU.Regs, rr.k.M.CPU.EIP, rr.k.M.InstrCount, rr.k.M.CPU.Regs)
			}
			if bb, br := rb.f.banks[rb.p.CR3()], rr.f.banks[rr.p.CR3()]; *bb != *br {
				t.Fatalf("quantum %d (budget %d): register taint: blocks %v, ref %v", q, budget, *bb, *br)
			}
			if gb, gr := rb.shadow(t), rr.shadow(t); !reflect.DeepEqual(gb, gr) {
				t.Fatalf("quantum %d (budget %d): data page shadow diverged", q, budget)
			}
			if !reflect.DeepEqual(rb.f.Findings(), rr.f.Findings()) {
				t.Fatalf("quantum %d (budget %d): findings: blocks %d, ref %d", q, budget, len(rb.f.Findings()), len(rr.f.Findings()))
			}
			if sb.LiveProcs == 0 {
				break
			}
		}
		gb, _ := rb.p.Space.ReadBytes(rb.data, loopDataLen, mem.AccessRead)
		gr, _ := rr.p.Space.ReadBytes(rr.data, loopDataLen, mem.AccessRead)
		if !bytes.Equal(gb, gr) {
			t.Fatal("data page bytes diverged")
		}
	})
}

// TestFaultChargesFusedOps: a loop of wide micro-ops that faults after
// several in-place passes charges the same FusedOps with and without
// FAROS, so retired instructions minus FusedOps counts the micro-ops
// dispatched under either executor.
func TestFaultChargesFusedOps(t *testing.T) {
	for _, ev := range []uint8{vmtest.EventBadLoad, vmtest.EventWideBadLoad} {
		l := vmtest.Loop{Body: []byte{8, 3, 10}, Edge: vmtest.EdgeAluJmp, Event: ev, K: 5, N: 12}
		r := newLoopRun(t, l, Config{}, false, false)
		plain, err := guest.NewKernel()
		if err != nil {
			t.Fatal(err)
		}
		spawnLoop(t, plain, l, false)
		var fused [2]uint64
		for i, k := range []*guest.Kernel{r.k, plain} {
			sum, err := k.Run(10_000)
			if err != nil {
				t.Fatal(err)
			}
			if len(sum.Faults) != 1 || sum.LiveProcs != 0 {
				t.Fatalf("event %d: run %d: %+v, want one fault ending the loop", ev, i, sum)
			}
			fused[i] = k.M.BlockStats().FusedOps
		}
		if r.k.M.InstrCount != plain.M.InstrCount {
			t.Fatalf("event %d: retired %d under FAROS, %d without", ev, r.k.M.InstrCount, plain.M.InstrCount)
		}
		// Five passes of MOVI+LDB+XORI and ADDI+JMP fold three instructions each.
		if fused[0] != fused[1] || fused[0] < 5*3 {
			t.Errorf("event %d: FusedOps %d under FAROS, %d without; want equal and at least 15", ev, fused[0], fused[1])
		}
	}
}
