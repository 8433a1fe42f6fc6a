package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"faros/internal/guest"
	"faros/internal/mem"
	"faros/internal/taint"
	"faros/internal/vm/vmtest"
)

// Kinds of source run FuzzLoopRuns lays out, one per run byte (mod 4).
const (
	runNetflowA = iota // bytes from one connection
	runNetflowB        // bytes from another
	runExport          // export-table bytes, read by tainted code
	runGap             // untainted bytes
)

// runLayout is FuzzLoopRuns' input decoded: a counted loop and the taint
// its source bytes and destination bytes start with.
type runLayout struct {
	loop func(data, code uint32) vmtest.Counted
	// runs lays the source out as runs, one byte each: the kind in the low
	// two bits, the length minus one above them. Source bytes past the
	// last run are untainted.
	runs []byte
	// Destination bytes [clearOff, clearOff+clearLen) past Dst carry the
	// first connection's taint before the loop runs: an untainted source
	// run stored over all of them clears the page's last tainted byte.
	clearOff, clearLen uint32
	// fresh empties the engine's page entries after the taint is laid out.
	// The range writes that lay it out fill the store entry before they
	// allocate the shadow page under it, leaving an entry with no shadow
	// ids, through which every store to that page takes taintStore; a
	// fresh loop refills its entries itself.
	fresh bool
}

// newRunLayout decodes the fuzz input: a loop of 1 + n%600 passes whose
// source starts srcOff into the data (batchDataLen, as in newBatchRun)
// and whose destination sits dst bytes from the source, or at the end of
// the data where that does not fit; shape bit 0 makes it the accumulate
// loop, which stores its bytes too with bit 4, bit 1 gives the loop
// register bases, bit 2 a JZ exit and bit 3 a second store. Bit 5 empties
// the engine's page entries once the taint is laid out (runLayout.fresh).
func newRunLayout(runs []byte, shape uint8, n, srcOff uint16, dst int16, clearOff uint16, clearLen uint8) runLayout {
	nb := 1 + uint32(n)%600
	loop := func(data, _ uint32) vmtest.Counted {
		src := data + uint32(srcOff)%(batchDataLen-nb)
		d := int64(src) + int64(dst)
		if d < int64(data) || d+int64(nb) > int64(data+batchDataLen) {
			d = int64(data + batchDataLen - nb)
		}
		l := vmtest.Counted{Src: src, Dst: uint32(d), N: nb, Accumulate: shape&1 != 0, RegBase: shape&2 != 0, ExitZ: shape&4 != 0}
		if l.Accumulate && shape&16 == 0 {
			l.Dst = 0 // no store
			return l
		}
		if shape&8 != 0 {
			// A second store, a byte past the first's when that fits.
			l.Dst2 = l.Dst + 1
			if l.Dst2+nb > data+batchDataLen {
				l.Dst2 = data
			}
		}
		return l
	}
	return runLayout{loop: loop, runs: runs, clearOff: uint32(clearOff) % nb, clearLen: uint32(clearLen), fresh: shape&32 != 0}
}

// spawn starts the layout's loop as newBatchRun does and lays out its
// taint. Every run interns the same lists in the same order, so their ids
// agree.
func (lay runLayout) spawn(t *testing.T, cfg Config, quantum uint64, mode int) *batchRun {
	t.Helper()
	r, l := spawnCounted(t, lay.loop, cfg, quantum, mode, false)
	f, s := r.f, r.p.Space
	netflow := func(port uint16) taint.ProvID {
		return f.T.Single(f.T.InternNetflow(taint.NetflowTag{SrcIP: attackerAddr.IP, SrcPort: port}))
	}
	ids := [...]taint.ProvID{runNetflowA: netflow(uint16(attackerAddr.Port)), runNetflowB: netflow(uint16(attackerAddr.Port) + 1), runExport: f.T.Single(f.exportTag)}
	if lay.clearLen > 0 && l.Dst != 0 {
		end := min(l.Dst+lay.clearOff+lay.clearLen, r.data+batchDataLen)
		f.memSetRange(s, l.Dst+lay.clearOff, int(end-l.Dst-lay.clearOff), ids[runNetflowA])
	}
	at, exported := uint32(0), false
	for _, b := range lay.runs {
		kind, n := b&3, min(uint32(b>>2)+1, l.N-at)
		if kind != runGap {
			f.memSetRange(s, l.Src+at, int(n), ids[kind])
		}
		exported = exported || kind == runExport && n > 0
		if at += n; at == l.N {
			break
		}
	}
	if exported {
		f.memSetRange(s, r.code, mem.PageSize, f.T.Prepend(ids[runNetflowA], f.procTag(r.p)))
	}
	if lay.fresh {
		f.tlb = [3]pageTLB{}
	}
	return r
}

// dataShadow returns the shadow ids over the data's four pages (nil for a
// page with no shadow page).
func (r *batchRun) dataShadow(t *testing.T) [][]taint.ProvID {
	var out [][]taint.ProvID
	for va := mem.PageBase(r.data); va < r.data+batchDataLen; va += mem.PageSize {
		pa, err := r.p.Space.Translate(va, mem.AccessRead)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.f.T.PageIDs(uint64(pa.Frame())))
	}
	return out
}

// FuzzLoopRuns runs counted loops (vmtest.Counted) whose source is laid
// out as several runs of equal provenance — two connections, export-table
// bytes read by tainted code, untainted gaps — with run boundaries that
// fall at every pass of a batch as the quantum moves them, and with
// destination bytes whose taint an untainted run clears. Each layout runs
// through FAROS's block dispatch, which batches a run at a time
// (loopShadow), through the same dispatch with every pass micro-op by
// micro-op (perPassPlugin) and through the per-instruction reference
// (UseRefStep), under the default config, StrictExecCheck and
// NoProcessTags. After every quantum the three must agree on the run
// summary, CPU state, InstrCount, register taint, the shadow ids over the
// data and the findings; the batched run must match the per-pass one on
// every core.Stats and taint.Stats counter but BatchedPasses, on the
// shadow change count and on the bank's dirty flag and rescan counter
// (recheckBank), and the reference on the counters it keeps
// (engineCounters). At the end the data bytes must agree.
func FuzzLoopRuns(f *testing.F) {
	run := func(kind byte, n int) byte { return kind | byte(n-1)<<2 }
	// Two connections in runs of 1 to 12 bytes: the quanta move the
	// boundaries to every pass of a batch, the first, second and last
	// included.
	var stairs []byte
	for n := 1; n <= 12; n++ {
		stairs = append(stairs, run(byte(n%2), n))
	}
	layouts := []struct {
		runs      []byte
		shape     uint8
		n, srcOff uint16
		dst       int16
		clearOff  uint16
		clearLen  uint8
	}{
		{stairs, 0, 300, 0x10, 0x1100, 0, 0},
		{stairs, 1, 300, 0x10, 0, 0, 0},
		{stairs, 2, 400, mem.PageSize - 150, 0x1000, 0, 0},
		// Export-table bytes mid-source, and a gap between connections.
		{[]byte{run(runNetflowA, 30), run(runExport, 1), run(runNetflowB, 30)}, 0, 200, 0x10, 0x1100, 0, 0},
		{[]byte{run(runNetflowA, 40), run(runExport, 2), run(runGap, 20), run(runNetflowB, 40)}, 5, 200, 0x10, 0, 0, 0},
		{[]byte{run(runNetflowA, 40), run(runGap, 20), run(runNetflowB, 40)}, 0, 200, 0x10, 0x1100, 0, 0},
		{[]byte{run(runNetflowA, 5), run(runGap, 50), run(runNetflowB, 3), run(runGap, 37), run(runNetflowA, 9), run(runGap, 64)}, 0, 400, 0x10, 0x1100, 0, 0},
		{[]byte{run(runNetflowA, 5), run(runGap, 50), run(runNetflowB, 3), run(runGap, 37), run(runNetflowA, 9), run(runGap, 64)}, 1, 400, 0x10, 0, 0, 0},
		// An untainted run stored over the destination's only taint: the
		// store that clears the page's last tainted byte, and the zero
		// stores after it.
		{[]byte{run(runNetflowA, 8), run(runGap, 64), run(runGap, 64)}, 0, 200, 0x10, 0x2000, 20, 30},
		{[]byte{run(runGap, 64), run(runNetflowB, 4), run(runGap, 64)}, 2, 180, 0x10, 0x2000, 10, 50},
		// Stores a byte behind, in place, and a few bytes ahead of the load
		// on the same page.
		{stairs, 0, 120, 0x10, -1, 0, 0},
		{stairs, 0, 120, 0x10, 0, 0, 0},
		{stairs, 2, 120, 0x10, 3, 0, 0},
		{[]byte{run(runNetflowA, 40), run(runNetflowB, 40)}, 0, 120, 0x10, 3, 0, 0},
		{[]byte{run(runNetflowA, 64), run(runNetflowA, 64)}, 17, 200, 0x10, 20, 0, 0},
		{stairs, 19, 120, 0x10, 2, 0, 0},
		// Two stores a pass, to overlapping bytes.
		{stairs, 8, 300, 0x10, 0x1100, 0, 0},
		{[]byte{run(runNetflowA, 40), run(runGap, 64)}, 10, 200, 0x10, 0x2000, 20, 30},
	}
	for cfg := uint8(0); cfg < 3; cfg++ {
		for _, l := range layouts {
			// Quanta of 61, 256 and 17, and a first quantum of 2 that ends
			// where the loop's first pass starts, so that pass begins a batch.
			for _, q := range [][2]uint8{{60, 45}, {255, 240}, {16, 1}, {1, 240}} {
				f.Add(l.runs, l.shape, l.n, l.srcOff, l.dst, l.clearOff, l.clearLen, q[0], q[1], cfg)
			}
		}
		// Stores behind, on and ahead of the load on the same page, through
		// store entries that hold the page's shadow ids.
		for _, shape := range []uint8{32, 32 | 17, 32 | 8} {
			for _, dst := range []int16{-1, 0, 3, 20} {
				f.Add(stairs, shape, uint16(200), uint16(0x10), dst, uint16(0), uint8(0), uint8(60), uint8(45), cfg)
				f.Add([]byte{run(runNetflowA, 64), run(runGap, 8), run(runNetflowA, 64)}, shape, uint16(200), uint16(0x10), dst, uint16(0), uint8(0), uint8(255), uint8(240), cfg)
			}
		}
	}
	configs := []Config{{}, {StrictExecCheck: true}, {NoProcessTags: true}}
	f.Fuzz(func(t *testing.T, runs []byte, shape uint8, n, srcOff uint16, dst int16, clearOff uint16, clearLen, first, q, cfg uint8) {
		lay := newRunLayout(runs, shape, n, srcOff, dst, clearOff, clearLen)
		c := configs[int(cfg)%len(configs)]
		quantum, budget := 16+uint64(q), 1+uint64(first)
		var rs [3]*batchRun
		for mode := range rs {
			rs[mode] = lay.spawn(t, c, quantum, mode)
		}
		rb := rs[batched]
		for i := 0; ; i++ {
			var sums [3]guest.RunSummary
			for mode, r := range rs {
				var err error
				if sums[mode], err = r.k.Run(r.k.M.InstrCount + budget); err != nil {
					t.Fatalf("quantum %d: run %d: %v", i, mode, err)
				}
			}
			for _, mode := range []int{perPass, refStep} {
				r := rs[mode]
				if !reflect.DeepEqual(sums[batched], sums[mode]) {
					t.Fatalf("quantum %d: run summary: batched %+v, run %d %+v", i, sums[batched], mode, sums[mode])
				}
				if rb.k.M.CPU != r.k.M.CPU || rb.k.M.InstrCount != r.k.M.InstrCount {
					t.Fatalf("quantum %d: batched EIP %#x count %d regs %v; run %d EIP %#x count %d regs %v", i,
						rb.k.M.CPU.EIP, rb.k.M.InstrCount, rb.k.M.CPU.Regs, mode, r.k.M.CPU.EIP, r.k.M.InstrCount, r.k.M.CPU.Regs)
				}
				if bb, br := rb.f.banks[rb.p.CR3()], r.f.banks[r.p.CR3()]; *bb != *br {
					t.Fatalf("quantum %d: register taint: batched %v, run %d %v", i, *bb, mode, *br)
				}
				if !slices.EqualFunc(rb.dataShadow(t), r.dataShadow(t), slices.Equal) {
					t.Fatalf("quantum %d: data shadow: batched and run %d diverged", i, mode)
				}
				if fb, fr := rb.f.Findings(), r.f.Findings(); !reflect.DeepEqual(fb, fr) {
					t.Fatalf("quantum %d: findings: batched %+v, run %d %+v", i, fb, mode, fr)
				}
			}
			if cb, cr := engineCounters(rb.f), engineCounters(rs[refStep].f); cb != cr {
				t.Fatalf("quantum %d: engine counters: batched %+v, reference %+v", i, cb, cr)
			}
			got, want := rb.f.Stats(), rs[perPass].f.Stats()
			got.Block.BatchedPasses = 0
			if got != want {
				t.Fatalf("quantum %d: counters: batched %+v, per-pass %+v", i, got, want)
			}
			if cb, cp := rb.f.T.ChangeCount(), rs[perPass].f.T.ChangeCount(); cb != cp {
				t.Fatalf("quantum %d: shadow changes: batched %d, per-pass %d", i, cb, cp)
			}
			if fb, fp := rb.f, rs[perPass].f; fb.bankClean != fp.bankClean || fb.bankRecheck != fp.bankRecheck {
				t.Fatalf("quantum %d: bank clean %v rechecks %d batched, %v %d per-pass", i, fb.bankClean, fb.bankRecheck, fp.bankClean, fp.bankRecheck)
			}
			if sums[batched].LiveProcs == 0 || i > 20_000 {
				break
			}
			budget = quantum
		}
		for _, mode := range []int{perPass, refStep} {
			gb, _ := rb.p.Space.ReadBytes(rb.data, batchDataLen, mem.AccessRead)
			gr, _ := rs[mode].p.Space.ReadBytes(rs[mode].data, batchDataLen, mem.AccessRead)
			if !bytes.Equal(gb, gr) {
				t.Fatalf("run %d: data bytes diverged", mode)
			}
		}
	})
}
