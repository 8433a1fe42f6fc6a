package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"faros/internal/guest"
	"faros/internal/mem"
	"faros/internal/peimg"
	"faros/internal/taint"
	"faros/internal/vm"
	"faros/internal/vm/vmtest"
)

// batchRun is one counted loop (vmtest.Counted) running as a guest process
// with FAROS attached, over three pages of data filled with
// vmtest.Pattern. The first half of the source bytes carries a netflow
// tag, so the first pages the loop stores to have no shadow page until its
// first tainted store; with export set, the source byte mid-buffer carries
// the export-table tag instead and the loop's code carries netflow and
// process tags, so its load is flagged.
type batchRun struct {
	k    *guest.Kernel
	f    *FAROS
	p    *guest.Process
	data uint32
	code uint32
}

// batchDataLen is the data the counted loops address: three pages from
// just past a page start, so they span four.
const batchDataLen = 3 * mem.PageSize

// How a batchRun dispatches.
const (
	batched = iota // production block dispatch
	perPass        // block dispatch with loop descriptors stripped
	refStep        // the per-instruction reference
)

// perPassPlugin runs FAROS's block dispatch on copies of the blocks with
// their loop descriptors stripped, so execFused runs every pass micro-op by
// micro-op: the dispatch a batch must be indistinguishable from.
type perPassPlugin struct{ f *FAROS }

func (p perPassPlugin) ExecBlock(m *vm.Machine, b *vm.Block, budget uint64) (uint64, vm.Trap, error) {
	if b.Loop != nil {
		c := *b
		c.Loop = nil
		b = &c
	}
	return p.f.ExecBlock(m, b, budget)
}

func newBatchRun(t *testing.T, loop func(data, code uint32) vmtest.Counted, cfg Config, quantum uint64, mode int, export, rwx bool) *batchRun {
	t.Helper()
	r, l := spawnCounted(t, loop, cfg, quantum, mode, rwx)
	f, p := r.f, r.p
	nf := f.T.Single(f.T.InternNetflow(taint.NetflowTag{SrcIP: attackerAddr.IP, SrcPort: uint16(attackerAddr.Port)}))
	f.memSetRange(p.Space, l.Src, int(l.N/2), nf)
	if export {
		f.memSetRange(p.Space, l.Src+l.N/2, 1, f.T.Single(f.exportTag))
		f.memSetRange(p.Space, r.code, mem.PageSize, f.T.Prepend(nf, f.procTag(p)))
	}
	return r
}

// spawnCounted spawns the counted loop over untainted data, dispatched as
// mode says, and returns the run and the loop.
func spawnCounted(t *testing.T, loop func(data, code uint32) vmtest.Counted, cfg Config, quantum uint64, mode int, rwx bool) (*batchRun, vmtest.Counted) {
	t.Helper()
	k, err := guest.NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	k.Quantum = quantum
	f := attachBridge(k, cfg)
	switch mode {
	case batched:
		k.M.OnBlockPlugin(f)
	case perPass:
		k.M.OnBlockPlugin(perPassPlugin{f})
	case refStep:
		k.M.OnBlockPlugin(f)
		UseRefStep(k)
	}
	b := peimg.NewBuilder("counted.exe")
	b.DataBlk.Word(0) // peimg.Unmarshal rejects a last section without bytes
	data := b.BSS(batchDataLen)
	code := b.Base + peimg.TextOff
	l := loop(data, code)
	l.Emit(b.Text)
	install(t, k, b, "counted.exe")
	p, err := k.Spawn("counted.exe", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rwx {
		if err := p.Space.Protect(code, 1, mem.PermRWX); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Space.WriteBytes(data, vmtest.Pattern(batchDataLen)); err != nil {
		t.Fatal(err)
	}
	return &batchRun{k: k, f: f, p: p, data: data, code: code}, l
}

// engineCounters is the engine's Stats without the counters that depend on
// how instructions are dispatched — the block counters and the union
// requests, which the executors skip where the reference's Union would be
// a memo hit — so block dispatch and the reference must agree on it.
func engineCounters(f *FAROS) Stats {
	s := f.Stats()
	s.Block = BlockStats{}
	s.Taint.Unions, s.Taint.UnionMemoHits = 0, 0
	return s
}

// TestLoopBatchBoundaries runs Table V-shaped counted loops through FAROS's
// block dispatch, which batches their passes (loopBatch), through the same
// dispatch with every pass micro-op by micro-op (perPassPlugin), and
// through the per-instruction reference, at the edges of the batch rule:
// an export-tagged source byte mid-buffer, buffers straddling page ends, a
// first round of tainted stores onto pages with no shadow page, a store
// into the loop's own code page, register bases, quanta of 61 and 256, and
// every engine configuration that changes what the executor does. After
// every quantum the three must agree on CPU state, InstrCount and register
// taint; at the end on guest memory, the whole shadow state and findings
// (instruction count and PC included). The batched run must match the
// per-pass one on every counter but BatchedPasses, and the reference on
// the counters it keeps (engineCounters). Passes must batch
// (Block.BatchedPasses) wherever the rule admits them, and never under
// PropagateAddrDeps or where the loop stores into its code.
func TestLoopBatchBoundaries(t *testing.T) {
	const page = mem.PageSize
	// end is the first page end after the data start.
	end := func(data uint32) uint32 { return mem.PageBase(data) + page }
	cases := []struct {
		name        string
		loop        func(data, code uint32) vmtest.Counted
		export, rwx bool
		batched     bool
	}{
		{"copy", func(d, _ uint32) vmtest.Counted {
			return vmtest.Counted{Src: d + 0x10, Dst: end(d) + 0x10, N: 300}
		}, false, false, true},
		{"copy straddling page ends", func(d, _ uint32) vmtest.Counted {
			return vmtest.Counted{Src: end(d) - 150, Dst: end(d) + page - 37, N: 400}
		}, false, false, true},
		{"copy over an export-tagged byte", func(d, _ uint32) vmtest.Counted {
			return vmtest.Counted{Src: d + 0x10, Dst: end(d) + 0x10, N: 300}
		}, true, false, true},
		{"accumulate straddling a page end", func(d, _ uint32) vmtest.Counted {
			return vmtest.Counted{Src: end(d) - 200, N: 400, Accumulate: true}
		}, false, false, true},
		{"accumulate over an export-tagged byte, JZ exit", func(d, _ uint32) vmtest.Counted {
			return vmtest.Counted{Src: end(d) - 100, N: 300, Accumulate: true, ExitZ: true}
		}, true, false, true},
		{"register-base copy", func(d, _ uint32) vmtest.Counted {
			return vmtest.Counted{Src: end(d) - 150, Dst: end(d) + page - 37, N: 400, RegBase: true}
		}, false, false, true},
		{"register-base accumulate", func(d, _ uint32) vmtest.Counted {
			return vmtest.Counted{Src: d + 0x10, N: 300, Accumulate: true, RegBase: true}
		}, false, false, true},
		{"copy into its own code page", func(d, code uint32) vmtest.Counted {
			return vmtest.Counted{Src: d + 0x10, Dst: code + 0x800, N: 100}
		}, false, true, false},
	}
	configs := []Config{{}, {StrictExecCheck: true}, {PropagateAddrDeps: true}, {NoProcessTags: true}}
	for _, c := range cases {
		for _, cfg := range configs {
			for _, quantum := range []uint64{61, 256} {
				t.Run(fmt.Sprintf("%s/%+v/q%d", c.name, cfg, quantum), func(t *testing.T) {
					runs := [3]*batchRun{}
					for mode := range runs {
						runs[mode] = newBatchRun(t, c.loop, cfg, quantum, mode, c.export, c.rwx)
					}
					rb := runs[batched]
					for q := 0; ; q++ {
						var sums [3]guest.RunSummary
						for mode, r := range runs {
							var err error
							if sums[mode], err = r.k.Run(r.k.M.InstrCount + quantum); err != nil {
								t.Fatalf("quantum %d: run %d: %v", q, mode, err)
							}
						}
						for _, mode := range []int{perPass, refStep} {
							r := runs[mode]
							if !reflect.DeepEqual(sums[batched], sums[mode]) {
								t.Fatalf("quantum %d: run summary: batched %+v, run %d %+v", q, sums[batched], mode, sums[mode])
							}
							if rb.k.M.CPU != r.k.M.CPU || rb.k.M.InstrCount != r.k.M.InstrCount {
								t.Fatalf("quantum %d: batched EIP %#x count %d regs %v; run %d EIP %#x count %d regs %v", q,
									rb.k.M.CPU.EIP, rb.k.M.InstrCount, rb.k.M.CPU.Regs, mode, r.k.M.CPU.EIP, r.k.M.InstrCount, r.k.M.CPU.Regs)
							}
							if bb, br := rb.f.banks[rb.p.CR3()], r.f.banks[r.p.CR3()]; *bb != *br {
								t.Fatalf("quantum %d: register taint: batched %v, run %d %v", q, *bb, mode, *br)
							}
						}
						if sums[batched].LiveProcs == 0 || q > 10_000 {
							break
						}
					}
					for _, mode := range []int{perPass, refStep} {
						r := runs[mode]
						gb, _ := rb.p.Space.ReadBytes(rb.data, batchDataLen, mem.AccessRead)
						gr, _ := r.p.Space.ReadBytes(r.data, batchDataLen, mem.AccessRead)
						if !bytes.Equal(gb, gr) {
							t.Fatalf("run %d: data bytes diverged", mode)
						}
						if sb, sr := taintState(rb.f.T), taintState(r.f.T); !reflect.DeepEqual(sb, sr) {
							t.Fatalf("run %d: shadow state diverged: batched %d bytes, run %d", mode, len(sb), len(sr))
						}
						if fb, fr := rb.f.Findings(), r.f.Findings(); !reflect.DeepEqual(fb, fr) {
							t.Fatalf("findings: batched %+v, run %d %+v", fb, mode, fr)
						}
					}
					if c.export && len(rb.f.Findings()) == 0 {
						t.Error("the export-tagged byte's load was not flagged")
					}
					if cb, cr := engineCounters(rb.f), engineCounters(runs[refStep].f); cb != cr {
						t.Errorf("engine counters: batched %+v, reference %+v", cb, cr)
					}
					got, want := rb.f.Stats(), runs[perPass].f.Stats()
					if n := got.Block.BatchedPasses; (n > 0) != (c.batched && !cfg.PropagateAddrDeps) {
						t.Errorf("BatchedPasses %d, want nonzero %v", n, c.batched && !cfg.PropagateAddrDeps)
					}
					if want.Block.BatchedPasses != 0 {
						t.Errorf("the per-pass run batched %d passes", want.Block.BatchedPasses)
					}
					got.Block.BatchedPasses = 0
					if got != want {
						t.Errorf("counters: batched %+v, per-pass %+v", got, want)
					}
				})
			}
		}
	}
}

// taintState flattens the final shadow state into a comparable map.
func taintState(s *taint.Store) map[uint64]taint.ProvID {
	out := make(map[uint64]taint.ProvID)
	s.ForEachTainted(func(pa uint64, id taint.ProvID) { out[pa] = id })
	return out
}
