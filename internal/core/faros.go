// Package core implements FAROS itself: the provenance-based whole-system
// dynamic information flow tracking engine and its in-memory-injection
// detection policy.
//
// FAROS attaches to a WinMini kernel as both a VM instruction plugin and
// the kernel's taint bridge. It
//
//   - inserts tags at the paper's four sources: netflow tags on packet
//     arrival, file tags on file reads/writes, process tags when a process
//     touches tainted bytes, and the export-table tag over the kernel
//     export table region;
//   - propagates provenance lists through every executed instruction per
//     the copy/union/delete rules of Table I, with byte-granular shadow
//     memory keyed by physical address and a shadow register bank per
//     process (swapped on CR3 change);
//   - flags in-memory injection attacks by tag confluence: an executing
//     instruction whose own bytes carry attack-shaped provenance reading a
//     byte tagged export-table (Section IV).
package core

import (
	"fmt"

	"faros/internal/guest"
	"faros/internal/guest/gfs"
	"faros/internal/guest/gnet"
	"faros/internal/isa"
	"faros/internal/mem"
	"faros/internal/provgraph"
	"faros/internal/taint"
	"faros/internal/vm"
)

// Config tunes the engine. The zero value is the paper's configuration.
type Config struct {
	// ListCap bounds provenance list length (0 = default).
	ListCap int
	// PropagateAddrDeps propagates taint through address dependencies
	// (table lookups). The paper deliberately does NOT do this — turning it
	// on reproduces the overtainting blow-up of Section III (ablation).
	PropagateAddrDeps bool
	// NoProcessTags disables process-tag insertion entirely — on guest
	// stores and on kernel-mediated copies (ablation: both confluence rules
	// require process tags, so detection collapses without them).
	NoProcessTags bool
	// DisableNetflowRule turns off the netflow+export-table confluence rule.
	DisableNetflowRule bool
	// DisableForeignCodeRule turns off the two-process+export-table rule.
	DisableForeignCodeRule bool
	// StrictExecCheck adds an exec-time rule: flag whenever the CPU starts
	// executing a code page whose bytes carry attack-shaped provenance,
	// even if the code never reads the export table. This is the §VI.D
	// policy-update story: evasions that hardcode API stub addresses avoid
	// the export-table read but still execute foreign/netflow-tainted
	// bytes. It costs one provenance lookup per newly executed (CR3, page)
	// pair and may flag aggressive-but-benign JITs, so it is off by
	// default.
	StrictExecCheck bool
}

// Rule names reported in findings.
const (
	// RuleNetflowExport is the paper's hallmark invariant: instruction bytes
	// carrying a netflow tag (code that arrived over the network) reading
	// export-table-tagged memory.
	RuleNetflowExport = "netflow-export"
	// RuleForeignCodeExport flags instruction bytes written by a different
	// process (≥2 distinct process tags) reading the export table — the
	// local-payload hollowing case of Figure 10.
	RuleForeignCodeExport = "foreign-code-export"
	// RuleForeignCodeExec is the StrictExecCheck extension rule: execution
	// of tainted foreign/netflow code, regardless of what it reads.
	RuleForeignCodeExec = "foreign-code-exec"
)

// Finding is one flagged in-memory-injection event (a row of Table II).
type Finding struct {
	Rule       string
	At         uint64
	PID        uint32
	ProcName   string
	InstrAddr  uint32
	Disasm     string
	TargetAddr uint32
	InstrProv  taint.ProvID
	TargetProv taint.ProvID
	// ResolvedAPI names the export-table entry the flagged instruction was
	// reading, when it can be attributed to one (the §V.A tag-enrichment
	// extension): the analyst sees which function the payload resolved.
	ResolvedAPI string
	// Prov is the finding's provenance graph, built once at flag time: the
	// instruction-bytes chain (role "instr") and, for rules with a target
	// read, the loaded bytes' chain (role "target"). Every renderer —
	// RenderFinding, TableII, JSON/DOT encoders, the farosd endpoint — is a
	// view over this graph.
	Prov *provgraph.Graph
}

// TaintStats is the taint store's counters plus the engine's own
// instruction-provenance cache hits.
type TaintStats struct {
	taint.Stats
	InstrProvHits uint64 `json:"instr_prov_hits"`
}

// ProvStats counts provenance-graph construction (findings and taint-map
// regions): graphs built, and nodes/edges across those builds.
type ProvStats struct {
	Builds uint64 `json:"builds"`
	Nodes  uint64 `json:"nodes"`
	Edges  uint64 `json:"edges"`
}

// BlockStats counts block-dispatch activity: the VM's predecoded block
// cache plus the engine's taint-no-op fast path.
type BlockStats struct {
	vm.BlockStats
	// UntaintedFastBlocks counts block executions that ran start to finish
	// on the taint-no-op dispatch loop (clean register bank, every touched
	// page clean) without a single propagation call.
	UntaintedFastBlocks uint64 `json:"untainted_fast_blocks"`
}

// Stats summarizes engine activity for the performance and ablation tables.
type Stats struct {
	Instructions  uint64
	LoadsChecked  uint64
	ExportReads   uint64
	FindingsTotal int
	Block         BlockStats
	Taint         TaintStats
	Prov          ProvStats
}

// pageTLB is a one-entry software TLB over Space.FrameOf: the engine's
// range operations translate once per virtual page, and straight-line code
// touching one page pays a few compares instead of a map probe. It also
// caches a pointer to the frame's live-taint counter, letting the hot
// propagation path answer "is this page untainted" with a single load —
// accurate even while taint flows elsewhere, with no epoch invalidation.
//
// The engine keeps three entries, split by access stream — loads, stores,
// and instruction bytes — so a copy loop (load page A, store page B) or a
// policy check against the code page doesn't evict the entry the next
// access needs. The split is pure caching: every entry answers through the
// same FrameOf walk, so which slot a helper uses never changes results.
type pageTLB struct {
	space *mem.Space
	gen   uint64
	vpn   uint32
	base  uint64 // physical base of the page's shadow bytes
	ok    bool
	// live points at the frame's shadow live counter; nil means the frame
	// had no shadow page when the entry was filled, valid while the store's
	// PageAllocs count stays at allocGen. ids aliases the same shadow
	// page's bytes (nil exactly when live is nil) — read-only, all writes
	// go through the store.
	live     *int32
	allocGen uint32
	ids      []taint.ProvID
	// data aliases the frame's physical bytes when the page's permission
	// allows this slot's access kind (read for the load slot, write for the
	// store slot); nil otherwise. A probe hit with data set lets the fused
	// executor read or write guest memory directly — the probe already did
	// the translation and the permission was checked at fill time (any
	// mapping or protection change bumps the space generation, killing the
	// entry).
	data *[mem.PageSize]byte
	// noBlocks records that the frame was proven block-free (by
	// invalidating it) when the machine's built-count was builtAt; while
	// the count is unchanged, stores through data may skip InvalidateFrame.
	noBlocks bool
	builtAt  uint64
}

// probe classifies [va, va+n) against this entry without filling it: +1
// means a hit on a currently clean page, -1 a hit on a (possibly) tainted
// page — pa then addresses the range's shadow bytes — and 0 a miss or a
// page-straddling range. Small enough for the compiler to inline into the
// fused dispatch loop.
func (t *pageTLB) probe(s *mem.Space, gen uint64, va, n uint32, allocs uint32) (uint64, int) {
	if !t.ok || t.space != s || t.vpn != va>>mem.PageShift || t.gen != gen || va%mem.PageSize > mem.PageSize-n {
		return 0, 0
	}
	pa := t.base | uint64(va%mem.PageSize)
	if t.live != nil {
		if *t.live == 0 {
			return pa, 1
		}
		return pa, -1
	}
	if t.allocGen == allocs {
		return pa, 1
	}
	return pa, -1
}

// Page-TLB slot indices, one per access stream.
const (
	tlbLoad  = 0 // data loads (and pops)
	tlbStore = 1 // data stores (and pushes/calls)
	tlbCode  = 2 // instruction-byte provenance
)

// instrProvEntry caches the provenance of one instruction's bytes, valid
// while the store's shadow change count still equals changes.
type instrProvEntry struct {
	prov    taint.ProvID
	changes uint64
}

// findingKey identifies a finding for deduplication: one finding per rule,
// process and instruction address (page address for RuleForeignCodeExec).
type findingKey struct {
	rule string
	pid  uint32
	pc   uint32
}

// policyMemo is the last (pid, pc, instruction provenance) checkPolicy
// evaluated. With the config fixed, the rule is a function of the
// provenance alone, so a repeat of the triple either matches no rule or
// hits a finding key already in findingSeen: skipping it is exact.
type policyMemo struct {
	pid   uint32
	pc    uint32
	iProv taint.ProvID
}

// FAROS is the attached engine.
type FAROS struct {
	T   *taint.Store
	cfg Config
	k   *guest.Kernel

	banks       map[uint32]*taint.RegBank
	bank        *taint.RegBank
	bankClean   bool   // bank known all-untainted; false may just mean "unknown"
	bankRecheck uint32 // entries since dirty, for the throttled rescan
	curTag      taint.Tag
	haveCur     bool
	exportTag   taint.Tag

	findings    []Finding
	findingSeen map[findingKey]struct{}
	execChecked map[uint64]struct{} // CR3<<32|vpn pages already strict-checked
	lastExecKey uint64              // one-entry memo over execChecked (page locality)
	lastPolicy  policyMemo          // one-entry memo over checkPolicy
	trace       *lifecycleTrace     // optional byte-lifecycle watch

	tlb     [3]pageTLB
	ipCache map[uint64]instrProvEntry // instr PA → provenance at a change count

	// One-entry stamp cache: tainted store loops re-stamp the same list
	// with the same process tag; Prepend is memoized but this skips even
	// the memo-map probe. stampOut is only valid while stampTag == curTag.
	stampIn  taint.ProvID
	stampOut taint.ProvID
	stampTag taint.Tag

	// stats holds the engine's own counters; Stats fills in the taint
	// store's and the VM's at snapshot time.
	stats Stats
}

var _ guest.TaintBridge = (*FAROS)(nil)

// Attach installs FAROS on a kernel: it becomes the taint bridge, registers
// the instruction hook, and tags the kernel export table region.
func Attach(k *guest.Kernel, cfg Config) *FAROS {
	f := &FAROS{
		T:           taint.NewStore(cfg.ListCap),
		cfg:         cfg,
		k:           k,
		banks:       make(map[uint32]*taint.RegBank),
		findingSeen: make(map[findingKey]struct{}),
		execChecked: make(map[uint64]struct{}),
		lastExecKey: ^uint64(0),
		ipCache:     make(map[uint64]instrProvEntry),
	}
	f.exportTag = f.T.ExportTableTag()
	k.Bridge = f
	k.M.OnInstrPlugin(f)

	// Tag insertion for the export table: taint the whole region in the
	// shared physical frames so every process sees it.
	_, size := k.ExportTableRange()
	id := f.T.Single(f.exportTag)
	remaining := int(size)
	for _, frame := range k.ExportTablePhys() {
		n := remaining
		if n > mem.PageSize {
			n = mem.PageSize
		}
		if n <= 0 {
			break
		}
		f.T.MemSetRange(uint64(frame)<<mem.PageShift, n, id)
		remaining -= n
	}
	return f
}

// ProvOf returns the unioned provenance of a guest buffer — the query an
// analyst (or an experiment harness) runs against the shadow state.
func (f *FAROS) ProvOf(space *mem.Space, va uint32, n int) taint.ProvID {
	return f.memGetRange(space, va, n)
}

// Findings returns the flagged events in detection order.
func (f *FAROS) Findings() []Finding { return f.findings }

// Flagged reports whether any in-memory injection was detected.
func (f *FAROS) Flagged() bool { return len(f.findings) > 0 }

// Stats returns the engine counters.
func (f *FAROS) Stats() Stats {
	s := f.stats
	s.Taint.Stats = f.T.Stats()
	s.Block.BlockStats = f.k.M.BlockStats()
	s.FindingsTotal = len(f.findings)
	return s
}

// buildGraph canonicalizes a builder's graph and charges its size to the
// engine's provenance-graph counters.
func (f *FAROS) buildGraph(b *provgraph.Builder) *provgraph.Graph {
	g := b.Graph()
	f.stats.Prov.Builds++
	f.stats.Prov.Nodes += uint64(len(g.Nodes))
	f.stats.Prov.Edges += uint64(len(g.Edges))
	return g
}

// findingGraph builds a finding's provenance graph at flag time: the
// instruction-bytes chain (extent = the fetched instruction size) and, when
// the rule involves a target read, the loaded bytes' chain (extent =
// readBytes). Both chains are first seen at the flagging instruction count.
func (f *FAROS) findingGraph(fd *Finding, readBytes int) {
	b := provgraph.NewBuilder()
	b.AddChain(provgraph.RoleInstr, provgraph.NodesFromList(f.T, fd.InstrProv), isa.InstrSize, fd.At)
	if fd.Rule != RuleForeignCodeExec {
		b.AddChain(provgraph.RoleTarget, provgraph.NodesFromList(f.T, fd.TargetProv), readBytes, fd.At)
	}
	fd.Prov = f.buildGraph(b)
}

// ProvGraph merges every finding's graph into the run's whole-run
// provenance graph — what farosd streams from /results/{hash}/prov.
func (f *FAROS) ProvGraph() *provgraph.Graph {
	gs := make([]*provgraph.Graph, 0, len(f.findings))
	for i := range f.findings {
		if f.findings[i].Prov != nil {
			gs = append(gs, f.findings[i].Prov)
		}
	}
	return provgraph.Merge(gs...)
}

// procTag interns the process tag for p (CR3-keyed, as in the paper).
func (f *FAROS) procTag(p *guest.Process) taint.Tag {
	return f.T.InternProcess(p.CR3(), p.PID, p.Name)
}

// physAt translates va in space to a physical shadow address; ok=false for
// unmapped pages (the access will fault architecturally anyway).
func physAt(s *mem.Space, va uint32) (uint64, bool) {
	frame, ok := s.FrameOf(va)
	if !ok {
		return 0, false
	}
	return uint64(frame)<<mem.PageShift | uint64(va%mem.PageSize), true
}

// pagePA is physAt through the engine's page TLB. Sequential accesses
// to the same virtual page — the propagation common case — skip the page
// table entirely; any mapping change bumps the space generation and drops
// the entry.
func (f *FAROS) pagePA(s *mem.Space, va uint32, slot int) (uint64, bool) {
	t := &f.tlb[slot]
	if t.ok && t.space == s && t.vpn == va>>mem.PageShift && t.gen == s.Gen() {
		return t.base | uint64(va%mem.PageSize), true
	}
	return f.pagePAFill(s, va, slot)
}

// pagePAFill is the TLB miss path: walk the page table and refill the
// slot's entry, including the frame's taint summary.
func (f *FAROS) pagePAFill(s *mem.Space, va uint32, slot int) (uint64, bool) {
	frame, ok := s.FrameOf(va)
	if !ok {
		return 0, false
	}
	t := &f.tlb[slot]
	t.space, t.gen, t.vpn, t.ok = s, s.Gen(), va>>mem.PageShift, true
	t.base = uint64(frame) << mem.PageShift
	t.live = f.T.LivePtr(uint64(frame))
	t.allocGen = f.T.PageAllocs()
	t.ids = f.T.PageIDs(uint64(frame))
	t.data, t.noBlocks, t.builtAt = nil, false, 0
	var need mem.Perm
	switch slot {
	case tlbLoad:
		need = mem.PermRead
	case tlbStore:
		need = mem.PermWrite
	}
	if need != 0 {
		if perm, ok := s.PermOf(va); ok && perm&need != 0 {
			if fr, err := f.k.M.Phys().Frame(frame); err == nil {
				t.data = fr
			}
		}
	}
	return t.base | uint64(va%mem.PageSize), true
}

// rangeUntainted reports whether [va, va+n) is known to lie in a single,
// currently untainted page. It is pure cache consultation — a miss (TLB
// cold, page straddling, or page tainted) just means the caller takes the
// ordinary range path; a hit lets loads return 0 and untainted stores
// become no-ops without touching the shadow at all. The live-counter load
// stays accurate while taint flows through other pages, so the common
// untainted/tainted working-set split keeps its fast path.
func (f *FAROS) rangeUntainted(s *mem.Space, va uint32, n uint32, slot int) bool {
	t := &f.tlb[slot]
	if !(t.ok && t.space == s && t.vpn == va>>mem.PageShift && t.gen == s.Gen() &&
		va%mem.PageSize <= mem.PageSize-n) {
		return false
	}
	if t.live != nil {
		return *t.live == 0
	}
	return t.allocGen == f.T.PageAllocs()
}

// memGetRange unions the shadow of [va, va+n) in the current space,
// translating once per virtual page. The accumulator threads through
// MemUnionFrom so the union order — and therefore every interned
// intermediate list — matches the per-byte reference exactly.
func (f *FAROS) memGetRange(s *mem.Space, va uint32, n int) taint.ProvID {
	var out taint.ProvID
	for n > 0 {
		chunk := mem.PageSize - int(va%mem.PageSize)
		if chunk > n {
			chunk = n
		}
		if pa, ok := f.pagePA(s, va, tlbLoad); ok {
			out = f.T.MemUnionFrom(out, pa, chunk)
		}
		va += uint32(chunk)
		n -= chunk
	}
	return out
}

// memSetRange sets the shadow of [va, va+n) in the given space, translating
// once per virtual page.
func (f *FAROS) memSetRange(s *mem.Space, va uint32, n int, id taint.ProvID) {
	for n > 0 {
		chunk := mem.PageSize - int(va%mem.PageSize)
		if chunk > n {
			chunk = n
		}
		if pa, ok := f.pagePA(s, va, tlbStore); ok {
			f.T.MemSetRange(pa, chunk, id)
		}
		va += uint32(chunk)
		n -= chunk
	}
}

// BeforeInstr mirrors the CPU's dataflow onto the shadow state (Table I)
// and applies the detection policy on loads. It sees the pre-execution
// register file, from which all effective addresses derive.
func (f *FAROS) BeforeInstr(m *vm.Machine, pc uint32, in isa.Instruction) {
	f.stats.Instructions++
	if f.bank == nil {
		return // no process context yet
	}
	bank := f.bank
	space := m.Space()

	if f.cfg.StrictExecCheck {
		f.strictExecCheck(m, pc, in)
	}

	switch in.Op {
	case isa.OpMov:
		if in.Mode == isa.ModeRR {
			bank[in.Dst&7] = bank[in.Src&7]
		} else {
			bank[in.Dst&7] = 0 // immediate: delete (Table I)
		}

	case isa.OpLd, isa.OpLdb:
		// Effective address computed inline (the register file is the
		// pre-execution state, same as vm.EffectiveAddr).
		addr := m.CPU.Regs[in.Src&7] + in.Imm
		if in.Mode == isa.ModeRX {
			addr = m.CPU.Regs[in.Src&7] + m.CPU.Regs[in.Imm&7]
		}
		size := 4
		if in.Op == isa.OpLdb {
			size = 1
		}
		f.taintLoadAt(m, pc, in, addr, size)

	case isa.OpSt, isa.OpStb:
		addr := m.CPU.Regs[in.Dst&7] + in.Imm
		if in.Mode == isa.ModeXR {
			addr = m.CPU.Regs[in.Dst&7] + m.CPU.Regs[in.Imm&7]
		}
		size := 4
		if in.Op == isa.OpStb {
			size = 1
		}
		f.taintStoreAt(space, addr, size, bank[in.Src&7])

	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpMul, isa.OpShl, isa.OpShr:
		if in.Mode == isa.ModeRR {
			// Union(0,0) is 0, already in place — skip the call.
			if a, b := bank[in.Dst&7], bank[in.Src&7]; a|b != 0 {
				bank[in.Dst&7] = f.T.Union(a, b)
			}
		}
		// Immediate forms leave the destination's taint unchanged.

	case isa.OpXor:
		if in.Mode == isa.ModeRR {
			if in.Dst == in.Src {
				bank[in.Dst&7] = 0 // XOR r,r: delete (Table I)
			} else if a, b := bank[in.Dst&7], bank[in.Src&7]; a|b != 0 {
				bank[in.Dst&7] = f.T.Union(a, b)
			}
		}

	case isa.OpNot, isa.OpCmp:
		// NOT keeps taint; CMP writes only flags (control dependencies are
		// deliberately not propagated — Section IV).

	case isa.OpPush:
		var id taint.ProvID
		if in.Mode == isa.ModeRR {
			id = bank[in.Dst&7]
		}
		f.taintStoreAt(space, m.CPU.Regs[isa.ESP]-4, 4, id)

	case isa.OpPop:
		f.taintPop(space, m.CPU.Regs[isa.ESP], uint8(in.Dst&7))

	case isa.OpCall:
		f.taintCall(space, m.CPU.Regs[isa.ESP]-4)

	case isa.OpSyscall:
		// Kernel return values are untainted; data-carrying results are
		// tagged through the bridge instead.
		bank[isa.EAX] = 0
	}
}

// taintLoadAt mirrors a load's shadow dataflow (Table I) given its resolved
// effective address, and applies the detection policy. The loaded bytes'
// provenance is computed once and flows both into the destination register
// and into the policy check — checkPolicy never recomputes the range. A
// load from a known-untainted page skips the shadow walk entirely. Shared
// by the per-instruction reference path and the fused block executor.
func (f *FAROS) taintLoadAt(m *vm.Machine, pc uint32, in isa.Instruction, addr uint32, size int) {
	space := m.Space()
	bank := f.bank
	var raw taint.ProvID
	// Hand-inlined TLB probe: on a hit the tainted case goes straight to
	// MemUnionFrom with the translated address — one probe, no loop setup —
	// and the clean case keeps raw = 0. The cold path fills through
	// memGetRange exactly as before.
	if t := &f.tlb[tlbLoad]; t.ok && t.space == space && t.vpn == addr>>mem.PageShift &&
		t.gen == space.Gen() && addr%mem.PageSize <= mem.PageSize-uint32(size) {
		if t.live != nil {
			if *t.live != 0 {
				raw = f.T.MemUnionFrom(0, t.base|uint64(addr%mem.PageSize), size)
			}
		} else if t.allocGen != f.T.PageAllocs() {
			raw = f.T.MemUnionFrom(0, t.base|uint64(addr%mem.PageSize), size)
		}
	} else {
		raw = f.memGetRange(space, addr, size)
	}
	id := raw
	if f.cfg.PropagateAddrDeps {
		// Address dependency: the pointer's taint flows into the value
		// (the overtainting ablation).
		id = f.T.Union(id, bank[in.Src&7])
		if in.Mode == isa.ModeRX {
			id = f.T.Union(id, bank[in.IndexReg()])
		}
	}
	bank[in.Dst&7] = id
	if id != 0 {
		f.bankClean = false
	}
	f.stats.LoadsChecked++
	if f.T.Has(raw, taint.TagExportTable) {
		f.checkPolicy(m, pc, in, addr, raw, size)
	}
}

// taintLoadPA is taintLoadAt for the fused path's pre-translated probe
// hits: the caller established [addr, addr+size) lies in one shadow page at
// pa and that address dependencies are off, so the probe and the ablation
// branch are already resolved.
func (f *FAROS) taintLoadPA(m *vm.Machine, pc uint32, in isa.Instruction, addr uint32, pa uint64, size int) {
	var raw taint.ProvID
	if ids := f.tlb[tlbLoad].ids; ids != nil {
		// The probing entry aliases the shadow page directly: union the
		// bytes without re-walking the store. Runs of the same list fold to
		// a single union, exactly as MemUnionFrom does.
		off := pa % mem.PageSize
		var last taint.ProvID
		for i := 0; i < size; i++ {
			if id := ids[off+uint64(i)]; id != 0 && id != last {
				if raw == 0 {
					raw = id // Union(0, id) without the call
				} else {
					raw = f.T.Union(raw, id)
				}
				last = id
			}
		}
	} else {
		// Shadow page born after the entry was filled (allocGen mismatch).
		raw = f.T.MemUnionFrom(0, pa, size)
	}
	f.bank[in.Dst&7] = raw
	if raw != 0 {
		f.bankClean = false
	}
	f.stats.LoadsChecked++
	if f.T.Has(raw, taint.TagExportTable) {
		f.checkPolicy(m, pc, in, addr, raw, size)
	}
}

// taintStorePA is taintStoreAt for pre-translated probe hits: stamp and
// write the shadow range directly. The caller already handled the
// untainted-over-clean no-op.
func (f *FAROS) taintStorePA(pa uint64, size int, id taint.ProvID) {
	if id = f.stampStore(id); size == 1 {
		f.T.MemSet1(pa, id)
	} else {
		f.T.MemSetRange(pa, size, id)
	}
}

// taintPopPA is taintPop for pre-translated probe hits on tainted pages.
func (f *FAROS) taintPopPA(pa uint64, dst uint8) {
	var id taint.ProvID
	if ids := f.tlb[tlbLoad].ids; ids != nil {
		off := pa % mem.PageSize
		var last taint.ProvID
		for i := uint64(0); i < 4; i++ {
			if v := ids[off+i]; v != 0 && v != last {
				if id == 0 {
					id = v
				} else {
					id = f.T.Union(id, v)
				}
				last = v
			}
		}
	} else {
		id = f.T.MemUnionFrom(0, pa, 4)
	}
	f.bank[dst] = id
	if id != 0 {
		f.bankClean = false
	}
}

// taintStoreAt mirrors a store's shadow dataflow: stamp the stored value's
// provenance with the process tag and write it over the target range.
// Storing untainted over a known-untainted page is a no-op.
func (f *FAROS) taintStoreAt(space *mem.Space, addr uint32, size int, id taint.ProvID) {
	id = f.stampStore(id)
	// Hand-inlined TLB probe, mirroring taintLoadAt: a hit writes the shadow
	// range directly; an untainted store over a clean page stays a no-op.
	if t := &f.tlb[tlbStore]; t.ok && t.space == space && t.vpn == addr>>mem.PageShift &&
		t.gen == space.Gen() && addr%mem.PageSize <= mem.PageSize-uint32(size) {
		if id == 0 {
			if t.live != nil {
				if *t.live == 0 {
					return
				}
			} else if t.allocGen == f.T.PageAllocs() {
				return
			}
		}
		f.T.MemSetRange(t.base|uint64(addr%mem.PageSize), size, id)
		return
	}
	if id != 0 || !f.rangeUntainted(space, addr, uint32(size), tlbStore) {
		f.memSetRange(space, addr, size, id)
	}
}

// taintPop mirrors a pop's shadow dataflow: the destination register
// inherits the popped bytes' provenance.
func (f *FAROS) taintPop(space *mem.Space, sp uint32, dst uint8) {
	if f.rangeUntainted(space, sp, 4, tlbLoad) {
		f.bank[dst] = 0
	} else {
		id := f.memGetRange(space, sp, 4)
		f.bank[dst] = id
		if id != 0 {
			f.bankClean = false
		}
	}
}

// taintCall mirrors a call's shadow dataflow: the pushed return address is
// a constant, deleting any taint under it.
func (f *FAROS) taintCall(space *mem.Space, sp uint32) {
	if !f.rangeUntainted(space, sp, 4, tlbStore) {
		f.memSetRange(space, sp, 4, 0)
	}
}

// stampStore applies the process tag to tainted data being stored, the
// paper's "if a process accesses a byte in memory, FAROS adds a process tag
// into the head of that byte's provenance list".
func (f *FAROS) stampStore(id taint.ProvID) taint.ProvID {
	if id == 0 || f.cfg.NoProcessTags || !f.haveCur {
		return id
	}
	if id == f.stampIn && f.curTag == f.stampTag {
		return f.stampOut
	}
	out := f.T.Prepend(id, f.curTag)
	f.stampIn, f.stampTag, f.stampOut = id, f.curTag, out
	return out
}

// stampProc prepends a process tag unless the ablation disabled them.
func (f *FAROS) stampProc(id taint.ProvID, tag taint.Tag) taint.ProvID {
	if id == 0 || f.cfg.NoProcessTags {
		return id
	}
	return f.T.Prepend(id, tag)
}

// instrProv returns the provenance of the instruction's own bytes. Results
// are cached per physical address and invalidated wholesale by the store's
// shadow change count, so the hot loop — the same code executing over
// unchanged shadow state — pays one map probe instead of a per-byte union.
func (f *FAROS) instrProv(s *mem.Space, pc uint32) taint.ProvID {
	if pc%mem.PageSize <= mem.PageSize-isa.InstrSize {
		if pa, ok := f.pagePA(s, pc, tlbCode); ok {
			changes := f.T.ChangeCount()
			if e, hit := f.ipCache[pa]; hit && e.changes == changes {
				f.stats.Taint.InstrProvHits++
				return e.prov
			}
			prov := f.T.MemUnionFrom(0, pa, isa.InstrSize)
			f.ipCache[pa] = instrProvEntry{prov: prov, changes: changes}
			return prov
		}
		return 0
	}
	// Page-straddling instruction: rare, not worth caching.
	return f.memGetRange(s, pc, isa.InstrSize)
}

// strictExecCheck applies the exec-time extension rule once per executed
// (CR3, page) pair: tainted foreign or network-derived code is flagged on
// execution, closing the hardcoded-stub-address evasion.
func (f *FAROS) strictExecCheck(m *vm.Machine, pc uint32, in isa.Instruction) {
	key := uint64(m.CR3())<<32 | uint64(pc>>12)
	if key == f.lastExecKey {
		return // same (CR3, page) as the previous check: already recorded
	}
	if _, done := f.execChecked[key]; done {
		f.lastExecKey = key
		return
	}
	f.execChecked[key] = struct{}{}
	f.lastExecKey = key
	iProv := f.instrProv(m.Space(), pc)
	if iProv == 0 {
		return
	}
	procs := f.T.DistinctProcessCount(iProv)
	netflow := f.T.Has(iProv, taint.TagNetflow)
	if !(procs >= 2 || (netflow && procs >= 1)) {
		return
	}
	cur := f.k.Current()
	var pid uint32
	name := "?"
	if cur != nil {
		pid = cur.PID
		name = cur.Name
	}
	dedup := findingKey{RuleForeignCodeExec, pid, pc &^ uint32(0xFFF)}
	if _, dup := f.findingSeen[dedup]; dup {
		return
	}
	f.findingSeen[dedup] = struct{}{}
	fd := Finding{
		Rule:      RuleForeignCodeExec,
		At:        m.InstrCount,
		PID:       pid,
		ProcName:  name,
		InstrAddr: pc,
		Disasm:    isa.Disasm(in, pc),
		InstrProv: iProv,
	}
	f.findingGraph(&fd, 0)
	f.findings = append(f.findings, fd)
}

// checkPolicy applies the tag-confluence invariants to an export-table
// read. targetProv is the raw provenance of the loaded bytes, computed once
// by beforeInstr — crucially before any address-dependency union, so the
// policy sees exactly what the memory carried. The caller has already
// established that targetProv carries the export-table tag (the O(1)
// summary-bit test), so this function only runs on actual export reads.
func (f *FAROS) checkPolicy(m *vm.Machine, pc uint32, in isa.Instruction, addr uint32, targetProv taint.ProvID, size int) {
	f.stats.ExportReads++

	space := m.Space()
	iProv := f.instrProv(space, pc)
	if iProv == 0 {
		return
	}
	cur := f.k.Current()
	var pid uint32
	if cur != nil {
		pid = cur.PID
	}
	memo := policyMemo{pid, pc, iProv}
	if memo == f.lastPolicy {
		return
	}
	f.lastPolicy = memo
	procs := f.T.DistinctProcessCount(iProv)

	rule := ""
	switch {
	case !f.cfg.DisableNetflowRule && f.T.Has(iProv, taint.TagNetflow) && procs >= 1:
		rule = RuleNetflowExport
	case !f.cfg.DisableForeignCodeRule && procs >= 2:
		rule = RuleForeignCodeExport
	default:
		return
	}

	key := findingKey{rule, pid, pc}
	if _, dup := f.findingSeen[key]; dup {
		return
	}
	f.findingSeen[key] = struct{}{}
	name := "?"
	if cur != nil {
		name = cur.Name
	}
	resolved := ""
	if base, size := f.k.ExportTableRange(); addr >= base && addr-base < size {
		if apiName, ok := f.k.ExportEntryNameAt(addr - base); ok {
			resolved = apiName
		}
	}
	fd := Finding{
		Rule:        rule,
		At:          m.InstrCount,
		PID:         pid,
		ProcName:    name,
		InstrAddr:   pc,
		Disasm:      isa.Disasm(in, pc),
		TargetAddr:  addr,
		InstrProv:   iProv,
		TargetProv:  targetProv,
		ResolvedAPI: resolved,
	}
	f.findingGraph(&fd, size)
	f.findings = append(f.findings, fd)
}

// --- TaintBridge implementation (tag insertion at system activity) ---

// PacketIn implements guest.TaintBridge: netflow tag insertion at the NIC.
func (f *FAROS) PacketIn(flow gnet.Flow, data []byte) []uint32 {
	nf := f.T.InternNetflow(taint.NetflowTag{
		SrcIP:   flow.Remote.IP,
		SrcPort: flow.Remote.Port,
		DstIP:   flow.Local.IP,
		DstPort: flow.Local.Port,
	})
	id := uint32(f.T.Single(nf))
	out := make([]uint32, len(data))
	for i := range out {
		out[i] = id
	}
	return out
}

// RecvToUser implements guest.TaintBridge: received bytes land in a process
// buffer carrying their netflow provenance plus the receiving process tag.
func (f *FAROS) RecvToUser(p *guest.Process, dstVA uint32, data []byte, prov []uint32) {
	pt := f.procTag(p)
	for i := range data {
		id := taint.ProvID(0)
		if i < len(prov) {
			id = taint.ProvID(prov[i])
		}
		id = f.stampProc(id, pt)
		f.memSetRange(p.Space, dstVA+uint32(i), 1, id)
	}
}

// FileRead implements guest.TaintBridge: file tag insertion on load.
func (f *FAROS) FileRead(p *guest.Process, file *gfs.File, fileOff int, dstVA uint32, n int) {
	ft := f.T.InternFile(file.Name, file.Version)
	pt := f.procTag(p)
	shadow := file.Shadow()
	for i := 0; i < n; i++ {
		var id taint.ProvID
		if fileOff+i < len(shadow) {
			id = taint.ProvID(shadow[fileOff+i])
		}
		id = f.T.Prepend(id, ft)
		id = f.stampProc(id, pt)
		f.memSetRange(p.Space, dstVA+uint32(i), 1, id)
	}
}

// SectionLoaded implements guest.TaintBridge: image mapping is a file load.
func (f *FAROS) SectionLoaded(p *guest.Process, file *gfs.File, fileOff int, dstVA uint32, n int) {
	f.FileRead(p, file, fileOff, dstVA, n)
}

// FileWrite implements guest.TaintBridge: file tag insertion on store; the
// file's shadow inherits the buffer's provenance.
func (f *FAROS) FileWrite(p *guest.Process, file *gfs.File, fileOff int, srcVA uint32, n int) {
	ft := f.T.InternFile(file.Name, file.Version)
	shadow := make([]uint32, n)
	for i := 0; i < n; i++ {
		id := f.memGetRange(p.Space, srcVA+uint32(i), 1)
		id = f.T.Prepend(id, ft)
		shadow[i] = uint32(id)
	}
	if err := file.SetShadowAt(fileOff, shadow); err != nil {
		// The kernel already wrote the bytes; a shadow mismatch is an
		// engine bug worth surfacing loudly in tests.
		panic(fmt.Sprintf("core: FileWrite shadow: %v", err))
	}
}

// CopyUserToUser implements guest.TaintBridge: kernel-mediated cross-space
// copies stamp both the calling and destination process tags — this is how
// inject_client.exe → notepad.exe chains appear in provenance lists.
func (f *FAROS) CopyUserToUser(caller, dst *guest.Process, dstVA uint32, src *guest.Process, srcVA uint32, n int) {
	callerTag := f.procTag(caller)
	dstTag := f.procTag(dst)
	for i := 0; i < n; i++ {
		id := f.memGetRange(src.Space, srcVA+uint32(i), 1)
		id = f.stampProc(id, callerTag)
		if dst != caller {
			id = f.stampProc(id, dstTag)
		}
		f.memSetRange(dst.Space, dstVA+uint32(i), 1, id)
	}
}

// ContextSwitch implements guest.TaintBridge: swap shadow register banks on
// CR3 change.
func (f *FAROS) ContextSwitch(_, to *guest.Process) {
	if to == nil {
		f.bank = nil
		f.haveCur = false
		return
	}
	bank, ok := f.banks[to.CR3()]
	if !ok {
		bank = &taint.RegBank{}
		f.banks[to.CR3()] = bank
	}
	f.bank = bank
	f.bankClean = !bank.AnyTainted()
	f.curTag = f.procTag(to)
	f.haveCur = true
}

// ProcessStarted implements guest.TaintBridge.
func (f *FAROS) ProcessStarted(p *guest.Process) {
	f.banks[p.CR3()] = &taint.RegBank{}
	f.procTag(p)
}

// ProcessExited implements guest.TaintBridge. Tags persist: the analyst
// wants provenance for dead processes too.
func (f *FAROS) ProcessExited(_ *guest.Process) {}
