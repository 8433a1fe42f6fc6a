// The fused block executor: FAROS's side of the VM's block dispatch.
//
// ExecBlock is the engine's only dispatcher: the Table I dataflow compiled
// into one loop over a predecoded micro-op stream, so a block costs one
// interface call instead of one per instruction, and the per-instruction
// op×mode re-derivation disappears. vm.Machine.RunBlock chains the blocks
// and calls ExecBlock once per block. The per-instruction form of the same
// semantics lives on as a test-only reference (refstep_test.go), which the
// differential tests run under vm.Machine.UseReferenceStep. Five
// observations make the executor fast while staying bit-identical:
//
//   - The taint side of every micro-op is known at lowering time (Table I),
//     so each case applies arch effect and shadow effect together — the
//     effective address is computed once, and the memory helpers
//     (taintLoad, taintStore, taintPop) are shared with the reference, so
//     both propagate through identical code.
//   - A clean register bank plus clean touched pages makes every taint
//     effect a provable no-op. A block entered over a clean bank runs in
//     "fast" mode, probing each page's live-taint counter through the
//     engine page TLB (pageTLB.probe, the one hit test) and dropping to
//     full propagation mid-block the moment taint is seen — before the
//     triggering micro-op applies any effect, so nothing is replayed.
//   - Findings and lifecycle events timestamp with M.InstrCount, so the
//     loop syncs the counter right before each instruction's shadow effect;
//     everything else (EIP, the retire count) batches to block exit.
//   - Hot loops never leave the executor: a back edge to the block's own
//     start begins the next pass in place, making the one decision
//     ExecBlock makes on every block entry that can change between passes,
//     the throttled bank rescan (recheckBank); the strict exec check
//     already recorded the block's page at entry. A budget that lands
//     inside a block runs the block's longest whole-uop prefix.
//   - A counted byte loop's passes differ only in the bytes they move, so
//     whole passes run in batches (loopBatch) with each access's page
//     probed once per batch, declining wherever a pass would take a branch
//     of execFused the batch does not repeat.
//
// Faults replicate Step's contract exactly: the reference runs the
// observer — shadow effects included — before the architectural access
// faults, so the fused cases apply the taint effect first, count the
// faulting instruction as observed, leave EIP on it, and return the same
// *vm.FaultError. Self-modifying code rides the block epoch: any store that
// invalidates cached blocks ends the current block at that instruction and
// the next dispatch rebuilds from fresh bytes.

package core

import (
	"faros/internal/isa"
	"faros/internal/mem"
	"faros/internal/taint"
	"faros/internal/vm"
)

var _ vm.BlockPlugin = (*FAROS)(nil)

// ExecBlock implements vm.BlockPlugin: execute one predecoded block with
// the engine's taint effects fused into the executor, running it in place
// for as many passes as branch back to the block's start and ending a
// budget that lands inside it on its longest whole-uop prefix that fits
// (see vm.Block.Run). vm.Machine.RunBlock chains blocks; every entry makes
// the strict exec check and the throttled bank rescan, then runs the block
// through execFused.
func (f *FAROS) ExecBlock(m *vm.Machine, b *vm.Block, budget uint64) (uint64, vm.Trap, error) {
	if f.cfg.StrictExecCheck {
		// Block entry is always the first-ever instruction executed on a
		// not-yet-checked (CR3, page): blocks never cross pages, so any
		// earlier instruction on this page would have recorded the key.
		f.strictExecCheck(m, m.CPU.EIP, b.Ins[0])
	}
	f.recheckBank()
	return f.execFused(m, b, !f.cfg.PropagateAddrDeps && f.bankClean, budget)
}

// recheckBank is the throttled bank rescan every block entry and every
// in-place pass makes. bankClean is a one-way dirty flag between rescans:
// only loads and pops can introduce taint into a clean bank (unions and
// copies need a tainted source), and both clear it when they write a
// nonzero id. Taint often drains (overwritten by immediates, XOR-cleared)
// without the flag noticing, so dirty banks are rescanned — but only every
// 16th time: the flag is purely an optimization hint, and a rescan on
// every block costs more than the shortcuts it would recover. recheckBank
// is small enough to inline into execFused's back edges, so a pass calls
// out only when a rescan is due.
func (f *FAROS) recheckBank() {
	if !f.bankClean {
		if f.bankRecheck++; f.bankRecheck&15 == 0 {
			f.rescanBank()
		}
	}
}

// rescanBank is recheckBank's rescan, kept out of line so that recheckBank
// inlines.
//
//go:noinline
func (f *FAROS) rescanBank() {
	f.bankClean = !f.bank.AnyTainted()
}

// execFused runs the block at EIP applying architectural and shadow
// effects together, within budget retired instructions: a budget prefix
// or as many in-place passes as the block's back edge allows, each making
// the throttled bank rescan (recheckBank) a block entry makes.
// Memory micro-ops probe the page TLB inline and hand the verdict to the
// matching taint helper (taintLoad, taintStore, taintPop) only when it is
// not a provable no-op (a clean page, and for stores an untainted value),
// so the common case pays a few compares instead of the full propagation
// chain, dirty bank or not. fast tracks whether the bank stayed clean for
// the whole block (the untainted_fast_blocks diagnostic); it flips off
// when a taint helper runs and stays off for the passes after. Retire and
// fused-op counts stay in locals across passes and commit once on exit;
// as in the plain executor, a pass's folded instructions (vm.FusedIn) are
// added where it ends, not per micro-op.
func (f *FAROS) execFused(m *vm.Machine, b *vm.Block, fast bool, budget uint64) (uint64, vm.Trap, error) {
	regs := &m.CPU.Regs
	space := m.Space()
	bank := f.bank
	start := m.CPU.EIP
	entry := m.InstrCount
	epoch := m.BlockEpoch()
	uops, limit := b.Run(budget)
	noDeps := !f.cfg.PropagateAddrDeps
	// The mapping generation only moves in the kernel, and blocks end at
	// syscalls — safe to read once per block. The shadow-page allocation
	// count is NOT hoistable: a store earlier in this very block can create
	// a shadow page, so probes fetch it fresh.
	spaceGen := space.Gen()
	var ii uint32    // architectural instructions retired so far, over every pass
	var fused uint64 // FusedOps of earlier passes
iterate:
	for {
		if b.Loop != nil && noDeps {
			var n uint32
			n, fast = f.loopBatch(m, b, start, entry, ii, limit, fast)
			ii, fused = ii+n*uint32(b.NInstr), fused+uint64(n)*uint64(b.Fused)
		}
		// Instruction ii of this call is b.Ins[ii-first] at base +
		// ii*InstrSize: each pass starts at start, so both back off by the
		// instructions of earlier passes.
		first := ii
		base := start - first*isa.InstrSize
		for ui := range uops {
			u := &uops[ui]
			// at and pc address the micro-op's current instruction: its first,
			// or the access after a folded MOVI.
			at := ii
			pc := base + ii*isa.InstrSize
			switch u.Kind {
			case isa.UNop:
			case isa.UMovRR:
				bank[u.A] = bank[u.B]
				regs[u.A] = regs[u.B]
			case isa.UMovRI:
				bank[u.A] = 0 // immediate: delete (Table I)
				regs[u.A] = u.Imm
			case isa.UAluRR:
				// Union(0,0) is 0 and Union(a,a) is a — both already in place,
				// skip the call. The first also covers XOR with distinct
				// registers; the second is an accumulator folding a uniform
				// buffer (the steady state of checksum loops).
				if a, bb := bank[u.A], bank[u.B]; bb != 0 && a != bb {
					if a == 0 {
						bank[u.A] = bb // Union(0, b) without the call
					} else {
						bank[u.A] = f.T.Union(a, bb)
					}
				}
				regs[u.A] = isa.EvalALU(u.Op, regs[u.A], regs[u.B])
			case isa.UAluRI:
				// Immediate forms leave the destination's taint unchanged.
				regs[u.A] = isa.EvalALU(u.Op, regs[u.A], u.Imm)
			case isa.UXorClear:
				bank[u.A] = 0 // XOR r,r: delete (Table I)
				regs[u.A] = 0
			case isa.UNot:
				// NOT keeps taint.
				regs[u.A] = ^regs[u.A]
			case isa.UCmpRR:
				a, v := regs[u.A], regs[u.B]
				m.CPU.Flags.Z, m.CPU.Flags.S = a == v, int32(a) < int32(v)
			case isa.UCmpRI:
				a := regs[u.A]
				m.CPU.Flags.Z, m.CPU.Flags.S = a == u.Imm, int32(a) < int32(u.Imm)

			case isa.UMoviLoad:
				bank[u.B] = 0 // immediate: delete (Table I)
				regs[u.B] = u.Imm2
				at, pc = at+1, pc+isa.InstrSize
				fallthrough
			case isa.ULoad:
				addr := regs[u.B] + u.Imm
				if u.C != isa.NoIdx {
					addr = regs[u.B] + regs[u.C]
				}
				tl := &f.tlb[tlbLoad]
				pa, st := tl.probe(space, spaceGen, addr, uint32(u.Size), f.T.PageAllocs())
				if noDeps && st > 0 {
					// Clean page: the loaded provenance is zero, the policy
					// check vacuous — taintLoad reduced to its first branch.
					bank[u.A] = 0
					f.stats.LoadsChecked++
				} else if ids := tl.ids; noDeps && st < 0 && ids != nil && u.Size == 1 {
					// Single tainted byte: the provenance is the shadow byte
					// itself — no union fold, no helper call. The policy check
					// keeps taintLoad's shape (summary-bit test, full check
					// only on a hit).
					raw := ids[pa%mem.PageSize]
					bank[u.A] = raw
					if raw != 0 {
						f.bankClean = false
						fast = false
					}
					f.stats.LoadsChecked++
					if f.T.Has(raw, taint.TagExportTable) {
						m.InstrCount = entry + uint64(at)
						f.checkPolicy(m, pc, b.Ins[at-first], addr, raw, 1)
					}
				} else {
					fast = false
					m.InstrCount = entry + uint64(at)
					f.taintLoad(m, pc, b.Ins[at-first], addr, int(u.Size), pa, st)
				}
				if st != 0 && u.Size == 1 && tl.data != nil {
					// The probe already translated and the fill checked read
					// permission — read the frame byte directly.
					regs[u.A] = uint32(tl.data[pa%mem.PageSize])
				} else {
					var v uint32
					var err error
					if u.Size == 4 {
						v, _, err = m.DataRead32(addr)
					} else {
						v, _, err = m.DataRead8(addr)
					}
					if err != nil {
						return f.fusedFault(m, entry, at, pc, fused+vm.FusedIn(uops, ui), err)
					}
					regs[u.A] = v
				}
				if u.Op != 0 {
					if u.D == isa.NoIdx {
						// Immediate forms leave the destination's taint unchanged.
						regs[u.A] = isa.EvalALU(u.Op, regs[u.A], u.Imm)
					} else {
						// UAluRR's union with the loaded register as the source,
						// inline as there (a helper would not inline).
						if a, bb := bank[u.D], bank[u.A]; bb != 0 && a != bb {
							if a == 0 {
								bank[u.D] = bb
							} else {
								bank[u.D] = f.T.Union(a, bb)
							}
						}
						regs[u.D] = isa.EvalALU(u.Op, regs[u.D], regs[u.A])
					}
				}

			case isa.UMoviStore:
				bank[u.B] = 0 // immediate: delete (Table I)
				regs[u.B] = u.Imm2
				at, pc = at+1, pc+isa.InstrSize
				fallthrough
			case isa.UStore:
				addr := regs[u.B] + u.Imm
				if u.C != isa.NoIdx {
					addr = regs[u.B] + regs[u.C]
				}
				// Untainted value over a clean page: taintStore would stamp 0
				// and skip the shadow write — nothing to do.
				ts := &f.tlb[tlbStore]
				pa, st := ts.probe(space, spaceGen, addr, uint32(u.Size), f.T.PageAllocs())
				if !(bank[u.A] == 0 && st > 0) {
					if ids := ts.ids; st < 0 && ids != nil && u.Size == 1 {
						// Single byte onto an already-tainted page: stamp via the
						// one-entry memo (taintStore's first step, inlined) and
						// skip MemSet1 when the stamped id is already in place —
						// the steady state of a copy loop's second and later
						// rounds.
						sid := bank[u.A]
						if sid != 0 {
							fast = false
							if f.haveCur && sid == f.stampIn && f.curTag == f.stampTag && !f.cfg.NoProcessTags {
								sid = f.stampOut
							} else {
								sid = f.stampStore(sid)
							}
						}
						if !f.T.MemSame1(pa, sid, ids) {
							f.T.MemSet1(pa, sid)
						}
					} else {
						fast = false
						m.InstrCount = entry + uint64(at)
						f.taintStore(space, addr, int(u.Size), bank[u.A], pa, st)
					}
				}
				if st != 0 && u.Size == 1 && ts.data != nil {
					// Translated and write-permission-checked at fill time.
					ts.data[pa%mem.PageSize] = byte(regs[u.A])
					if !(ts.noBlocks && ts.builtAt == m.BlocksBuilt()) {
						m.InvalidateFrame(uint32(pa >> mem.PageShift))
						ts.noBlocks, ts.builtAt = true, m.BlocksBuilt()
					}
				} else {
					var err error
					if u.Size == 4 {
						_, err = m.DataWrite32(addr, regs[u.A])
					} else {
						_, err = m.DataWrite8(addr, byte(regs[u.A]))
					}
					if err != nil {
						return f.fusedFault(m, entry, at, pc, fused+vm.FusedIn(uops, ui), err)
					}
				}
				if m.BlockEpoch() != epoch {
					return f.fusedCommit(m, entry, at+1, pc+isa.InstrSize, vm.TrapNone, fused+vm.FusedIn(uops, ui+1), fast)
				}

			case isa.UPush:
				sp := regs[isa.ESP] - 4
				var id taint.ProvID
				if u.D == 0 {
					id = bank[u.A]
				}
				if pa, st := f.tlb[tlbStore].probe(space, spaceGen, sp, 4, f.T.PageAllocs()); !(id == 0 && st > 0) {
					fast = false
					m.InstrCount = entry + uint64(ii)
					f.taintStore(space, sp, 4, id, pa, st)
				}
				v := u.Imm
				if u.D == 0 {
					v = regs[u.A]
				}
				regs[isa.ESP] = sp
				if _, err := m.DataWrite32(sp, v); err != nil {
					regs[isa.ESP] = sp + 4
					return f.fusedFault(m, entry, ii, pc, fused+vm.FusedIn(uops, ui), err)
				}
				if m.BlockEpoch() != epoch {
					return f.fusedCommit(m, entry, ii+1, pc+isa.InstrSize, vm.TrapNone, fused+vm.FusedIn(uops, ui+1), fast)
				}

			case isa.UPop:
				sp := regs[isa.ESP]
				if pa, st := f.tlb[tlbLoad].probe(space, spaceGen, sp, 4, f.T.PageAllocs()); st > 0 {
					bank[u.A] = 0 // clean page: taintPop's zero branch
				} else {
					fast = false
					m.InstrCount = entry + uint64(ii)
					f.taintPop(space, sp, u.A, pa, st)
				}
				v, _, err := m.DataRead32(sp)
				if err != nil {
					return f.fusedFault(m, entry, ii, pc, fused+vm.FusedIn(uops, ui), err)
				}
				regs[isa.ESP] = sp + 4
				regs[u.A] = v

			case isa.URet:
				// RET has no taint effect (the popped return address feeds EIP,
				// not a register).
				v, _, err := m.DataRead32(regs[isa.ESP])
				if err != nil {
					return f.fusedFault(m, entry, ii, pc, fused+vm.FusedIn(uops, ui), err)
				}
				regs[isa.ESP] += 4
				return f.fusedCommit(m, entry, ii+1, v, b.EndTrap, fused+uint64(b.Fused), fast)

			case isa.UJmp:
				next := vm.UopTarget(regs, u, pc)
				if b.Iterates(next, start, ii+1, limit) && m.BlockEpoch() == epoch {
					f.recheckBank()
					ii, fused = ii+1, fused+uint64(b.Fused)
					continue iterate
				}
				return f.fusedCommit(m, entry, ii+1, next, b.EndTrap, fused+uint64(b.Fused), fast)

			case isa.UJcc:
				// Control dependencies are deliberately not propagated (§IV).
				// Taken: side exit; not taken: the block continues at the
				// fall-through micro-op.
				if isa.CondTaken(u.Op, m.CPU.Flags.Z, m.CPU.Flags.S) {
					next := vm.UopTarget(regs, u, pc)
					if b.Iterates(next, start, ii+1, limit) && m.BlockEpoch() == epoch {
						f.recheckBank()
						ii, fused = ii+1, fused+vm.FusedIn(uops, ui+1)
						continue iterate
					}
					return f.fusedCommit(m, entry, ii+1, next, vm.TrapNone, fused+vm.FusedIn(uops, ui+1), fast)
				}

			case isa.UCall:
				sp := regs[isa.ESP] - 4
				if pa, st := f.tlb[tlbStore].probe(space, spaceGen, sp, 4, f.T.PageAllocs()); st <= 0 {
					// The pushed return address is a constant: delete the taint
					// under it (a store of id 0, a no-op over a clean page).
					fast = false
					m.InstrCount = entry + uint64(ii)
					f.taintStore(space, sp, 4, 0, pa, st)
				}
				regs[isa.ESP] = sp
				if _, err := m.DataWrite32(sp, pc+isa.InstrSize); err != nil {
					regs[isa.ESP] = sp + 4
					return f.fusedFault(m, entry, ii, pc, fused+vm.FusedIn(uops, ui), err)
				}
				return f.fusedCommit(m, entry, ii+1, vm.UopTarget(regs, u, pc), b.EndTrap, fused+uint64(b.Fused), fast)

			case isa.USyscall:
				// Kernel return values are untainted.
				bank[isa.EAX] = 0
				return f.fusedCommit(m, entry, ii+1, pc+isa.InstrSize, b.EndTrap, fused+uint64(b.Fused), fast)

			case isa.UHlt:
				return f.fusedCommit(m, entry, ii+1, pc+isa.InstrSize, b.EndTrap, fused+uint64(b.Fused), fast)

			case isa.UCmpJccRR, isa.UCmpJccRI:
				a := regs[u.A]
				v := u.Imm
				if u.Kind == isa.UCmpJccRR {
					v = regs[u.B]
				}
				z, s := a == v, int32(a) < int32(v)
				m.CPU.Flags.Z, m.CPU.Flags.S = z, s
				if isa.CondTaken(u.Op, z, s) {
					next := vm.UopTarget2(u, pc)
					if b.Iterates(next, start, ii+2, limit) && m.BlockEpoch() == epoch {
						f.recheckBank()
						ii, fused = ii+2, fused+vm.FusedIn(uops, ui+1)
						continue iterate
					}
					return f.fusedCommit(m, entry, ii+2, next, vm.TrapNone, fused+vm.FusedIn(uops, ui+1), fast)
				}

			case isa.UAluJmp:
				regs[u.A] = isa.EvalALU(u.Op, regs[u.A], u.Imm)
				next := vm.UopTarget2(u, pc)
				if b.Iterates(next, start, ii+2, limit) && m.BlockEpoch() == epoch {
					f.recheckBank()
					ii, fused = ii+2, fused+uint64(b.Fused)
					continue iterate
				}
				return f.fusedCommit(m, entry, ii+2, next, b.EndTrap, fused+uint64(b.Fused), fast)

			}
			ii += uint32(u.N)
		}
		// Page-end cut, or the end of a budget prefix: fall through to the
		// next instruction.
		return f.fusedCommit(m, entry, ii, base+ii*isa.InstrSize, vm.TrapNone, fused+vm.FusedIn(uops, len(uops)), fast)
	}
}

// loopBatch runs, at the start of a pass of the counted loop b
// (vm.CountedLoop), the passes vm.Block.LoopPasses allows with their
// shadow effects, and returns how many it ran; execFused's per-pass
// dispatch runs the pass after them. Only the default dataflow batches:
// execFused keeps address dependencies to its per-pass dispatch.
//
// Each access's page resolves once: its probe of the page-TLB slot
// execFused would probe must hit with data set, and the store slot must
// show the frame block-free at the current built count, so no pass
// invalidates blocks or moves the epoch. The shadow effects of the passes
// run first (loopShadow), then the guest bytes and registers move through
// the plain executor's byte mover (vm.CountedLoop.Move): neither reads
// what the other writes. It returns fast as the passes it ran leave it.
func (f *FAROS) loopBatch(m *vm.Machine, b *vm.Block, start uint32, entry uint64, retired, limit uint32, fast bool) (uint32, bool) {
	var addr [vm.MaxLoopAccesses]uint32
	regs := &m.CPU.Regs
	n := b.LoopPasses(regs, start, retired, limit, &addr)
	if n == 0 {
		return 0, fast
	}
	l := b.Loop
	space := m.Space()
	spaceGen := space.Gen()
	var frames [vm.MaxLoopAccesses]*[mem.PageSize]byte
	var idx [vm.MaxLoopAccesses]uint32
	for k := range l.Body {
		t := &f.tlb[tlbLoad]
		if k >= l.Loads {
			t = &f.tlb[tlbStore]
		}
		if _, st := t.probe(space, spaceGen, addr[k], 1, f.T.PageAllocs()); st == 0 || t.data == nil {
			return 0, fast
		}
		frames[k], idx[k] = t.data, addr[k]%mem.PageSize
	}
	if ts := &f.tlb[tlbStore]; l.Loads < len(l.Body) && !(ts.noBlocks && ts.builtAt == m.BlocksBuilt()) {
		return 0, fast
	}
	n, fast = f.loopShadow(m, b, &addr, &idx, entry, retired, n, fast)
	if n == 0 {
		return 0, fast
	}
	l.Move(regs, &frames, &idx, n)
	f.stats.LoadsChecked += uint64(n) * uint64(l.Loads)
	m.AddBatchedPasses(uint64(n))
	return n, fast
}

// loopShadow applies the shadow effects of up to n passes of loopBatch's
// loop, each access k at page offset idx[k]+p of its slot's page in pass
// p, and returns how many passes it applied and fast as they leave it.
// It works a run at a time: a run is the passes over which every load
// reads the raw id it reads at the run's first pass. A run whose loads
// carry the export-table tag, or that would need taintLoad (a shadow page
// born under a load entry filled without one), is where the batch ends:
// execFused calls out there. Within a run, passes apply their effects
// through the branches execFused takes, in micro-op order, until one
// leaves the register bank as it found it. From then on every pass is the
// same: its loads write the same ids, its unions are memo hits
// (taint.Store.CountUnionHits) and its store writes the same stamped id,
// so the rest of the run takes one stamp, one range store
// (taint.Store.MemSetRun) and one throttled-rescan step (recheckBankN).
// Passes stay one at a time where that does not hold: a store that needs
// taintStore (an untainted page under a tainted value, or a shadow page
// the store slot has no ids for), more than one store per pass, and a
// bank that never settles (a union past the list cap can alternate
// between two lists). A store that runs ahead of a load on the same page
// writes, d passes early, the byte that load reads: runs are cut to d
// passes, so a run's ids are read before any of its stores.
func (f *FAROS) loopShadow(m *vm.Machine, b *vm.Block, addr, idx *[vm.MaxLoopAccesses]uint32, entry uint64, retired, n uint32, fast bool) (uint32, bool) {
	l := b.Loop
	bank, T := f.bank, f.T
	tl, ts := &f.tlb[tlbLoad], &f.tlb[tlbStore]
	// The slots' shadow pages: no pass refills either entry.
	lids, sids := tl.ids, ts.ids
	loads, stores := l.Body[:l.Loads], l.Body[l.Loads:]
	ahead := n
	if tl.base == ts.base {
		for j := range loads {
			for k := range stores {
				if d := idx[l.Loads+k] - idx[j]; idx[l.Loads+k] > idx[j] && d < ahead {
					ahead = d
				}
			}
		}
	}
	var raws [vm.MaxLoopAccesses]taint.ProvID
	var p, end uint32
	for p < n {
		if len(loads) > 0 && lids == nil && tl.verdict(T.PageAllocs()) < 0 {
			break // taintLoad would union through the store
		}
		if p == end {
			// A new run: its loads' ids, and how far they stay put.
			end = min(n, p+ahead)
			for k := range loads {
				var raw taint.ProvID
				if lids != nil {
					o := idx[k] + p
					raw = lids[o]
					for e := o + 1; e < idx[k]+end; e++ {
						if lids[e] != raw {
							end = e - idx[k]
							break
						}
					}
				}
				if T.Has(raw, taint.TagExportTable) {
					return p, fast // checkPolicy runs in execFused
				}
				raws[k] = raw
			}
			if p == 0 {
				for k := range l.Body {
					if u := &l.Body[k]; u.Kind == isa.UMoviLoad || u.Kind == isa.UMoviStore {
						bank[u.B] = 0 // immediate: delete (Table I)
					}
				}
			}
		}
		before := *bank
		var unions uint64
		for k := range loads {
			u := &loads[k]
			raw := raws[k]
			if raw != 0 {
				f.bankClean = false
				fast = false
			}
			bank[u.A] = raw
			if u.Op != 0 && u.D != isa.NoIdx {
				if a := bank[u.D]; raw != 0 && a != raw {
					if a == 0 {
						bank[u.D] = raw
					} else {
						bank[u.D] = T.Union(a, raw)
						unions++
					}
				}
			}
		}
		for k := range stores {
			u := &stores[k]
			j := l.Loads + k
			pa, st := ts.base|uint64(idx[j]+p), ts.verdict(T.PageAllocs()) // the probe's hit
			if sid := bank[u.A]; !(sid == 0 && st > 0) {
				if st < 0 && sids != nil {
					if sid != 0 {
						fast = false
						sid = f.stampStore(sid)
					}
					if !T.MemSame1(pa, sid, sids) {
						T.MemSet1(pa, sid)
					}
				} else {
					fast = false
					m.InstrCount = entry + uint64(retired+p*uint32(b.NInstr)+l.At[j])
					f.taintStore(m.Space(), addr[j]+p, 1, sid, pa, st)
				}
			}
		}
		f.recheckBank()
		p++
		if p == end || *bank != before {
			continue
		}
		// The bank is settled: the run's other passes repeat this one.
		if len(stores) > 1 {
			continue
		}
		if len(stores) == 1 {
			j := l.Loads
			sid, st := bank[stores[0].A], ts.verdict(T.PageAllocs())
			if !(sid == 0 && st > 0) {
				if !(st < 0 && sids != nil) {
					continue // taintStore, pass by pass
				}
				T.MemSetRun(ts.base|uint64(idx[j]+p), int(end-p), f.stampStore(sid))
			}
		}
		T.CountUnionHits(unions * uint64(end-p))
		f.recheckBankN(end - p)
		p = end
	}
	return p, fast
}

// recheckBankN is n passes of recheckBank over a bank none of them
// changes: the counter advances by n, with the rescan where it crosses a
// multiple of 16. The rescan's answer is the same at every crossing, so
// one is enough, and a clean answer stops the counter there.
func (f *FAROS) recheckBankN(n uint32) {
	if f.bankClean {
		return
	}
	if due := 16 - f.bankRecheck&15; due <= n {
		f.bankRecheck += due
		f.rescanBank()
		if f.bankClean {
			return
		}
		n -= due
	}
	f.bankRecheck += n
}

// fusedCommit finalizes a (possibly partial) fused block execution.
func (f *FAROS) fusedCommit(m *vm.Machine, entry uint64, retired, next uint32, trap vm.Trap, fused uint64, fast bool) (uint64, vm.Trap, error) {
	m.CPU.EIP = next
	m.InstrCount = entry + uint64(retired)
	m.AddFusedOps(fused)
	f.stats.Instructions += uint64(retired)
	if fast {
		f.stats.Block.UntaintedFastBlocks++
	}
	return uint64(retired), trap, nil
}

// fusedFault finalizes a mid-block fault: retired instructions commit, the
// faulting instruction counts as observed (its shadow effect already
// applied, as on the reference path), and EIP stays on it.
func (f *FAROS) fusedFault(m *vm.Machine, entry uint64, retired, pc uint32, fused uint64, err error) (uint64, vm.Trap, error) {
	m.CPU.EIP = pc
	m.InstrCount = entry + uint64(retired)
	m.AddFusedOps(fused)
	f.stats.Instructions += uint64(retired) + 1
	return uint64(retired), vm.TrapFault, &vm.FaultError{PC: pc, Err: err}
}
