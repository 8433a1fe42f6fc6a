// The fused block executor: FAROS's side of the VM's block dispatch.
//
// BeforeInstr remains the per-instruction reference semantics; ExecBlock is
// the same dataflow compiled into one loop over a predecoded micro-op
// stream, so a block costs one interface call instead of one per
// instruction, and the per-instruction op×mode re-derivation disappears.
// Three observations make it fast while staying bit-identical:
//
//   - The taint side of every micro-op is known at lowering time (Table I),
//     so each case applies arch effect and shadow effect together — the
//     effective address is computed once, the memory helpers shared with
//     the reference path (taintLoadAt, taintStoreAt, ...) keep the two
//     dispatchers propagating through identical code.
//   - A clean register bank plus clean touched pages makes every taint
//     effect a provable no-op. Blocks that touch no data memory then run on
//     the VM's plain executor outright; blocks that do touch memory run in
//     "fast" mode, probing each page's live-taint counter (FrameUntainted
//     via the engine page TLB) and dropping to full propagation mid-block
//     the moment taint is seen — before the triggering micro-op applies any
//     effect, so nothing is replayed.
//   - Findings and lifecycle events timestamp with M.InstrCount, so the
//     loop syncs the counter right before each instruction's shadow effect;
//     everything else (EIP, the retire count) batches to block exit.
//
// Faults replicate Step's contract exactly: the reference path runs the
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

// ExecBlock implements vm.BlockPlugin: execute predecoded blocks with the
// engine's taint effects fused into the dispatch loop, chaining from block
// to block until the budget runs out, a trap or fault surfaces, or the next
// PC has no cached block — one interface call per chain, not per block.
func (f *FAROS) ExecBlock(m *vm.Machine, b *vm.Block, budget uint64) (uint64, vm.Trap, error, bool) {
	var total uint64
	if f.bank == nil {
		// No process context: the reference observer only counts
		// instructions, so whole chains run on the plain executor. The bank
		// only changes in lifecycle hooks, which fire outside the dispatch
		// loop — never mid-chain.
		for {
			n, trap, err := m.ExecBlockPlain(b)
			f.stats.Instructions += n
			if err != nil {
				f.stats.Instructions++ // the faulting instruction was observed too
			}
			total += n
			budget -= n
			if trap != vm.TrapNone || err != nil || budget == 0 {
				return total, trap, err, true
			}
			if b = m.LookupBlock(m.CPU.EIP); b == nil || uint64(b.NInstr) > budget {
				return total, vm.TrapNone, nil, true
			}
		}
	}
	strict := f.cfg.StrictExecCheck
	noDeps := !f.cfg.PropagateAddrDeps
	// Chain-local block cache: hot loops re-enter the block they just left
	// (or alternate between two), so remember the last two dispatched
	// blocks by entry PC and skip the full lookup. Within a chain the
	// mapping generation cannot move (syscalls and faults end chains), and
	// any block invalidation bumps the epoch, which flushes the cache —
	// the same staleness signals lookupBlock itself relies on. PCs are
	// instruction-aligned, so an odd value means an empty slot.
	epoch := m.BlockEpoch()
	cpc := [2]uint32{1, 1}
	var cbk [2]*vm.Block
	var ins int
	for {
		if strict {
			// Block entry is always the first-ever instruction executed on a
			// not-yet-checked (CR3, page): blocks never cross pages, so any
			// earlier instruction on this page would have recorded the key.
			f.strictExecCheck(m, m.CPU.EIP, b.Ins[0])
		}
		// bankClean is a one-way dirty flag between rescans: only loads and
		// pops can introduce taint into a clean bank (unions and copies need
		// a tainted source), and both clear it when they write a nonzero id.
		// Taint often drains (overwritten by immediates, XOR-cleared) without
		// the flag noticing, so dirty banks are rescanned — but only every
		// 16th entry: the flag is purely an optimization hint, and a rescan
		// on every block costs more than the shortcuts it would recover.
		if !f.bankClean {
			if f.bankRecheck++; f.bankRecheck&15 == 0 && !f.bank.AnyTainted() {
				f.bankClean = true
			}
		}
		pcIn := m.CPU.EIP
		var n uint64
		var trap vm.Trap
		var err error
		if fast := noDeps && f.bankClean; fast && b.Eff.RegOnly {
			// No data memory touched and the bank is clean: every taint
			// effect is a no-op on a no-op (copies of zero, deletes of zero,
			// unions the reference skips). Run the taint-no-op loop.
			n, trap, err = m.ExecBlockPlain(b)
			f.stats.Instructions += n
			if err != nil {
				f.stats.Instructions++
			}
			f.stats.Block.UntaintedFastBlocks++
		} else {
			n, trap, err = f.execFused(m, b, fast)
		}
		total += n
		budget -= n
		if trap != vm.TrapNone || err != nil || budget == 0 {
			return total, trap, err, true
		}
		if e := m.BlockEpoch(); e != epoch {
			epoch, cpc[0], cpc[1] = e, 1, 1
		} else if cpc[0] != pcIn && cpc[1] != pcIn {
			cpc[ins], cbk[ins] = pcIn, b
			ins ^= 1
		}
		switch pc := m.CPU.EIP; pc {
		case cpc[0]:
			b = cbk[0]
		case cpc[1]:
			b = cbk[1]
		default:
			if b = m.LookupBlock(pc); b == nil {
				return total, vm.TrapNone, nil, true
			}
		}
		if uint64(b.NInstr) > budget {
			return total, vm.TrapNone, nil, true
		}
	}
}

// execFused runs one block applying architectural and shadow effects
// together. Memory micro-ops probe the page TLB inline — the probe is the
// first branch of the matching taint helper (taintLoadAt, taintStoreAt,
// ...), hoisted out of the call: a clean page and an untainted value make
// the helper a provable no-op, so the common case pays a few compares
// instead of the full propagation chain, dirty bank or not. fast tracks
// whether the bank stayed clean for the whole block (the
// untainted_fast_blocks diagnostic); it flips off when a taint helper runs.
func (f *FAROS) execFused(m *vm.Machine, b *vm.Block, fast bool) (uint64, vm.Trap, error) {
	regs := &m.CPU.Regs
	space := m.Space()
	bank := f.bank
	base := m.CPU.EIP
	entry := m.InstrCount
	epoch := m.BlockEpoch()
	uops := b.Uops
	noDeps := !f.cfg.PropagateAddrDeps
	// The mapping generation only moves in the kernel, and blocks end at
	// syscalls — safe to read once per block. The shadow-page allocation
	// count is NOT hoistable: a store earlier in this very block can create
	// a shadow page, so probes fetch it fresh.
	spaceGen := space.Gen()
	var ii uint32 // architectural instructions retired so far
	var fused uint64
	for ui := range uops {
		u := &uops[ui]
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

		case isa.ULoad:
			addr := regs[u.B] + u.Imm
			if u.C != isa.NoIdx {
				addr = regs[u.B] + regs[u.C]
			}
			tl := &f.tlb[tlbLoad]
			pa, st := tl.probe(space, spaceGen, addr, uint32(u.Size), f.T.PageAllocs())
			if noDeps && st > 0 {
				// Clean page: the loaded provenance is zero, the policy
				// check vacuous — taintLoadAt reduced to its first branch.
				bank[u.A] = 0
				f.stats.LoadsChecked++
			} else if noDeps && st < 0 {
				if ids := tl.ids; ids != nil && u.Size == 1 {
					// Single tainted byte: the provenance is the shadow byte
					// itself — no union fold, no helper call. The policy
					// check keeps taintLoadPA's shape (summary-bit test,
					// full check only on a hit).
					raw := ids[pa%mem.PageSize]
					bank[u.A] = raw
					if raw != 0 {
						f.bankClean = false
						fast = false
					}
					f.stats.LoadsChecked++
					if f.T.Has(raw, taint.TagExportTable) {
						m.InstrCount = entry + uint64(ii)
						f.checkPolicy(m, pc, b.Ins[ii], addr, raw, 1)
					}
				} else {
					fast = false
					m.InstrCount = entry + uint64(ii)
					f.taintLoadPA(m, pc, b.Ins[ii], addr, pa, int(u.Size))
				}
			} else {
				fast = false
				m.InstrCount = entry + uint64(ii)
				f.taintLoadAt(m, pc, b.Ins[ii], addr, int(u.Size))
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
					return f.fusedFault(m, entry, ii, pc, fused, err)
				}
				regs[u.A] = v
			}

		case isa.UStore:
			addr := regs[u.B] + u.Imm
			if u.C != isa.NoIdx {
				addr = regs[u.B] + regs[u.C]
			}
			// Untainted value over a clean page: taintStoreAt would stamp 0
			// and skip the shadow write — nothing to do.
			ts := &f.tlb[tlbStore]
			pa, st := ts.probe(space, spaceGen, addr, uint32(u.Size), f.T.PageAllocs())
			if !(bank[u.A] == 0 && st > 0) {
				if ids := ts.ids; st < 0 && ids != nil && u.Size == 1 {
					// Single byte onto an already-tainted page: stamp via the
					// one-entry memo (taintStorePA's first step, inlined) and
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
					m.InstrCount = entry + uint64(ii)
					if st != 0 {
						f.taintStorePA(pa, int(u.Size), bank[u.A])
					} else {
						f.taintStoreAt(space, addr, int(u.Size), bank[u.A])
					}
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
					return f.fusedFault(m, entry, ii, pc, fused, err)
				}
			}
			if m.BlockEpoch() != epoch {
				return f.fusedCommit(m, entry, ii+1, pc+isa.InstrSize, vm.TrapNone, fused, fast)
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
				if st != 0 {
					f.taintStorePA(pa, 4, id)
				} else {
					f.taintStoreAt(space, sp, 4, id)
				}
			}
			v := u.Imm
			if u.D == 0 {
				v = regs[u.A]
			}
			regs[isa.ESP] = sp
			if _, err := m.DataWrite32(sp, v); err != nil {
				regs[isa.ESP] = sp + 4
				return f.fusedFault(m, entry, ii, pc, fused, err)
			}
			if m.BlockEpoch() != epoch {
				return f.fusedCommit(m, entry, ii+1, pc+isa.InstrSize, vm.TrapNone, fused, fast)
			}

		case isa.UPop:
			sp := regs[isa.ESP]
			if pa, st := f.tlb[tlbLoad].probe(space, spaceGen, sp, 4, f.T.PageAllocs()); st > 0 {
				bank[u.A] = 0 // clean page: taintPop's zero branch
			} else if st < 0 {
				fast = false
				m.InstrCount = entry + uint64(ii)
				f.taintPopPA(pa, u.A)
			} else {
				fast = false
				m.InstrCount = entry + uint64(ii)
				f.taintPop(space, sp, u.A)
			}
			v, _, err := m.DataRead32(sp)
			if err != nil {
				return f.fusedFault(m, entry, ii, pc, fused, err)
			}
			regs[isa.ESP] = sp + 4
			regs[u.A] = v

		case isa.URet:
			// RET has no taint effect (the popped return address feeds EIP,
			// not a register).
			v, _, err := m.DataRead32(regs[isa.ESP])
			if err != nil {
				return f.fusedFault(m, entry, ii, pc, fused, err)
			}
			regs[isa.ESP] += 4
			return f.fusedCommit(m, entry, ii+1, v, b.EndTrap, fused, fast)

		case isa.UJmp:
			return f.fusedCommit(m, entry, ii+1, vm.UopTarget(regs, u, pc), b.EndTrap, fused, fast)

		case isa.UJcc:
			// Control dependencies are deliberately not propagated (§IV).
			// Taken: side exit; not taken: the block continues at the
			// fall-through micro-op.
			if isa.CondTaken(u.Op, m.CPU.Flags.Z, m.CPU.Flags.S) {
				return f.fusedCommit(m, entry, ii+1, vm.UopTarget(regs, u, pc), vm.TrapNone, fused, fast)
			}

		case isa.UCall:
			sp := regs[isa.ESP] - 4
			if pa, st := f.tlb[tlbStore].probe(space, spaceGen, sp, 4, f.T.PageAllocs()); st < 0 {
				// The pushed return address is a constant: delete the taint
				// under it (taintCall with the translation in hand).
				fast = false
				m.InstrCount = entry + uint64(ii)
				f.T.MemSetRange(pa, 4, 0)
			} else if st == 0 {
				fast = false
				m.InstrCount = entry + uint64(ii)
				f.taintCall(space, sp)
			}
			regs[isa.ESP] = sp
			if _, err := m.DataWrite32(sp, pc+isa.InstrSize); err != nil {
				regs[isa.ESP] = sp + 4
				return f.fusedFault(m, entry, ii, pc, fused, err)
			}
			return f.fusedCommit(m, entry, ii+1, vm.UopTarget(regs, u, pc), b.EndTrap, fused, fast)

		case isa.USyscall:
			// Kernel return values are untainted.
			bank[isa.EAX] = 0
			return f.fusedCommit(m, entry, ii+1, pc+isa.InstrSize, b.EndTrap, fused, fast)

		case isa.UHlt:
			return f.fusedCommit(m, entry, ii+1, pc+isa.InstrSize, b.EndTrap, fused, fast)

		case isa.UCmpJccRR, isa.UCmpJccRI:
			a := regs[u.A]
			v := u.Imm
			if u.Kind == isa.UCmpJccRR {
				v = regs[u.B]
			}
			z, s := a == v, int32(a) < int32(v)
			m.CPU.Flags.Z, m.CPU.Flags.S = z, s
			if isa.CondTaken(u.Op, z, s) {
				return f.fusedCommit(m, entry, ii+2, vm.UopTarget2(u, pc), vm.TrapNone, fused+1, fast)
			}
			fused++

		case isa.UAluJmp:
			regs[u.A] = isa.EvalALU(u.Op, regs[u.A], u.Imm)
			return f.fusedCommit(m, entry, ii+2, vm.UopTarget2(u, pc), b.EndTrap, fused+1, fast)

		case isa.UMemMoveB:
			laddr := regs[u.A] + regs[u.B]
			tl := &f.tlb[tlbLoad]
			lpa, lst := tl.probe(space, spaceGen, laddr, 1, f.T.PageAllocs())
			if noDeps && lst > 0 {
				bank[u.Imm] = 0
				f.stats.LoadsChecked++
			} else if noDeps && lst < 0 {
				if ids := tl.ids; ids != nil {
					raw := ids[lpa%mem.PageSize]
					bank[u.Imm] = raw
					if raw != 0 {
						f.bankClean = false
						fast = false
					}
					f.stats.LoadsChecked++
					if f.T.Has(raw, taint.TagExportTable) {
						m.InstrCount = entry + uint64(ii)
						f.checkPolicy(m, pc, b.Ins[ii], laddr, raw, 1)
					}
				} else {
					fast = false
					m.InstrCount = entry + uint64(ii)
					f.taintLoadPA(m, pc, b.Ins[ii], laddr, lpa, 1)
				}
			} else {
				fast = false
				m.InstrCount = entry + uint64(ii)
				f.taintLoadAt(m, pc, b.Ins[ii], laddr, 1)
			}
			var v uint32
			if lst != 0 && tl.data != nil {
				v = uint32(tl.data[lpa%mem.PageSize])
			} else {
				var err error
				v, _, err = m.DataRead8(laddr)
				if err != nil {
					return f.fusedFault(m, entry, ii, pc, fused, err)
				}
			}
			regs[u.Imm] = v
			// The load retired; the store is the second instruction, and its
			// effective address sees the load's register write.
			saddr := regs[u.C] + regs[u.D]
			ts := &f.tlb[tlbStore]
			spa, sst := ts.probe(space, spaceGen, saddr, 1, f.T.PageAllocs())
			if !(bank[u.Imm] == 0 && sst > 0) {
				if ids := ts.ids; sst < 0 && ids != nil {
					sid := bank[u.Imm]
					if sid != 0 {
						fast = false
						if f.haveCur && sid == f.stampIn && f.curTag == f.stampTag && !f.cfg.NoProcessTags {
							sid = f.stampOut
						} else {
							sid = f.stampStore(sid)
						}
					}
					if !f.T.MemSame1(spa, sid, ids) {
						f.T.MemSet1(spa, sid)
					}
				} else {
					fast = false
					m.InstrCount = entry + uint64(ii) + 1
					if sst != 0 {
						f.taintStorePA(spa, 1, bank[u.Imm])
					} else {
						f.taintStoreAt(space, saddr, 1, bank[u.Imm])
					}
				}
			}
			if sst != 0 && ts.data != nil {
				ts.data[spa%mem.PageSize] = byte(v)
				if !(ts.noBlocks && ts.builtAt == m.BlocksBuilt()) {
					m.InvalidateFrame(uint32(spa >> mem.PageShift))
					ts.noBlocks, ts.builtAt = true, m.BlocksBuilt()
				}
			} else {
				if _, err := m.DataWrite8(saddr, byte(v)); err != nil {
					return f.fusedFault(m, entry, ii+1, pc+isa.InstrSize, fused, err)
				}
			}
			fused++
			if m.BlockEpoch() != epoch {
				return f.fusedCommit(m, entry, ii+2, pc+2*isa.InstrSize, vm.TrapNone, fused, fast)
			}
		}
		ii += uint32(u.N)
	}
	// Page-end cut: fall through to the next page.
	return f.fusedCommit(m, entry, ii, base+ii*isa.InstrSize, vm.TrapNone, fused, fast)
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
