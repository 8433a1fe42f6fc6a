// Block dispatch: the interpreter's hot path. Guest code is predecoded
// into cached basic blocks of micro-ops (internal/isa lowering, decode done
// once), keyed by physical frame + offset so shared images (ntdll) are
// lowered once system-wide. Dispatching a block costs one lookup and one
// plugin call instead of a fetch, a decode, and an interface call per
// instruction.
//
// Invalidation rides the signals that already feed the icache: every guest
// store and kernel copy calls InvalidateFrame, which drops the frame's
// blocks and bumps the block epoch. The executors snapshot the epoch and
// compare it after every store micro-op, so self-modifying code stops the
// current block at the mutating instruction and re-enters through a fresh
// build — the same observable behavior as per-instruction stepping.
//
// The per-instruction Step path is retained unchanged as the reference
// interpreter: legacy hooks, non-block plugins, quantum tails shorter than
// the next block, and SetBlockDispatch(false) all fall back to it, and the
// differential tests hold the two bit-identical.

package vm

import (
	"encoding/binary"
	"sync"

	"faros/internal/isa"
	"faros/internal/mem"
	"faros/internal/taint"
)

// Block is one predecoded basic block: the instructions from a branch
// target (or fall-through page entry) to the next control transfer,
// syscall, halt, undecodable slot, or page end — whichever comes first.
// Blocks never span pages, so one frame invalidation drops every block
// built over the mutated bytes.
type Block struct {
	// Frame and Off key the block: physical frame and byte offset of the
	// first instruction.
	Frame uint32
	Off   uint32
	// Ins are the decoded architectural instructions, in order. The engine
	// needs the originals for disassembly in findings.
	Ins []isa.Instruction
	// Uops is the lowered micro-op stream (see internal/isa).
	Uops []isa.Uop
	// NInstr is len(Ins): the architectural instructions the block retires.
	NInstr int
	// Fused counts superinstructions in Uops.
	Fused int
	// EndTrap is the trap raised after the block completes: TrapSyscall or
	// TrapHalt when the terminator is SYSCALL/HLT, TrapNone otherwise.
	EndTrap Trap
	// Eff is the block-level taint effect summary (internal/taint).
	Eff taint.BlockEffects
}

// BlockPlugin is the block-level upgrade of InstrPlugin. An engine that
// implements it receives whole predecoded blocks and runs its analysis
// fused into the dispatch loop instead of being called back per
// instruction. ExecBlock executes the given block (which starts at the
// current EIP) and may then chain into successor blocks via LookupBlock,
// up to budget retired instructions in total — one plugin call per chain,
// not per block. It returns the instructions retired plus the trap state
// of the last one, exactly as a sequence of Steps would have; ok=false
// declines the first block untouched, and the VM falls back to the
// per-instruction reference path. Returning TrapNone with budget left
// simply means the chain ended at a PC block dispatch cannot serve (or a
// partial retire after self-modifying code); the VM re-enters at the new
// EIP.
type BlockPlugin interface {
	InstrPlugin
	ExecBlock(m *Machine, b *Block, budget uint64) (retired uint64, trap Trap, err error, ok bool)
}

// BlockStats counts block-cache activity.
type BlockStats struct {
	// Built counts blocks decoded and lowered.
	Built uint64 `json:"built"`
	// Hits counts dispatches served from the cache.
	Hits uint64 `json:"hits"`
	// Invalidated counts frames whose cached blocks were dropped.
	Invalidated uint64 `json:"invalidated"`
	// FusedOps counts superinstructions retired by the plain block
	// executor (an attached engine counts its own executions separately).
	FusedOps uint64 `json:"fused_ops"`
}

// blockPage holds the cached blocks of one physical frame, indexed by
// instruction slot like the icache.
type blockPage struct {
	blocks [icacheSlots]*Block
	built  bool // some slot is filled
}

// blockPagePool recycles the block pages of released machines across the
// process (see Machine.Release).
var blockPagePool sync.Pool

// newBlockPage returns an empty block page, reusing a pooled one (cleared)
// when available.
func newBlockPage() *blockPage {
	bp, _ := blockPagePool.Get().(*blockPage)
	if bp == nil {
		return new(blockPage)
	}
	*bp = blockPage{}
	return bp
}

// blockTLB is a one-entry TLB for block lookup: the current code page's
// blockPage. vpn doubles as the valid bit (invalidVPN = invalid).
type blockTLB struct {
	gen   uint64
	vpn   uint32
	frame uint32
	page  *blockPage
}

// unbuildable marks a slot whose first instruction does not decode; the
// per-instruction path raises the architectural fault.
var unbuildable = &Block{}

// SetBlockDispatch enables or disables block dispatch (default enabled).
// The differential tests disable it to drive the per-instruction reference
// path.
func (m *Machine) SetBlockDispatch(on bool) { m.blocksOff = !on }

// BlockStats returns the block-cache counters.
func (m *Machine) BlockStats() BlockStats { return m.bstats }

// BlocksBuilt returns the monotone count of blocks ever built. Engines
// caching "this frame has no blocks" use it as the staleness signal: an
// unchanged count means no block was built anywhere since, so a frame
// proven block-free (by invalidating it) is still block-free and stores to
// it can skip InvalidateFrame.
func (m *Machine) BlocksBuilt() uint64 { return m.bstats.Built }

// BlockEpoch counts block invalidations. Block executors snapshot it and
// compare after stores: a change means cached blocks (possibly the running
// one) were built over bytes that no longer exist.
func (m *Machine) BlockEpoch() uint64 { return m.blockEpoch }

// AddFusedOps charges n retired superinstructions to the block counters on
// behalf of an attached block engine.
func (m *Machine) AddFusedOps(n uint64) { m.bstats.FusedOps += n }

// RunBlock executes up to budget instructions, chaining predecoded blocks
// until the budget runs out, a trap or fault ends the run, or dispatch has
// to fall back to per-instruction mode. Chaining is transparent to the
// caller: a sequence of single-block calls would retire the same
// instructions in the same order, the loop just keeps the dispatch state
// hot instead of bouncing through the scheduler between every block. It
// returns the instructions retired and the trap state of the last one.
// When block dispatch cannot serve the current PC at all, it runs exactly
// one per-instruction Step. budget must be at least 1.
func (m *Machine) RunBlock(budget uint64) (uint64, Trap, error) {
	if budget == 0 {
		return 0, TrapNone, nil
	}
	if m.blocksOff || m.legacyHooks || m.space == nil ||
		(m.plugin != nil && m.blockPlugin == nil) {
		return m.stepOnce()
	}
	b := m.lookupBlock(m.CPU.EIP)
	if b == nil || uint64(b.NInstr) > budget {
		// No block here (unaligned PC, undecodable slot, unmapped page) or
		// the preemption budget boundary lands inside the block: fall back
		// to per-instruction mode.
		return m.stepOnce()
	}
	if bp := m.blockPlugin; bp != nil {
		// The plugin chains internally; one call covers up to the whole
		// budget.
		n, trap, err, ok := bp.ExecBlock(m, b, budget)
		if !ok {
			return m.stepOnce()
		}
		return n, trap, err
	}
	var total uint64
	for {
		n, trap, err := m.execBlockPlain(b)
		total += n
		budget -= n
		if trap != TrapNone || err != nil || budget == 0 {
			return total, trap, err
		}
		if b = m.lookupBlock(m.CPU.EIP); b == nil || uint64(b.NInstr) > budget {
			return total, TrapNone, nil
		}
	}
}

// LookupBlock returns the cached block starting at pc, building it on
// first sight; nil means block dispatch cannot serve that PC. Exported for
// chaining block plugins.
func (m *Machine) LookupBlock(pc uint32) *Block { return m.lookupBlock(pc) }

// stepOnce adapts Step to RunBlock's retired-count contract.
func (m *Machine) stepOnce() (uint64, Trap, error) {
	trap, err := m.Step()
	if err != nil {
		return 0, trap, err
	}
	return 1, trap, nil
}

// lookupBlock returns the cached block starting at pc, building it on
// first sight. nil means "no block: use Step" (unaligned, unmapped, or
// undecodable entry).
func (m *Machine) lookupBlock(pc uint32) *Block {
	if pc%isa.InstrSize != 0 {
		return nil
	}
	t := &m.btlb
	if !(t.vpn == pc>>mem.PageShift && t.gen == m.space.Gen()) {
		pa, err := m.space.Translate(pc, mem.AccessExec)
		if err != nil {
			return nil
		}
		frame := pa.Frame()
		for int(frame) >= len(m.blocks) {
			m.blocks = append(m.blocks, nil)
		}
		bp := m.blocks[frame]
		if bp == nil {
			bp = newBlockPage()
			m.blocks[frame] = bp
		}
		t.gen, t.vpn, t.frame, t.page = m.space.Gen(), pc>>mem.PageShift, frame, bp
	}
	slot := pc % mem.PageSize / isa.InstrSize
	b := t.page.blocks[slot]
	if b == nil {
		b = m.buildBlock(t.frame, pc%mem.PageSize)
		t.page.blocks[slot] = b
		t.page.built = true
	} else if b != unbuildable {
		m.bstats.Hits++
	}
	if b == unbuildable {
		return nil
	}
	return b
}

// buildBlock decodes and lowers the basic block starting at (frame, off).
func (m *Machine) buildBlock(frame, off uint32) *Block {
	f, err := m.phys.Frame(frame)
	if err != nil {
		return unbuildable
	}
	b := &Block{Frame: frame, Off: off, EndTrap: TrapNone}
	for o := off; o <= mem.PageSize-isa.InstrSize; o += isa.InstrSize {
		in, err := isa.Decode(f[o : o+isa.InstrSize])
		if err != nil {
			break // the bad slot faults through the per-instruction path
		}
		b.Ins = append(b.Ins, in)
		// Conditional branches extend the block: the not-taken path falls
		// through to the next instruction on the same page, so lowering
		// continues and a taken branch becomes a mid-block side exit. Loops
		// whose body follows the exit test then execute one block per
		// iteration instead of two. Unconditional transfers (and traps)
		// still end the block.
		if (in.Op.IsJump() && !in.Op.IsCondJump()) || in.Op == isa.OpSyscall || in.Op == isa.OpHlt {
			switch in.Op {
			case isa.OpSyscall:
				b.EndTrap = TrapSyscall
			case isa.OpHlt:
				b.EndTrap = TrapHalt
			}
			break
		}
	}
	if len(b.Ins) == 0 {
		return unbuildable
	}
	b.NInstr = len(b.Ins)
	b.Uops = isa.Lower(b.Ins)
	b.Eff = taint.SummarizeUops(b.Uops)
	for i := range b.Uops {
		if b.Uops[i].IsFused() {
			b.Fused++
		}
	}
	m.bstats.Built++
	return b
}

// ExecBlockPlain executes a whole block with no analysis attached — the
// taint-no-op dispatch loop. An attached engine also routes through it for
// blocks it has proven effect-free. Semantics match a Step sequence
// exactly: same register/flag/memory effects, same fault PCs and error
// values, same instruction counting.
func (m *Machine) ExecBlockPlain(b *Block) (uint64, Trap, error) {
	return m.execBlockPlain(b)
}

func (m *Machine) execBlockPlain(b *Block) (uint64, Trap, error) {
	regs := &m.CPU.Regs
	base := m.CPU.EIP
	epoch := m.blockEpoch
	uops := b.Uops
	var ii uint32 // architectural instructions retired so far
	for ui := range uops {
		u := &uops[ui]
		pc := base + ii*isa.InstrSize
		switch u.Kind {
		case isa.UNop:
		case isa.UMovRR:
			regs[u.A] = regs[u.B]
		case isa.UMovRI:
			regs[u.A] = u.Imm
		case isa.UAluRR:
			regs[u.A] = isa.EvalALU(u.Op, regs[u.A], regs[u.B])
		case isa.UAluRI:
			regs[u.A] = isa.EvalALU(u.Op, regs[u.A], u.Imm)
		case isa.UXorClear:
			regs[u.A] = 0
		case isa.UNot:
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
			var v uint32
			var err error
			if u.Size == 4 {
				v, _, err = m.rawRead32(addr)
			} else {
				v, _, err = m.rawRead8(addr)
			}
			if err != nil {
				return m.blockFault(ii, pc, err)
			}
			regs[u.A] = v
		case isa.UStore:
			addr := regs[u.B] + u.Imm
			if u.C != isa.NoIdx {
				addr = regs[u.B] + regs[u.C]
			}
			var err error
			if u.Size == 4 {
				_, err = m.rawWrite32(addr, regs[u.A])
			} else {
				_, err = m.rawWrite8(addr, byte(regs[u.A]))
			}
			if err != nil {
				return m.blockFault(ii, pc, err)
			}
			if m.blockEpoch != epoch {
				return m.blockCommit(ii+1, pc+isa.InstrSize, TrapNone, fusedIn(uops, ui+1))
			}
		case isa.UPush:
			v := u.Imm
			if u.D == 0 {
				v = regs[u.A]
			}
			regs[isa.ESP] -= 4
			if _, err := m.rawWrite32(regs[isa.ESP], v); err != nil {
				regs[isa.ESP] += 4
				return m.blockFault(ii, pc, err)
			}
			if m.blockEpoch != epoch {
				return m.blockCommit(ii+1, pc+isa.InstrSize, TrapNone, fusedIn(uops, ui+1))
			}
		case isa.UPop:
			v, _, err := m.rawRead32(regs[isa.ESP])
			if err != nil {
				return m.blockFault(ii, pc, err)
			}
			regs[isa.ESP] += 4
			regs[u.A] = v
		case isa.URet:
			v, _, err := m.rawRead32(regs[isa.ESP])
			if err != nil {
				return m.blockFault(ii, pc, err)
			}
			regs[isa.ESP] += 4
			return m.blockCommit(ii+1, v, b.EndTrap, uint64(b.Fused))
		case isa.UJmp:
			return m.blockCommit(ii+1, uopTarget(regs, u, pc), b.EndTrap, uint64(b.Fused))
		case isa.UJcc:
			// Taken: side exit. Not taken: the block continues at the
			// fall-through instruction, which is the next micro-op.
			if isa.CondTaken(u.Op, m.CPU.Flags.Z, m.CPU.Flags.S) {
				return m.blockCommit(ii+1, uopTarget(regs, u, pc), TrapNone, fusedIn(uops, ui+1))
			}
		case isa.UCall:
			regs[isa.ESP] -= 4
			if _, err := m.rawWrite32(regs[isa.ESP], pc+isa.InstrSize); err != nil {
				regs[isa.ESP] += 4
				return m.blockFault(ii, pc, err)
			}
			return m.blockCommit(ii+1, uopTarget(regs, u, pc), b.EndTrap, uint64(b.Fused))
		case isa.USyscall, isa.UHlt:
			return m.blockCommit(ii+1, pc+isa.InstrSize, b.EndTrap, uint64(b.Fused))
		case isa.UCmpJccRR, isa.UCmpJccRI:
			a := regs[u.A]
			v := u.Imm
			if u.Kind == isa.UCmpJccRR {
				v = regs[u.B]
			}
			z, s := a == v, int32(a) < int32(v)
			m.CPU.Flags.Z, m.CPU.Flags.S = z, s
			if isa.CondTaken(u.Op, z, s) {
				return m.blockCommit(ii+2, uopTarget2(u, pc), TrapNone, fusedIn(uops, ui+1))
			}
		case isa.UAluJmp:
			regs[u.A] = isa.EvalALU(u.Op, regs[u.A], u.Imm)
			return m.blockCommit(ii+2, uopTarget2(u, pc), b.EndTrap, uint64(b.Fused))
		case isa.UMemMoveB:
			v, _, err := m.rawRead8(regs[u.A] + regs[u.B])
			if err != nil {
				return m.blockFault(ii, pc, err)
			}
			regs[u.Imm] = v
			// The load retired; the store is the second instruction.
			if _, err := m.rawWrite8(regs[u.C]+regs[u.D], byte(v)); err != nil {
				return m.blockFault(ii+1, pc+isa.InstrSize, err)
			}
			if m.blockEpoch != epoch {
				return m.blockCommit(ii+2, pc+2*isa.InstrSize, TrapNone, fusedIn(uops, ui+1))
			}
		}
		ii += uint32(u.N)
	}
	// Page-end cut: fall through to the next page.
	return m.blockCommit(ii, base+ii*isa.InstrSize, TrapNone, uint64(b.Fused))
}

// blockCommit finalizes a (possibly partial) block execution.
func (m *Machine) blockCommit(retired, next uint32, trap Trap, fused uint64) (uint64, Trap, error) {
	m.CPU.EIP = next
	m.InstrCount += uint64(retired)
	m.bstats.FusedOps += fused
	return uint64(retired), trap, nil
}

// blockFault finalizes a mid-block fault: retired instructions commit, EIP
// points at the faulting instruction (Step's contract), and the error is
// the same *FaultError a Step sequence would have produced.
func (m *Machine) blockFault(retired, pc uint32, err error) (uint64, Trap, error) {
	m.CPU.EIP = pc
	m.InstrCount += uint64(retired)
	return uint64(retired), TrapFault, &FaultError{PC: pc, Err: err}
}

// fusedIn counts superinstructions among the first n micro-ops.
func fusedIn(uops []isa.Uop, n int) uint64 {
	var c uint64
	for i := 0; i < n && i < len(uops); i++ {
		if uops[i].IsFused() {
			c++
		}
	}
	return c
}

// uopTarget resolves a single-instruction control transfer's destination.
func uopTarget(regs *[isa.NumRegs]uint32, u *isa.Uop, pc uint32) uint32 {
	switch u.D {
	case 1:
		return pc + isa.InstrSize + uint32(int32(u.Imm))
	case 2:
		return regs[u.A]
	}
	return u.Imm
}

// uopTarget2 resolves the branch destination of a fused compare-and-branch
// or ALU-and-jump micro-op (the branch is the second instruction, at
// pc + InstrSize).
func uopTarget2(u *isa.Uop, pc uint32) uint32 {
	if u.D == 1 {
		return pc + 2*isa.InstrSize + uint32(int32(u.Imm2))
	}
	return u.Imm2
}

// UopTarget resolves a control-transfer micro-op's destination against the
// given register file; UopTarget2 is the fused-pair form. Exported for the
// fused engine executor.
func UopTarget(regs *[isa.NumRegs]uint32, u *isa.Uop, pc uint32) uint32 {
	return uopTarget(regs, u, pc)
}

// UopTarget2 resolves the branch target of a fused superinstruction.
func UopTarget2(u *isa.Uop, pc uint32) uint32 { return uopTarget2(u, pc) }

// --- raw data accessors (no hooks) ---
//
// The block executors run only when no memory hooks are registered, so
// these skip the hook loops; the Step helpers layer hooks on top.

func (m *Machine) rawRead32(va uint32) (uint32, mem.PhysAddr, error) {
	pa, ok := m.lookupPA(va, 0)
	if !ok {
		var err error
		if pa, err = m.dataPAFill(va, mem.AccessRead, &m.dtlb[0]); err != nil {
			return 0, 0, err
		}
	}
	if off := pa.Offset(); off <= mem.PageSize-4 {
		f, ferr := m.phys.Frame(pa.Frame())
		if ferr != nil {
			return 0, 0, ferr
		}
		return binary.LittleEndian.Uint32(f[off : off+4]), pa, nil
	}
	v, err := m.space.Read32(va, mem.AccessRead)
	if err != nil {
		return 0, 0, err
	}
	return v, pa, nil
}

func (m *Machine) rawRead8(va uint32) (uint32, mem.PhysAddr, error) {
	pa, ok := m.lookupPA(va, 0)
	if !ok {
		var err error
		if pa, err = m.dataPAFill(va, mem.AccessRead, &m.dtlb[0]); err != nil {
			return 0, 0, err
		}
	}
	b, err := m.phys.ReadByteAt(pa)
	if err != nil {
		return 0, 0, err
	}
	return uint32(b), pa, nil
}

func (m *Machine) rawWrite32(va, v uint32) (mem.PhysAddr, error) {
	pa, ok := m.lookupPA(va, 1)
	if !ok {
		var err error
		if pa, err = m.dataPAFill(va, mem.AccessWrite, &m.dtlb[1]); err != nil {
			return 0, err
		}
	}
	if off := pa.Offset(); off <= mem.PageSize-4 {
		f, ferr := m.phys.Frame(pa.Frame())
		if ferr != nil {
			return 0, ferr
		}
		binary.LittleEndian.PutUint32(f[off:off+4], v)
		m.InvalidateFrame(pa.Frame())
	} else {
		if err := m.space.Write32(va, v); err != nil {
			return 0, err
		}
		m.InvalidateFrame(pa.Frame())
		if pa2, err2 := m.space.Translate(va+3, mem.AccessWrite); err2 == nil {
			m.InvalidateFrame(pa2.Frame())
		}
	}
	return pa, nil
}

func (m *Machine) rawWrite8(va uint32, v byte) (mem.PhysAddr, error) {
	pa, ok := m.lookupPA(va, 1)
	if !ok {
		var err error
		if pa, err = m.dataPAFill(va, mem.AccessWrite, &m.dtlb[1]); err != nil {
			return 0, err
		}
	}
	if err := m.phys.WriteByteAt(pa, v); err != nil {
		return 0, err
	}
	m.InvalidateFrame(pa.Frame())
	return pa, nil
}

// DataRead32 loads a word from guest data memory without firing hooks,
// returning the translated physical address. For the fused engine.
func (m *Machine) DataRead32(va uint32) (uint32, mem.PhysAddr, error) { return m.rawRead32(va) }

// DataRead8 loads a byte (zero-extended) without firing hooks.
func (m *Machine) DataRead8(va uint32) (uint32, mem.PhysAddr, error) { return m.rawRead8(va) }

// DataWrite32 stores a word without firing hooks, invalidating cached
// decodes and blocks for the written frames.
func (m *Machine) DataWrite32(va, v uint32) (mem.PhysAddr, error) { return m.rawWrite32(va, v) }

// DataWrite8 stores a byte without firing hooks.
func (m *Machine) DataWrite8(va uint32, v byte) (mem.PhysAddr, error) { return m.rawWrite8(va, v) }

// DataPA translates a data access through the data TLB without touching
// memory — the fused engine's pre-store cleanliness probe.
func (m *Machine) DataPA(va uint32, kind mem.AccessKind) (mem.PhysAddr, error) {
	return m.dataPA(va, kind)
}
