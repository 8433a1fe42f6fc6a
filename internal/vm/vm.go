// Package vm implements the whole-system virtual machine: a single
// deterministic FAROS-32 CPU executing over paged virtual memory.
//
// Guest code runs as predecoded micro-op blocks (block.go). An analysis
// engine (the FAROS DIFT engine) attaches as a BlockPlugin and executes
// each block with its taint effects compiled in, instead of being called
// back per instruction and per memory access as a PANDA plugin would be.
// Step is the per-instruction reference interpreter the block executors
// are tested against; production dispatch never calls it. The CPU itself
// knows nothing about processes or syscalls; it raises traps that the
// guest kernel interprets.
package vm

import (
	"fmt"

	"faros/internal/isa"
	"faros/internal/mem"
)

// Flags is the CPU condition-flag state set by CMP.
type Flags struct {
	Z bool // last comparison was equal
	S bool // last comparison was signed less-than
}

// CPU is the architectural register state. It is copied wholesale on
// context switches, so it contains no pointers.
type CPU struct {
	Regs  [isa.NumRegs]uint32
	EIP   uint32
	Flags Flags
}

// Trap is the reason RunBlock (or Step) returned control to the kernel.
type Trap uint8

// Trap kinds.
const (
	// TrapNone means the instruction completed; execution may continue.
	TrapNone Trap = iota + 1
	// TrapSyscall means a SYSCALL executed; EIP points after it.
	TrapSyscall
	// TrapHalt means HLT executed.
	TrapHalt
	// TrapFault means the instruction faulted (decode error or memory
	// violation); EIP still points at the faulting instruction.
	TrapFault
)

func (t Trap) String() string {
	switch t {
	case TrapNone:
		return "none"
	case TrapSyscall:
		return "syscall"
	case TrapHalt:
		return "halt"
	case TrapFault:
		return "fault"
	}
	return "trap?"
}

// Machine is the whole system: physical memory, one CPU, the predecoded
// block cache, and the attached block engine.
type Machine struct {
	// CPU is the live architectural state.
	CPU CPU
	// InstrCount counts retired instructions and doubles as the machine's
	// clock; the record/replay log is stamped with it.
	InstrCount uint64

	phys  *mem.Phys
	space *mem.Space

	// dtlb caches the last read and write data translations (indices 0/1).
	dtlb [2]dataTLBEntry

	// blocks caches predecoded micro-op blocks per physical frame, indexed
	// by frame number (frames are allocated densely from zero); see
	// block.go. Guest stores and kernel copies invalidate the written
	// frames. btlb is the one-entry lookup TLB; blockEpoch counts
	// invalidations so running blocks can detect self-modifying code.
	blocks     []*blockPage
	btlb       blockTLB
	blockEpoch uint64
	bstats     BlockStats
	// tail is the uncached one-instruction block RunBlock runs where no
	// cached block fits (see entryBlock). Its Ins and Uops alias the two
	// arrays below, so refilling it allocates nothing.
	tail     Block
	tailIns  [1]isa.Instruction
	tailUops [1]isa.Uop

	// blockPlugin is the attached analysis engine, if any.
	blockPlugin BlockPlugin
	// refBefore, when set, is the reference seam's observer (see
	// UseReferenceStep).
	refBefore func(m *Machine, pc uint32, in isa.Instruction)
}

// dataTLBEntry is one cached data translation.
type dataTLBEntry struct {
	space *mem.Space
	gen   uint64
	vpn   uint32
	frame uint32
	ok    bool
}

// lookupPA is the data-TLB hit test, call-free so it inlines into the
// read/write helpers; on a miss the caller refills through dataPAFill.
// slot 0 caches reads, slot 1 writes.
func (m *Machine) lookupPA(va uint32, slot int) (mem.PhysAddr, bool) {
	t := &m.dtlb[slot]
	if t.ok && t.space == m.space && t.vpn == va>>mem.PageShift && t.gen == m.space.Gen() {
		return mem.PhysAddr(t.frame)<<mem.PageShift | mem.PhysAddr(va%mem.PageSize), true
	}
	return 0, false
}

// DataPA translates a data access through the data TLB without touching
// memory — the fused engine's pre-store cleanliness probe.
func (m *Machine) DataPA(va uint32, kind mem.AccessKind) (mem.PhysAddr, error) {
	slot := 0
	if kind == mem.AccessWrite {
		slot = 1
	}
	if pa, ok := m.lookupPA(va, slot); ok {
		return pa, nil
	}
	return m.dataPAFill(va, kind, &m.dtlb[slot])
}

// dataPAFill is the data-TLB miss path: translate and refill the entry.
func (m *Machine) dataPAFill(va uint32, kind mem.AccessKind, t *dataTLBEntry) (mem.PhysAddr, error) {
	pa, err := m.space.Translate(va, kind)
	if err != nil {
		return 0, err
	}
	t.space = m.space
	t.gen = m.space.Gen()
	t.vpn = va >> mem.PageShift
	t.frame = pa.Frame()
	t.ok = true
	return pa, nil
}

// pageSlots is the number of 8-byte instruction slots per frame.
const pageSlots = mem.PageSize / isa.InstrSize

// invalidVPN marks the block TLB empty; no 32-bit address has this page
// number.
const invalidVPN = ^uint32(0)

// New creates a machine over the given physical memory.
func New(phys *mem.Phys) *Machine {
	m := &Machine{phys: phys}
	m.btlb.vpn = invalidVPN
	m.tail = Block{Ins: m.tailIns[:], Uops: m.tailUops[:], NInstr: 1}
	return m
}

// InvalidateFrame drops cached blocks for a physical frame. The kernel
// calls it after privileged copies (loader section writes, cross-process
// injection) that bypass the CPU's store path; the CPU itself calls it on
// every store, so it must stay cheap for frames with nothing cached.
func (m *Machine) InvalidateFrame(frame uint32) {
	// Clear the frame's block page in place for the next build. The epoch
	// bumps only when the page held a block, so data-page stores never bail
	// running blocks.
	if int(frame) < len(m.blocks) && m.blocks[frame] != nil && m.blocks[frame].built {
		*m.blocks[frame] = blockPage{}
		m.blockEpoch++
		m.bstats.Invalidated++
	}
	if m.btlb.frame == frame {
		m.btlb.vpn = invalidVPN
	}
}

// Phys returns the machine's physical memory.
func (m *Machine) Phys() *mem.Phys { return m.phys }

// Release hands the machine's guest memory back to the process-wide pools
// for reuse by later machines: its predecoded block pages and, through
// Phys.Release, every physical frame. It ends the machine's use; nothing
// may run on it or read its memory afterwards.
func (m *Machine) Release() {
	for _, bp := range m.blocks {
		if bp != nil {
			blockPagePool.Put(bp)
		}
	}
	m.blocks = nil
	m.btlb.vpn, m.btlb.page = invalidVPN, nil
	m.phys.Release()
}

// SetSpace switches the active address space (the CR3 load of a context
// switch). The kernel saves/restores CPU state around it.
func (m *Machine) SetSpace(s *mem.Space) {
	if m.space != s {
		m.btlb.vpn = invalidVPN
	}
	m.space = s
}

// Space returns the active address space (nil before the first SetSpace).
func (m *Machine) Space() *mem.Space { return m.space }

// CR3 returns the active address space identity, or 0 if none.
func (m *Machine) CR3() uint32 {
	if m.space == nil {
		return 0
	}
	return m.space.CR3()
}

// OnBlockPlugin attaches the analysis engine that executes every block
// (see BlockPlugin). Only one may be attached.
func (m *Machine) OnBlockPlugin(p BlockPlugin) {
	if m.blockPlugin != nil {
		panic("vm: OnBlockPlugin called twice")
	}
	m.blockPlugin = p
}

// fetch reads and decodes the instruction at pc with execute permission.
// Nothing is cached: every call reads the current bytes, so the fault for
// an undecodable slot reads the same however often it is fetched. A
// failure is the *FaultError Step returns.
func (m *Machine) fetch(pc uint32) (isa.Instruction, error) {
	if m.space == nil {
		return isa.Instruction{}, &FaultError{PC: pc, Err: fmt.Errorf("vm: no address space loaded")}
	}
	in, err := m.decodeAt(pc)
	if err != nil {
		return isa.Instruction{}, &FaultError{PC: pc, Err: fmt.Errorf("vm: fetch at 0x%08X: %w", pc, err)}
	}
	return in, nil
}

// decodeAt is fetch's unwrapped body.
func (m *Machine) decodeAt(va uint32) (isa.Instruction, error) {
	pa, err := m.space.Translate(va, mem.AccessExec)
	if err != nil {
		return isa.Instruction{}, err
	}
	off := pa.Offset()
	if off%isa.InstrSize != 0 || off > mem.PageSize-isa.InstrSize {
		// Unaligned or page-straddling fetch: read byte by byte, checking
		// execute permission on both pages.
		buf, err := m.space.ReadBytes(va, isa.InstrSize, mem.AccessExec)
		if err != nil {
			return isa.Instruction{}, err
		}
		return isa.Decode(buf)
	}
	f, err := m.phys.Frame(pa.Frame())
	if err != nil {
		return isa.Instruction{}, err
	}
	return isa.Decode(f[off : off+isa.InstrSize])
}

// FaultError is the typed error carried by every TrapFault return from
// RunBlock and Step. It records the faulting PC so kernels can build structured guest
// exceptions instead of treating the fault as an opaque run failure.
type FaultError struct {
	// PC is the address of the faulting instruction.
	PC uint32
	// Err describes the fault (decode error, memory violation, ...).
	Err error
}

func (e *FaultError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying fault cause to errors.Is/As.
func (e *FaultError) Unwrap() error { return e.Err }

// fault pairs TrapFault with a typed FaultError at pc.
func fault(pc uint32, err error) (Trap, error) {
	return TrapFault, &FaultError{PC: pc, Err: err}
}

// Step is the reference interpreter: it fetches, decodes and executes one
// instruction, with no cache and no analysis attached. On TrapFault the
// returned error is a *FaultError describing the fault and EIP is
// unchanged; for all other traps EIP has advanced. Production dispatch
// never calls it (RunBlock serves every PC through the block executors);
// the tests hold the block executors to it, and RunBlock calls it only
// under the reference seam (UseReferenceStep).
func (m *Machine) Step() (Trap, error) { return m.step(nil) }

// step is Step with an optional observer called between fetch and
// execution, on the pre-execution register state.
func (m *Machine) step(before func(m *Machine, pc uint32, in isa.Instruction)) (Trap, error) {
	pc := m.CPU.EIP
	in, err := m.fetch(pc)
	if err != nil {
		return TrapFault, err
	}
	if before != nil {
		before(m, pc, in)
	}

	next := pc + isa.InstrSize
	trap := TrapNone
	regs := &m.CPU.Regs

	switch in.Op {
	case isa.OpNop:
	case isa.OpHlt:
		trap = TrapHalt
	case isa.OpSyscall:
		trap = TrapSyscall
	case isa.OpMov:
		if in.Mode == isa.ModeRR {
			regs[in.Dst] = regs[in.Src]
		} else {
			regs[in.Dst] = in.Imm
		}
	case isa.OpLd, isa.OpLdb:
		// The &7 masks are free (Decode validated the registers) and let the
		// compiler elide the bounds checks.
		addr := regs[in.Src&7] + in.Imm
		if in.Mode == isa.ModeRX {
			addr = regs[in.Src&7] + regs[in.Imm&7]
		}
		var v uint32
		if in.Op == isa.OpLd {
			v, _, err = m.DataRead32(addr)
		} else {
			v, _, err = m.DataRead8(addr)
		}
		if err != nil {
			return fault(pc, err)
		}
		regs[in.Dst&7] = v
	case isa.OpSt, isa.OpStb:
		addr := regs[in.Dst&7] + in.Imm
		if in.Mode == isa.ModeXR {
			addr = regs[in.Dst&7] + regs[in.Imm&7]
		}
		if in.Op == isa.OpSt {
			_, err = m.DataWrite32(addr, regs[in.Src])
		} else {
			_, err = m.DataWrite8(addr, byte(regs[in.Src]))
		}
		if err != nil {
			return fault(pc, err)
		}
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMul, isa.OpShl, isa.OpShr:
		src := in.Imm
		if in.Mode == isa.ModeRR {
			src = regs[in.Src]
		}
		regs[in.Dst] = isa.EvalALU(in.Op, regs[in.Dst], src)
	case isa.OpNot:
		regs[in.Dst] = ^regs[in.Dst]
	case isa.OpCmp:
		b := in.Imm
		if in.Mode == isa.ModeRR {
			b = regs[in.Src]
		}
		a := regs[in.Dst]
		m.CPU.Flags.Z = a == b
		m.CPU.Flags.S = int32(a) < int32(b)
	case isa.OpJmp:
		next = m.jumpTarget(pc, in)
	case isa.OpJz, isa.OpJnz, isa.OpJl, isa.OpJg, isa.OpJle, isa.OpJge:
		if m.condTaken(in.Op) {
			next = m.jumpTarget(pc, in)
		}
	case isa.OpCall:
		regs[isa.ESP] -= 4
		if _, err := m.DataWrite32(regs[isa.ESP], pc+isa.InstrSize); err != nil {
			regs[isa.ESP] += 4
			return fault(pc, err)
		}
		next = m.jumpTarget(pc, in)
	case isa.OpRet:
		v, _, err := m.DataRead32(regs[isa.ESP])
		if err != nil {
			return fault(pc, err)
		}
		regs[isa.ESP] += 4
		next = v
	case isa.OpPush:
		v := in.Imm
		if in.Mode == isa.ModeRR {
			v = regs[in.Dst]
		}
		regs[isa.ESP] -= 4
		if _, err := m.DataWrite32(regs[isa.ESP], v); err != nil {
			regs[isa.ESP] += 4
			return fault(pc, err)
		}
	case isa.OpPop:
		v, _, err := m.DataRead32(regs[isa.ESP])
		if err != nil {
			return fault(pc, err)
		}
		regs[isa.ESP] += 4
		regs[in.Dst] = v
	default:
		return fault(pc, fmt.Errorf("vm: unimplemented opcode %s at 0x%08X", in.Op, pc))
	}

	m.CPU.EIP = next
	m.InstrCount++
	return trap, nil
}

// jumpTarget resolves the destination of a jump/call.
func (m *Machine) jumpTarget(pc uint32, in isa.Instruction) uint32 {
	switch in.Mode {
	case isa.ModeRI:
		return in.Imm
	case isa.ModeRel:
		return pc + isa.InstrSize + uint32(in.RelOffset())
	case isa.ModeRR:
		return m.CPU.Regs[in.Dst]
	}
	return pc + isa.InstrSize
}

// condTaken evaluates a conditional branch against the flags.
func (m *Machine) condTaken(op isa.Op) bool {
	return isa.CondTaken(op, m.CPU.Flags.Z, m.CPU.Flags.S)
}
