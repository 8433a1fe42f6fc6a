package core

import (
	"faros/internal/guest"
	"faros/internal/isa"
	"faros/internal/taint"
	"faros/internal/vm"
)

// The engine's only production dispatcher is ExecBlock (block.go). The
// per-instruction form of the same Table I semantics is kept here as the
// oracle: BeforeInstr observes each instruction under the VM's reference
// seam (vm.Machine.UseReferenceStep), and the differential tests in
// blockdiff_test.go hold the two bit-identical.

// UseRefStep is a scenario Plugins.Extra hook that switches the kernel's
// VM to the reference interpreter. When FAROS is attached (it is the
// kernel's taint bridge), BeforeInstr observes every instruction.
func UseRefStep(k *guest.Kernel) {
	var before func(*vm.Machine, uint32, isa.Instruction)
	if f, ok := k.Bridge.(*FAROS); ok {
		before = f.BeforeInstr
	}
	k.M.UseReferenceStep(before)
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
		// pre-execution state).
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
