package taint

// NumShadowRegs mirrors the CPU's general-purpose register count.
const NumShadowRegs = 8

// RegBank is the shadow register bank: one provenance list per CPU
// register. The FAROS engine keeps one bank per process and swaps banks on
// context switches, so taint follows data held in registers across
// scheduling.
type RegBank [NumShadowRegs]ProvID

// AnyTainted reports whether any register carries taint.
func (rb *RegBank) AnyTainted() bool {
	// Branch-free: the block dispatcher probes this on every block entry.
	return rb[0]|rb[1]|rb[2]|rb[3]|rb[4]|rb[5]|rb[6]|rb[7] != 0
}
