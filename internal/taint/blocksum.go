// Block-level taint effect summaries. The VM's block builder lowers a basic
// block to micro-ops once; SummarizeUops classifies the block's compiled-in
// taint effects (paper Table I) so the engine can pick a dispatch mode per
// block instead of per instruction:
//
//   - RegOnly blocks touch no data memory. With an untainted register bank
//     every effect is a no-op (copies, deletes, and unions of empty lists),
//     so the block runs on the plain executor without a single call into
//     this package.
//   - Blocks with memory micro-ops need one FrameUntainted consultation per
//     access while the bank stays clean, and fall back to the full fused
//     propagation loop the moment taint is seen.

package taint

import "faros/internal/isa"

// BlockEffects summarizes the taint side of one lowered basic block.
type BlockEffects struct {
	// RegOnly means no micro-op in the block touches data memory, so an
	// untainted register bank makes the whole block a taint no-op.
	RegOnly bool
	// MemUops counts micro-ops performing data memory accesses.
	MemUops int
	// LoadInstrs counts architectural LD/LDB instructions (the engine's
	// loads-checked accounting unit).
	LoadInstrs int
	// StoreUops counts micro-ops that write data memory.
	StoreUops int
}

// SummarizeUops computes the block-level effect summary for a lowered
// micro-op stream.
func SummarizeUops(uops []isa.Uop) BlockEffects {
	var e BlockEffects
	for i := range uops {
		u := &uops[i]
		if u.Kind.TouchesMem() {
			e.MemUops++
		}
		switch u.Kind {
		case isa.ULoad, isa.UMoviLoad:
			e.LoadInstrs++
		case isa.UMemMoveB:
			e.LoadInstrs++
			e.StoreUops++
		case isa.UStore, isa.UMoviStore, isa.UPush, isa.UCall:
			e.StoreUops++
		}
	}
	e.RegOnly = e.MemUops == 0
	return e
}
