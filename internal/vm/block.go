// Block dispatch: the interpreter. Guest code is predecoded into basic
// blocks of micro-ops (internal/isa lowering) and cached per machine by
// physical frame and instruction slot. Dispatching a block costs one
// lookup and one executor call instead of a fetch, a decode, and a
// callback per instruction. RunBlock is the one loop that chains blocks:
// each iteration makes one lookup (entryBlock) and hands the block to the
// attached engine (BlockPlugin) or to the plain executor. Every PC runs
// through a block. A budget that ends inside a cached block runs the
// block's longest whole-uop prefix that fits (Block.Run), so the
// preemption boundary stays exact; entryBlock serves the one instruction
// at EIP as an uncached block only where the budget is below the
// instruction count of the fused micro-op a block starts with, and at
// unaligned, page-straddling or undecodable PCs.
//
// Loops stay in the executor: when a pass ends on a back edge (JMP,
// ALU+JMP, taken Jcc or CMP+Jcc) to the block's own first instruction and
// the budget fits another whole pass, the executor starts that pass in
// place instead of returning to the chain loop's lookup. Retire and
// fused-op counts stay in locals and commit once on exit, so faults and
// self-modifying-code exits report every instruction retired across
// passes.
//
// Counted byte loops run their passes in batches: decodeBlock marks a
// self-looping block whose passes test an induction register, move bytes
// at base + that register, and add 1 to it (CountedLoop). At a pass start
// both executors ask LoopPasses how many whole passes may run without a
// decision the per-pass dispatch would make differently, resolve each
// access's page once, and move bytes and registers pass by pass. Every
// other pass, and every other block, dispatches micro-op by micro-op.
//
// Decode once per process: a block depends only on the bytes it spans, so
// every machine looks those bytes up in one bounded, process-wide table of
// immutable blocks (blockTable) and decodes only on a miss. Machines
// running the same code, at any address in any frame, share one block.
//
// Invalidation: every guest store and kernel copy calls InvalidateFrame,
// which drops the frame's block pointers from this machine's cache and
// bumps the block epoch; it never writes a block, so shared blocks stay
// valid for every other machine, and rewritten bytes are a different key.
// The executors snapshot the epoch and compare it after every store
// micro-op, so self-modifying code stops the current block at the
// mutating instruction and re-enters through a fresh build — the same
// observable behavior as per-instruction stepping.
//
// Step (vm.go) is the per-instruction reference interpreter. Production
// never calls it; UseReferenceStep routes RunBlock through it for the
// differential tests, which hold the two bit-identical.

package vm

import (
	"encoding/binary"
	"sync"
	"unsafe"

	"faros/internal/isa"
	"faros/internal/mem"
)

// Block is one predecoded basic block: the instructions from a branch
// target (or fall-through page entry) to the next control transfer,
// syscall, halt, undecodable slot, or page end — whichever comes first.
// Blocks never span pages, so one frame invalidation drops every block
// built over the mutated bytes. A Block is immutable once built and may be
// shared by every machine in the process: nothing in it depends on where
// its bytes sit.
type Block struct {
	// Ins are the decoded architectural instructions, in order. The engine
	// needs the originals for disassembly in findings.
	Ins []isa.Instruction
	// Uops is the lowered micro-op stream (see internal/isa).
	Uops []isa.Uop
	// NInstr is len(Ins): the architectural instructions the block retires.
	NInstr int
	// Fused counts the instructions Uops' fused micro-ops fold away: N-1
	// for each (see BlockStats.FusedOps).
	Fused int
	// EndTrap is the trap raised after the block completes: TrapSyscall or
	// TrapHalt when the terminator is SYSCALL/HLT, TrapNone otherwise.
	EndTrap Trap
	// Loop describes the block as a counted byte loop; nil for every other
	// block.
	Loop *CountedLoop
}

// CountedLoop describes a counted byte loop: a block whose first micro-op
// is a compare-and-branch exit test of register I against an immediate,
// whose last adds 1 to I and jumps back to the block's own start, and
// whose other micro-ops (Body) are byte accesses at base + I, loads before
// stores. Each access's base is a MOVI immediate (UMoviLoad, UMoviStore)
// or a register no micro-op of the block writes (ULoad, UStore). No access
// writes I or a base register, and no store's data is a base register, so
// every access's address moves by exactly 1 per pass and the MOVI base
// writes matter only as the registers they leave behind.
type CountedLoop struct {
	I     uint8     // the induction register
	Loads int       // Body[:Loads] are the loads, Body[Loads:] the stores
	Body  []isa.Uop // aliases the block's Uops between the test and the edge
	At    []uint32  // instruction offset in a pass of each Body access (after a folded MOVI)
}

// MaxLoopAccesses bounds a counted loop's accesses, so the executors keep
// per-batch state in fixed arrays.
const MaxLoopAccesses = 8

// countedLoop returns the counted-loop descriptor of a block lowered to
// uops, or nil when the block is not one.
func countedLoop(uops []isa.Uop) *CountedLoop {
	if len(uops) < 3 || len(uops) > MaxLoopAccesses+2 {
		return nil
	}
	head, edge := &uops[0], &uops[len(uops)-1]
	i := head.A
	if head.Kind != isa.UCmpJccRI || edge.Kind != isa.UAluJmp || edge.A != i || edge.Op != isa.OpAdd || edge.Imm != 1 {
		return nil
	}
	l := &CountedLoop{I: i, Body: uops[1 : len(uops)-1]}
	var written, regBases, moviBases, data uint32 // register bit sets
	at := uint32(head.N)
	for k := range l.Body {
		u := &l.Body[k]
		if u.Size != 1 || u.C != i {
			return nil
		}
		switch u.Kind {
		case isa.ULoad, isa.UMoviLoad:
			if k != l.Loads {
				return nil // a load after a store
			}
			l.Loads++
			written |= 1 << u.A
			if u.Op != 0 && u.D != isa.NoIdx {
				written |= 1 << u.D
			}
		case isa.UStore, isa.UMoviStore:
			data |= 1 << u.A
		default:
			return nil
		}
		if u.Kind == isa.UMoviLoad || u.Kind == isa.UMoviStore {
			moviBases |= 1 << u.B
			l.At = append(l.At, at+1)
		} else {
			regBases |= 1 << u.B
			l.At = append(l.At, at)
		}
		at += uint32(u.N)
	}
	bases := regBases | moviBases
	if written&(bases|1<<i) != 0 || bases&(1<<i) != 0 || moviBases&regBases != 0 || data&bases != 0 {
		return nil
	}
	return l
}

// LoopPasses is the batch bound both executors apply at the start of a
// pass of b, retired instructions into an executor call that began at
// start with retire limit limit (Block.Run): how many whole passes may run
// as one batch. Each of them has its exit test not taken, a back edge that
// Iterates takes (the last pass that fits the limit is left to the
// per-pass dispatch, which decides its back edge), and accesses that stay
// on the pages they start on. It stores each access's address in the
// first of them in addr. Zero when b is not a counted loop.
func (b *Block) LoopPasses(regs *[isa.NumRegs]uint32, start, retired, limit uint32, addr *[MaxLoopAccesses]uint32) uint32 {
	l := b.Loop
	n := (limit - retired) / uint32(b.NInstr)
	if l == nil || n < 2 {
		return 0
	}
	n--
	if UopTarget2(&b.Uops[len(b.Uops)-1], start+uint32(b.NInstr-2)*isa.InstrSize) != start {
		return 0
	}
	i := regs[l.I]
	for k := range l.Body {
		u := &l.Body[k]
		base := regs[u.B]
		if u.Kind == isa.UMoviLoad || u.Kind == isa.UMoviStore {
			base = u.Imm2
		}
		addr[k] = base + i
		if room := mem.PageSize - addr[k]%mem.PageSize; room < n {
			n = room
		}
	}
	return exitPass(&b.Uops[0], i, n)
}

// exitPass returns the first of n passes, the first testing i and each
// next one i+1 more, whose compare-and-branch exit test head is taken, or
// n when none is. Along the passes the flags change only at the pass where
// i+p == Imm (Z sets, S clears), the pass after it (Z clears) and the pass
// where i+p wraps to the most negative int32 (S sets). The outcome is
// constant between them, so the first taken pass is pass 0 or one of
// those three.
func exitPass(head *isa.Uop, i, n uint32) uint32 {
	first := n
	for _, p := range [...]uint32{0, head.Imm - i, head.Imm - i + 1, 1<<31 - i} {
		if v := i + p; p < first && isa.CondTaken(head.Op, v == head.Imm, int32(v) < int32(head.Imm)) {
			first = p
		}
	}
	return first
}

// BlockPlugin is an analysis engine that executes blocks with its
// analysis fused into the executor instead of being called back per
// instruction: one plugin call per block. ExecBlock executes the given
// block, which starts at the current EIP, within budget retired
// instructions — a whole-uop prefix when the block does not fit (see
// Block.Run), and its in-place passes when it loops — and returns. It
// reports the instructions retired plus the trap state of the last one,
// exactly as a sequence of Steps would have. RunBlock chains: TrapNone
// with budget left means it looks up the block at the new EIP.
type BlockPlugin interface {
	ExecBlock(m *Machine, b *Block, budget uint64) (retired uint64, trap Trap, err error)
}

// BlockStats counts block-cache activity.
type BlockStats struct {
	// Built counts blocks attached to this machine's cache, whether
	// decoded for it or found in the process-wide table.
	Built uint64 `json:"built"`
	// Hits counts dispatches served from the cache. A self-looping
	// block's in-place passes are one dispatch.
	Hits uint64 `json:"hits"`
	// Invalidated counts frames whose cached blocks were dropped.
	Invalidated uint64 `json:"invalidated"`
	// FusedOps counts the instructions fused micro-ops retired beyond
	// their first: one for each two-instruction superinstruction, two for a
	// three-instruction wide memory micro-op. Retired instructions minus
	// FusedOps is the number of micro-ops the executors dispatched. An
	// attached engine charges its own executor's (AddFusedOps).
	FusedOps uint64 `json:"fused_ops"`
	// BatchedPasses counts the passes of counted byte loops (CountedLoop)
	// the executors ran in batches rather than micro-op by micro-op. An
	// attached engine charges its own executor's (AddBatchedPasses).
	BatchedPasses uint64 `json:"batched_passes"`
}

// blockPage holds the cached blocks of one physical frame, indexed by
// instruction slot.
type blockPage struct {
	blocks [pageSlots]*Block
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

// unbuildable marks a slot whose first instruction does not decode;
// RunBlock's uncached fetch raises the architectural fault.
var unbuildable = &Block{}

// UseReferenceStep is the reference seam. It switches RunBlock, for the
// rest of the machine's life, to the per-instruction reference
// interpreter: one uncached Step per call, with no block cache and no
// block plugin, calling before (if non-nil) between each instruction's
// fetch and its execution. Production never sets it; the differential
// tests do, to hold block dispatch to Step.
func (m *Machine) UseReferenceStep(before func(m *Machine, pc uint32, in isa.Instruction)) {
	if before == nil {
		before = func(*Machine, uint32, isa.Instruction) {}
	}
	m.refBefore = before
}

// BlockStats returns the block-cache counters.
func (m *Machine) BlockStats() BlockStats { return m.bstats }

// BlocksBuilt returns the monotone count of blocks ever attached to this
// machine's cache. Engines caching "this frame has no blocks" use it as
// the staleness signal: an unchanged count means no block was attached
// anywhere since, so a frame proven block-free (by invalidating it) is
// still block-free and stores to it can skip InvalidateFrame.
func (m *Machine) BlocksBuilt() uint64 { return m.bstats.Built }

// BlockEpoch counts block invalidations. Block executors snapshot it and
// compare after stores: a change means cached blocks (possibly the running
// one) were built over bytes that no longer exist.
func (m *Machine) BlockEpoch() uint64 { return m.blockEpoch }

// AddFusedOps charges n folded instructions (BlockStats.FusedOps) to the
// block counters on behalf of an attached block engine.
func (m *Machine) AddFusedOps(n uint64) { m.bstats.FusedOps += n }

// AddBatchedPasses charges n loop passes run in a batch
// (BlockStats.BatchedPasses) on behalf of an attached block engine.
func (m *Machine) AddBatchedPasses(n uint64) { m.bstats.BatchedPasses += n }

// RunBlock executes up to budget instructions, chaining predecoded blocks
// until the budget runs out or a trap or fault ends the run. It is the only
// loop that chains blocks: each iteration looks up one block (entryBlock)
// and runs it through the attached block plugin, or through the plain
// executor when none is attached. Chaining is transparent to the caller: a
// sequence of single-block calls would retire the same instructions in the
// same order, the loop just keeps the dispatch state hot instead of
// bouncing through the scheduler between every block. It returns the
// instructions retired and the trap state of the last one. A fetch failure
// at EIP returns what was retired before it and the *FaultError Step
// would.
func (m *Machine) RunBlock(budget uint64) (uint64, Trap, error) {
	if budget == 0 {
		return 0, TrapNone, nil
	}
	if m.refBefore != nil {
		trap, err := m.step(m.refBefore)
		if err != nil {
			return 0, trap, err
		}
		return 1, trap, nil
	}
	var total uint64
	for {
		b, err := m.entryBlock(budget)
		if err != nil {
			return total, TrapFault, err
		}
		var n uint64
		var trap Trap
		if bp := m.blockPlugin; bp != nil {
			n, trap, err = bp.ExecBlock(m, b, budget)
		} else {
			n, trap, err = m.execBlockPlain(b, budget)
		}
		total += n
		budget -= n
		if trap != TrapNone || err != nil || budget == 0 {
			return total, trap, err
		}
	}
}

// entryBlock returns the block at EIP to run within budget: the cached
// block unless it starts with a fused micro-op of more instructions than
// the budget, otherwise the machine's uncached one-instruction block,
// refilled for EIP from the cached block's first instruction when there is
// one. That serves every PC the block cache cannot: a budget that splits
// the fused micro-op the cached block starts with, an unaligned or
// page-straddling PC, and a slot with no block (fetched here, so a failure
// is Step's *FaultError).
func (m *Machine) entryBlock(budget uint64) (*Block, error) {
	var b *Block
	if m.space != nil {
		b = m.lookupBlock(m.CPU.EIP)
	}
	if b != nil {
		if uint64(b.Uops[0].N) <= budget {
			return b, nil
		}
		m.tailIns[0] = b.Ins[0]
	} else {
		in, err := m.fetch(m.CPU.EIP)
		if err != nil {
			return nil, err
		}
		m.tailIns[0] = in
	}
	m.tailUops[0] = isa.LowerOne(m.tailIns[0])
	m.tail.EndTrap = endTrap(m.tailIns[0].Op)
	return &m.tail, nil
}

// Run returns what one executor call on b may do within budget retired
// instructions: the micro-ops of a pass (the whole block when it fits,
// otherwise its longest whole-uop prefix that does, which ends through the
// page-end-cut commit) and the retire limit that decides whether a back
// edge to b's own start iterates in place (budget, capped so the
// executors' uint32 retire counters cannot wrap).
func (b *Block) Run(budget uint64) ([]isa.Uop, uint32) {
	const maxRun = 1 << 30
	if budget > maxRun {
		budget = maxRun
	}
	uops := b.Uops
	if uint64(b.NInstr) > budget {
		var n uint64
		for i := range uops {
			if n += uint64(uops[i].N); n > budget {
				uops = uops[:i]
				break
			}
		}
	}
	return uops, uint32(budget)
}

// endTrap is the trap a block ending in op raises after it completes.
func endTrap(op isa.Op) Trap {
	switch op {
	case isa.OpSyscall:
		return TrapSyscall
	case isa.OpHlt:
		return TrapHalt
	}
	return TrapNone
}

// lookupBlock returns the cached block starting at pc, building it on
// first sight. nil means no cached block (unaligned, unmapped, or
// undecodable entry); RunBlock serves such a PC with a one-instruction
// block (entryBlock).
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

// buildBlock returns the block starting at (frame, off) for this machine's
// cache: the shared block for the bytes it spans, decoded on a miss.
func (m *Machine) buildBlock(frame, off uint32) *Block {
	f, err := m.phys.Frame(frame)
	if err != nil {
		return unbuildable
	}
	b := m.blockTab.lookup(blockKey(f, off))
	if b != unbuildable {
		m.bstats.Built++
	}
	return b
}

// endsBlock reports whether an instruction with opcode op ends a block.
// Conditional branches do not: the not-taken path falls through to the
// next instruction on the same page, so lowering continues and a taken
// branch becomes a mid-block side exit. Loops whose body follows the exit
// test then execute one block per iteration instead of two.
// Unconditional transfers and traps end the block.
func endsBlock(op isa.Op) bool {
	return (op.IsJump() && !op.IsCondJump()) || op == isa.OpSyscall || op == isa.OpHlt
}

// blockKey returns the bytes the block at off in frame f can depend on:
// from off through the first slot whose opcode ends a block, or to the
// page end. Only opcode bytes are scanned, so the key may run past an
// undecodable slot that cuts the block short; decoding stops there
// either way, so equal keys always decode to equal blocks.
func blockKey(f *[mem.PageSize]byte, off uint32) []byte {
	end := off
	for end < mem.PageSize {
		op := isa.Op(f[end])
		end += isa.InstrSize
		if endsBlock(op) {
			break
		}
	}
	return f[off:end]
}

// decodeBlock decodes and lowers the block a key spans: its instructions
// up to the first terminator or undecodable slot (which faults when a tail
// block fetches it). A key whose first slot does not decode yields
// unbuildable.
func decodeBlock(key []byte) *Block {
	b := &Block{Ins: make([]isa.Instruction, 0, len(key)/isa.InstrSize)}
	for o := 0; o < len(key); o += isa.InstrSize {
		in, err := isa.Decode(key[o : o+isa.InstrSize])
		if err != nil {
			break
		}
		b.Ins = append(b.Ins, in)
		if endsBlock(in.Op) {
			b.EndTrap = endTrap(in.Op)
			break
		}
	}
	if len(b.Ins) == 0 {
		return unbuildable
	}
	b.NInstr = len(b.Ins)
	b.Uops = isa.Lower(b.Ins)
	for i := range b.Uops {
		b.Fused += int(b.Uops[i].N) - 1
	}
	b.Loop = countedLoop(b.Uops)
	return b
}

// sharedBlockBytes bounds a block table by the accounted size of what it
// holds (blockBytes). The 133 registry scenarios decode to ~780 blocks
// and ~310 KB; the rest serves by-spec jobs, which can submit arbitrary
// code. A full table stops growing, and misses are decoded into private
// blocks that live only in the machine's own cache.
const sharedBlockBytes = 1 << 20

// blockTable maps the bytes a block spans (blockKey) to the immutable
// block they decode to. It is safe for concurrent use.
type blockTable struct {
	mu      sync.Mutex
	m       map[string]*Block
	bytes   int    // blockBytes of every entry
	private uint64 // decodes not kept because the table was full
}

// BlockTableStats describes the process-wide block table.
type BlockTableStats struct {
	// Entries and Bytes are the blocks it holds and their accounted size
	// (bounded by sharedBlockBytes).
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`
	// Private counts blocks decoded while it was full: they live only in
	// the decoding machine's own cache.
	Private uint64 `json:"private"`
}

// SharedBlockStats reports the process-wide block table every machine
// looks blocks up in.
func SharedBlockStats() BlockTableStats { return sharedBlocks.stats() }

func (t *blockTable) stats() BlockTableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return BlockTableStats{Entries: len(t.m), Bytes: t.bytes, Private: t.private}
}

// sharedBlocks is the process-wide table every machine looks blocks up in.
var sharedBlocks blockTable

// lookup returns the block key decodes to: the table's entry, or a fresh
// decode that the table keeps while it is under its bound.
func (t *blockTable) lookup(key []byte) *Block {
	t.mu.Lock()
	b := t.m[string(key)]
	t.mu.Unlock()
	if b != nil {
		return b
	}
	b = decodeBlock(key)
	if b == unbuildable {
		return b
	}
	size := blockBytes(key, b)
	t.mu.Lock()
	defer t.mu.Unlock()
	if old := t.m[string(key)]; old != nil {
		return old // another machine decoded the same bytes first
	}
	if t.bytes+size <= sharedBlockBytes {
		if t.m == nil {
			t.m = make(map[string]*Block)
		}
		t.m[string(key)] = b
		t.bytes += size
	} else {
		t.private++
	}
	return b
}

// blockBytes is the memory a table entry accounts for: its key and the
// block with its instruction and micro-op arrays and loop descriptor.
func blockBytes(key []byte, b *Block) int {
	n := len(key) + int(unsafe.Sizeof(*b)) +
		cap(b.Ins)*int(unsafe.Sizeof(isa.Instruction{})) + cap(b.Uops)*int(unsafe.Sizeof(isa.Uop{}))
	if b.Loop != nil {
		n += int(unsafe.Sizeof(*b.Loop)) + 4*cap(b.Loop.At)
	}
	return n
}

// execBlockPlain executes the block at EIP with no analysis attached (a
// record pass, or the plain side of a Table V timing), retiring at most
// budget instructions (see Block.Run). A back edge to the block's own start
// iterates in place while the budget fits another pass. Semantics match a
// Step sequence exactly: same register/flag/memory effects, same fault PCs
// and error values, same instruction counting.
func (m *Machine) execBlockPlain(b *Block, budget uint64) (uint64, Trap, error) {
	regs := &m.CPU.Regs
	start := m.CPU.EIP
	epoch := m.blockEpoch
	uops, limit := b.Run(budget)
	var ii uint32    // architectural instructions retired so far, over every pass
	var fused uint64 // FusedOps of earlier passes
iterate:
	for {
		if b.Loop != nil {
			n := m.loopBatch(b, start, ii, limit)
			ii, fused = ii+n*uint32(b.NInstr), fused+uint64(n)*uint64(b.Fused)
		}
		// Instruction ii of this call sits at base + ii*InstrSize: each pass
		// starts at start, so base backs off by the earlier passes.
		base := start - ii*isa.InstrSize
		for ui := range uops {
			u := &uops[ui]
			// at and pc address the micro-op's current instruction: its first,
			// or the access after a folded MOVI.
			at := ii
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
			case isa.UMoviLoad:
				regs[u.B] = u.Imm2
				at, pc = at+1, pc+isa.InstrSize
				fallthrough
			case isa.ULoad:
				addr := regs[u.B] + u.Imm
				if u.C != isa.NoIdx {
					addr = regs[u.B] + regs[u.C]
				}
				var v uint32
				var err error
				if u.Size == 4 {
					v, _, err = m.DataRead32(addr)
				} else {
					v, _, err = m.DataRead8(addr)
				}
				if err != nil {
					return m.blockFault(at, pc, fused+FusedIn(uops, ui), err)
				}
				regs[u.A] = v
				if u.Op != 0 {
					if u.D == isa.NoIdx {
						regs[u.A] = isa.EvalALU(u.Op, v, u.Imm)
					} else {
						regs[u.D] = isa.EvalALU(u.Op, regs[u.D], v)
					}
				}
			case isa.UMoviStore:
				regs[u.B] = u.Imm2
				at, pc = at+1, pc+isa.InstrSize
				fallthrough
			case isa.UStore:
				addr := regs[u.B] + u.Imm
				if u.C != isa.NoIdx {
					addr = regs[u.B] + regs[u.C]
				}
				var err error
				if u.Size == 4 {
					_, err = m.DataWrite32(addr, regs[u.A])
				} else {
					_, err = m.DataWrite8(addr, byte(regs[u.A]))
				}
				if err != nil {
					return m.blockFault(at, pc, fused+FusedIn(uops, ui), err)
				}
				if m.blockEpoch != epoch {
					return m.blockCommit(at+1, pc+isa.InstrSize, TrapNone, fused+FusedIn(uops, ui+1))
				}
			case isa.UPush:
				v := u.Imm
				if u.D == 0 {
					v = regs[u.A]
				}
				regs[isa.ESP] -= 4
				if _, err := m.DataWrite32(regs[isa.ESP], v); err != nil {
					regs[isa.ESP] += 4
					return m.blockFault(ii, pc, fused+FusedIn(uops, ui), err)
				}
				if m.blockEpoch != epoch {
					return m.blockCommit(ii+1, pc+isa.InstrSize, TrapNone, fused+FusedIn(uops, ui+1))
				}
			case isa.UPop:
				v, _, err := m.DataRead32(regs[isa.ESP])
				if err != nil {
					return m.blockFault(ii, pc, fused+FusedIn(uops, ui), err)
				}
				regs[isa.ESP] += 4
				regs[u.A] = v
			case isa.URet:
				v, _, err := m.DataRead32(regs[isa.ESP])
				if err != nil {
					return m.blockFault(ii, pc, fused+FusedIn(uops, ui), err)
				}
				regs[isa.ESP] += 4
				return m.blockCommit(ii+1, v, b.EndTrap, fused+uint64(b.Fused))
			case isa.UJmp:
				next := UopTarget(regs, u, pc)
				if b.Iterates(next, start, ii+1, limit) && m.blockEpoch == epoch {
					ii, fused = ii+1, fused+uint64(b.Fused)
					continue iterate
				}
				return m.blockCommit(ii+1, next, b.EndTrap, fused+uint64(b.Fused))
			case isa.UJcc:
				// Taken: side exit. Not taken: the block continues at the
				// fall-through instruction, which is the next micro-op.
				if isa.CondTaken(u.Op, m.CPU.Flags.Z, m.CPU.Flags.S) {
					next := UopTarget(regs, u, pc)
					if b.Iterates(next, start, ii+1, limit) && m.blockEpoch == epoch {
						ii, fused = ii+1, fused+FusedIn(uops, ui+1)
						continue iterate
					}
					return m.blockCommit(ii+1, next, TrapNone, fused+FusedIn(uops, ui+1))
				}
			case isa.UCall:
				regs[isa.ESP] -= 4
				if _, err := m.DataWrite32(regs[isa.ESP], pc+isa.InstrSize); err != nil {
					regs[isa.ESP] += 4
					return m.blockFault(ii, pc, fused+FusedIn(uops, ui), err)
				}
				return m.blockCommit(ii+1, UopTarget(regs, u, pc), b.EndTrap, fused+uint64(b.Fused))
			case isa.USyscall, isa.UHlt:
				return m.blockCommit(ii+1, pc+isa.InstrSize, b.EndTrap, fused+uint64(b.Fused))
			case isa.UCmpJccRR, isa.UCmpJccRI:
				a := regs[u.A]
				v := u.Imm
				if u.Kind == isa.UCmpJccRR {
					v = regs[u.B]
				}
				z, s := a == v, int32(a) < int32(v)
				m.CPU.Flags.Z, m.CPU.Flags.S = z, s
				if isa.CondTaken(u.Op, z, s) {
					next := UopTarget2(u, pc)
					if b.Iterates(next, start, ii+2, limit) && m.blockEpoch == epoch {
						ii, fused = ii+2, fused+FusedIn(uops, ui+1)
						continue iterate
					}
					return m.blockCommit(ii+2, next, TrapNone, fused+FusedIn(uops, ui+1))
				}
			case isa.UAluJmp:
				regs[u.A] = isa.EvalALU(u.Op, regs[u.A], u.Imm)
				next := UopTarget2(u, pc)
				if b.Iterates(next, start, ii+2, limit) && m.blockEpoch == epoch {
					ii, fused = ii+2, fused+uint64(b.Fused)
					continue iterate
				}
				return m.blockCommit(ii+2, next, b.EndTrap, fused+uint64(b.Fused))
			}
			ii += uint32(u.N)
		}
		// Page-end cut, or the end of a budget prefix: fall through to the
		// next instruction.
		if len(uops) < len(b.Uops) {
			return m.blockCommit(ii, base+ii*isa.InstrSize, TrapNone, fused+FusedIn(uops, len(uops)))
		}
		return m.blockCommit(ii, base+ii*isa.InstrSize, TrapNone, fused+uint64(b.Fused))
	}
}

// loopBatch runs, at the start of a pass of the counted loop b, the passes
// LoopPasses allows, and returns how many it ran; the per-pass dispatch
// runs the pass after them. It translates each access's page once, with
// that access's permission, and invalidates each store's frame once up
// front; a failed translation (the pass faults) or an invalidation that
// moves the block epoch (the loop stores into cached code) declines the
// batch, and the per-pass dispatch reaches the same state: its own store
// finds the frame already invalidated and the epoch moved since the
// executor's entry.
func (m *Machine) loopBatch(b *Block, start, retired, limit uint32) uint32 {
	var addr [MaxLoopAccesses]uint32
	n := b.LoopPasses(&m.CPU.Regs, start, retired, limit, &addr)
	if n == 0 {
		return 0
	}
	l := b.Loop
	var frames [MaxLoopAccesses]*[mem.PageSize]byte
	var frameNo, idx [MaxLoopAccesses]uint32
	for k := range l.Body {
		kind := mem.AccessWrite
		if k < l.Loads {
			kind = mem.AccessRead
		}
		pa, err := m.space.Translate(addr[k], kind)
		if err != nil {
			return 0
		}
		if frames[k], err = m.phys.Frame(pa.Frame()); err != nil {
			return 0
		}
		frameNo[k], idx[k] = pa.Frame(), pa.Offset()
	}
	epoch := m.blockEpoch
	for k := l.Loads; k < len(l.Body); k++ {
		m.InvalidateFrame(frameNo[k])
	}
	if m.blockEpoch != epoch {
		return 0
	}
	l.Move(&m.CPU.Regs, &frames, &idx, n)
	m.bstats.BatchedPasses += uint64(n)
	return n
}

// Move runs n ≥ 1 passes of the loop's guest effects: the MOVI base
// writes, then pass by pass each load's byte (at idx[k]+p of frames[k])
// into its register with its ALU op, each store's data byte out, and I
// advanced by one. It is the byte mover both executors' batches share:
// each resolves the accesses' pages first (no pass leaves them, see
// LoopPasses) and keeps its own bookkeeping.
func (l *CountedLoop) Move(regs *[isa.NumRegs]uint32, frames *[MaxLoopAccesses]*[mem.PageSize]byte, idx *[MaxLoopAccesses]uint32, n uint32) {
	for k := range l.Body {
		if u := &l.Body[k]; u.Kind == isa.UMoviLoad || u.Kind == isa.UMoviStore {
			regs[u.B] = u.Imm2
		}
	}
	if l.Loads == 1 && len(l.Body) <= 2 {
		// The Table V shapes (a copy, an accumulate): one load, at most
		// one store, over slices cut once.
		u := &l.Body[0]
		src := frames[0][idx[0]:][:n]
		var dst []byte
		var data uint8
		if len(l.Body) == 2 {
			dst, data = frames[1][idx[1]:][:n], l.Body[1].A
		}
		for p, b := range src {
			v := uint32(b)
			regs[u.A] = v
			if u.Op != 0 {
				if u.D == isa.NoIdx {
					regs[u.A] = isa.EvalALU(u.Op, v, u.Imm)
				} else {
					regs[u.D] = isa.EvalALU(u.Op, regs[u.D], v)
				}
			}
			if dst != nil {
				dst[p] = byte(regs[data])
			}
			regs[l.I]++
		}
		return
	}
	loads, stores := l.Body[:l.Loads], l.Body[l.Loads:]
	for p := uint32(0); p < n; p++ {
		for k := range loads {
			u := &loads[k]
			v := uint32(frames[k][idx[k]+p])
			regs[u.A] = v
			if u.Op != 0 {
				if u.D == isa.NoIdx {
					regs[u.A] = isa.EvalALU(u.Op, v, u.Imm)
				} else {
					regs[u.D] = isa.EvalALU(u.Op, regs[u.D], v)
				}
			}
		}
		for k := range stores {
			frames[l.Loads+k][idx[l.Loads+k]+p] = byte(regs[stores[k].A])
		}
		regs[l.I]++ // a store may write I itself
	}
}

// Iterates is the back-edge rule both block executors apply: a branch to
// next, taken with retired instructions retired in this executor call,
// starts another pass of b (which began at start) in place when it targets
// b's own first instruction and limit (Block.Run) still fits a whole pass.
// The executors also require the block epoch unmoved; a store that bumps
// it has already ended the pass.
func (b *Block) Iterates(next, start, retired, limit uint32) bool {
	return next == start && retired+uint32(b.NInstr) <= limit
}

// blockCommit finalizes a (possibly partial) block execution.
func (m *Machine) blockCommit(retired, next uint32, trap Trap, fused uint64) (uint64, Trap, error) {
	m.CPU.EIP = next
	m.InstrCount += uint64(retired)
	m.bstats.FusedOps += fused
	return uint64(retired), trap, nil
}

// blockFault finalizes a mid-block fault: retired instructions and the
// folded instructions of the micro-ops that completed (fused) commit, EIP
// points at the faulting instruction (Step's contract), and the error is
// the same *FaultError a Step sequence would have produced.
func (m *Machine) blockFault(retired, pc uint32, fused uint64, err error) (uint64, Trap, error) {
	m.CPU.EIP = pc
	m.InstrCount += uint64(retired)
	m.bstats.FusedOps += fused
	return uint64(retired), TrapFault, &FaultError{PC: pc, Err: err}
}

// FusedIn counts the instructions the first n micro-ops fold away (see
// BlockStats.FusedOps): what a pass that ends after them adds to it. Both
// block executors count this way.
func FusedIn(uops []isa.Uop, n int) uint64 {
	var c uint64
	for i := 0; i < n && i < len(uops); i++ {
		c += uint64(uops[i].N) - 1
	}
	return c
}

// UopTarget resolves a single-instruction control transfer's destination
// against the given register file.
func UopTarget(regs *[isa.NumRegs]uint32, u *isa.Uop, pc uint32) uint32 {
	switch u.D {
	case 1:
		return pc + isa.InstrSize + uint32(int32(u.Imm))
	case 2:
		return regs[u.A]
	}
	return u.Imm
}

// UopTarget2 resolves the branch destination of a fused compare-and-branch
// or ALU-and-jump micro-op (the branch is the second instruction, at
// pc + InstrSize).
func UopTarget2(u *isa.Uop, pc uint32) uint32 {
	if u.D == 1 {
		return pc + 2*isa.InstrSize + uint32(int32(u.Imm2))
	}
	return u.Imm2
}

// --- data accessors ---
//
// Shared by Step, the plain block executor and the fused engine. Each
// returns the translated physical address of the first byte; the stores
// invalidate cached blocks over the written frames.

func (m *Machine) DataRead32(va uint32) (uint32, mem.PhysAddr, error) {
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

func (m *Machine) DataRead8(va uint32) (uint32, mem.PhysAddr, error) {
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

func (m *Machine) DataWrite32(va, v uint32) (mem.PhysAddr, error) {
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

func (m *Machine) DataWrite8(va uint32, v byte) (mem.PhysAddr, error) {
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
