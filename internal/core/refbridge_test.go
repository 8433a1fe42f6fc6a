package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"faros/internal/guest"
	"faros/internal/guest/gfs"
	"faros/internal/mem"
	"faros/internal/samples"
	"faros/internal/taint"
)

// The hooks that move bytes (receive, file read and write, image load,
// cross-process copy) stamp and copy provenance a run at a time. refBridge
// keeps the byte-at-a-time bodies they replaced as the oracle: one shadow
// translation and one Prepend per tag for every byte, each byte read after
// the bytes before it were written. Both must leave identical findings,
// shadow state, interned lists and file shadows.

// refBridge is the engine with its byte-moving hooks run per byte.
type refBridge struct{ *FAROS }

func (r refBridge) RecvToUser(p *guest.Process, dstVA uint32, data []byte, prov []uint32) {
	f := r.FAROS
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

func (r refBridge) FileRead(p *guest.Process, file *gfs.File, fileOff int, dstVA uint32, n int) {
	f := r.FAROS
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

func (r refBridge) SectionLoaded(p *guest.Process, file *gfs.File, fileOff int, dstVA uint32, n int) {
	r.FileRead(p, file, fileOff, dstVA, n)
}

func (r refBridge) FileWrite(p *guest.Process, file *gfs.File, fileOff int, srcVA uint32, n int) {
	f := r.FAROS
	ft := f.T.InternFile(file.Name, file.Version)
	shadow := make([]uint32, n)
	for i := 0; i < n; i++ {
		id := f.memGetRange(p.Space, srcVA+uint32(i), 1)
		id = f.T.Prepend(id, ft)
		shadow[i] = uint32(id)
	}
	if err := file.SetShadowAt(fileOff, shadow); err != nil {
		panic(fmt.Sprintf("core: reference FileWrite shadow: %v", err))
	}
}

func (r refBridge) CopyUserToUser(caller, dst *guest.Process, dstVA uint32, src *guest.Process, srcVA uint32, n int) {
	f := r.FAROS
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

// useRefBridge is the runSpecHooked hook that swaps in the reference.
func useRefBridge(k *guest.Kernel, f *FAROS) { k.Bridge = refBridge{f} }

// watchBridge puts a lifecycle watch on every byte a hook is about to
// write into guest memory, so the watch sees each byte's insertion and all
// its later provenance changes.
type watchBridge struct {
	guest.TaintBridge
	w *lifecycleWatch
}

const watchLimit = 1 << 20

func (w watchBridge) RecvToUser(p *guest.Process, dstVA uint32, data []byte, prov []uint32) {
	w.w.watchRange(p, dstVA, len(data))
	w.TaintBridge.RecvToUser(p, dstVA, data, prov)
}

func (w watchBridge) FileRead(p *guest.Process, file *gfs.File, fileOff int, dstVA uint32, n int) {
	w.w.watchRange(p, dstVA, n)
	w.TaintBridge.FileRead(p, file, fileOff, dstVA, n)
}

func (w watchBridge) CopyUserToUser(caller, dst *guest.Process, dstVA uint32, src *guest.Process, srcVA uint32, n int) {
	w.w.watchRange(dst, dstVA, n)
	w.TaintBridge.CopyUserToUser(caller, dst, dstVA, src, srcVA, n)
}

// watchHookWrites wraps whichever bridge is installed in a watchBridge.
func watchHookWrites(k *guest.Kernel, f *FAROS) {
	k.Bridge = watchBridge{k.Bridge, watchLifecycle(f, watchLimit)}
}

// fileState is a guest file's content and full-length shadow.
type fileState struct {
	data   string
	shadow []uint32
}

// bridgeState is everything the byte-moving hooks can reach, flattened
// for comparison.
type bridgeState struct {
	findings []Finding
	shadow   map[uint64]taint.ProvID // pa → ProvID
	lists    []string                // ProvID → rendered list, every interned ID
	files    map[string]fileState
	counters taint.Stats
	life     []LifecycleEvent
}

func snapshotBridge(k *guest.Kernel, f *FAROS) bridgeState {
	st := bridgeState{
		findings: f.Findings(),
		shadow:   make(map[uint64]taint.ProvID),
		files:    make(map[string]fileState),
		counters: f.T.Stats(),
	}
	if wb, ok := k.Bridge.(watchBridge); ok {
		st.life = wb.w.events
	}
	f.T.ForEachTainted(func(pa uint64, id taint.ProvID) { st.shadow[pa] = id })
	for id := 0; id <= st.counters.ListsInterned; id++ {
		st.lists = append(st.lists, f.T.Render(taint.ProvID(id)))
	}
	for _, name := range k.FS.List() {
		file, _ := k.FS.Stat(name)
		_, shadow := file.ReadAt(0, len(file.Bytes()))
		st.files[name] = fileState{string(file.Bytes()), shadow}
	}
	// Run-granular stamping makes fewer Prepend and Union calls by design;
	// every other counter must match.
	st.counters.Prepends, st.counters.PrependMemoHits = 0, 0
	st.counters.Unions, st.counters.UnionMemoHits = 0, 0
	return st
}

// diffBridgeStates reports every field of got that differs from the
// reference's want.
func diffBridgeStates(t *testing.T, name string, got, want bridgeState) {
	t.Helper()
	if !reflect.DeepEqual(got.findings, want.findings) {
		t.Errorf("%s: findings diverged: %d vs reference %d", name, len(got.findings), len(want.findings))
	}
	if !reflect.DeepEqual(got.shadow, want.shadow) {
		t.Errorf("%s: shadow diverged: %d tainted bytes vs reference %d", name, len(got.shadow), len(want.shadow))
	}
	if !reflect.DeepEqual(got.lists, want.lists) {
		t.Errorf("%s: interned lists diverged: %d vs reference %d", name, len(got.lists), len(want.lists))
	}
	if !reflect.DeepEqual(got.files, want.files) {
		t.Errorf("%s: file contents or shadows diverged", name)
	}
	if got.counters != want.counters {
		t.Errorf("%s: store counters diverged:\n got %+v\nwant %+v", name, got.counters, want.counters)
	}
	if !reflect.DeepEqual(got.life, want.life) {
		t.Errorf("%s: lifecycle streams diverged: %d events vs reference %d", name, len(got.life), len(want.life))
	}
}

// bridgeCorpus is every built-in scenario plus the six Table V
// applications.
func bridgeCorpus() []samples.Spec {
	specs := append(samples.Attacks(), samples.TransientReflective())
	specs = append(specs, samples.EvasionScenarios()...)
	specs = append(specs, samples.JITWorkloads()...)
	specs = append(specs, samples.BenignPrograms()...)
	specs = append(specs, samples.MalwareCorpus()...)
	for _, w := range samples.PerfWorkloads() {
		specs = append(specs, w.Spec)
	}
	return specs
}

// TestRefBridgeDifferential runs the whole corpus with the production
// hooks and with the per-byte reference, and diffs everything the hooks
// can reach. The attacks run again under the process-tag ablation, where
// stamping is file tags alone.
func TestRefBridgeDifferential(t *testing.T) {
	run := func(spec samples.Spec, cfg Config) {
		k, f := runSpecHooked(t, spec, cfg)
		rk, rf := runSpecHooked(t, spec, cfg, useRefBridge)
		diffBridgeStates(t, fmt.Sprintf("%s (%+v)", spec.Name, cfg), snapshotBridge(k, f), snapshotBridge(rk, rf))
		k.M.Release()
		rk.M.Release()
		f.T.Release()
		rf.T.Release()
	}
	corpus := bridgeCorpus()
	if len(corpus) != 139 {
		t.Fatalf("corpus has %d specs, want 139", len(corpus))
	}
	for _, spec := range corpus {
		run(spec, Config{})
	}
	for _, spec := range samples.Attacks() {
		run(spec, Config{NoProcessTags: true})
	}
}

// TestRefBridgeLifecycleStream watches every byte the hooks write during
// the reflective DLL injection (netflow → injector → victim) and requires
// the byte-lifecycle event streams to match event for event.
func TestRefBridgeLifecycleStream(t *testing.T) {
	spec := samples.ReflectiveDLLInject()
	k, f := runSpecHooked(t, spec, Config{}, watchHookWrites)
	rk, rf := runSpecHooked(t, spec, Config{}, useRefBridge, watchHookWrites)
	want := snapshotBridge(rk, rf)
	if len(want.life) == 0 || len(want.life) >= watchLimit {
		t.Fatalf("reference stream has %d events; want some, under the %d cap", len(want.life), watchLimit)
	}
	var netflow bool
	for _, ev := range want.life {
		netflow = netflow || rf.T.Has(ev.To, taint.TagNetflow)
	}
	if !netflow {
		t.Error("no watched byte ever carried netflow provenance")
	}
	diffBridgeStates(t, spec.Name, snapshotBridge(k, f), want)
}

// hookWorld is a kernel with FAROS attached, two hand-built processes and
// a file, whose memory and shadow a test fills with taint and moves bytes
// between through the hooks.
type hookWorld struct {
	k    *guest.Kernel
	f    *FAROS
	a, b *guest.Process
	file *gfs.File
}

// Regions of the hook world: both processes map regionPgs pages at
// regionBase, A has one page of its region unmapped at holeBase, and A
// sees B's region a second time at aliasBase, so copies between the two
// share frames.
const (
	regionBase = 0x10000
	holeBase   = 0x14000
	aliasBase  = 0x40000
	regionPgs  = 8
)

func newHookWorld(t *testing.T, cfg Config) *hookWorld {
	t.Helper()
	k, f := newKernelWithFAROS(t, cfg)
	w := &hookWorld{k: k, f: f}
	phys := k.M.Phys()
	w.a = &guest.Process{PID: 7, Name: "a.exe", Space: mem.NewSpace(phys, 0xA000)}
	w.b = &guest.Process{PID: 9, Name: "b.exe", Space: mem.NewSpace(phys, 0xB000)}
	for _, p := range []*guest.Process{w.a, w.b} {
		if err := p.Space.Map(regionBase, regionPgs, mem.PermRead|mem.PermWrite); err != nil {
			t.Fatal(err)
		}
	}
	w.a.Space.Unmap(holeBase, 1)
	var frames []uint32
	for i := uint32(0); i < regionPgs; i++ {
		fr, _ := w.b.Space.FrameOf(regionBase + i*mem.PageSize)
		frames = append(frames, fr)
	}
	if err := w.a.Space.MapShared(aliasBase, frames, mem.PermRead|mem.PermWrite); err != nil {
		t.Fatal(err)
	}
	// A file of two tainted runs and an untainted head, whose shadow ends
	// before its content does.
	w.file = k.FS.Create("drop.bin")
	shadow := make([]uint32, 2*mem.PageSize)
	for i := 100; i < len(shadow); i++ {
		shadow[i] = uint32(f.T.Single(f.T.InternFile("seed.bin", uint32(1+i/mem.PageSize))))
	}
	if err := w.file.WriteAt(0, make([]byte, len(shadow)), shadow); err != nil {
		t.Fatal(err)
	}
	if err := w.file.WriteAt(len(shadow), make([]byte, mem.PageSize), nil); err != nil {
		t.Fatal(err)
	}
	return w
}

// Kinds of hookOp.
const (
	opSeed = iota
	opCopy
	opFileRead
	opFileWrite
)

// hookOp is one seeded step. Process indices are 0 for A and 1 for B;
// file, proc pick a seeded list's file tag and process tag.
type hookOp struct {
	kind             int
	caller, dst, src int
	dstVA, srcVA     uint32
	off, n           int
	file, proc       int
}

// randomHookOps draws a taint seeding followed by hook calls of the given
// kinds. Copies cover overlapping same-process copies in both directions,
// page-straddling lengths, cross-process copies, and copies through the
// shared alias.
func randomHookOps(rng *rand.Rand, kinds ...int) []hookOp {
	va := func() uint32 {
		base := uint32(regionBase)
		if rng.Intn(4) == 0 {
			base = aliasBase
		}
		return base + uint32(rng.Intn(regionPgs*mem.PageSize))
	}
	length := func() int {
		switch rng.Intn(3) {
		case 0:
			return 1 + rng.Intn(16)
		case 1:
			return mem.PageSize - 8 + rng.Intn(16)
		}
		return 1 + rng.Intn(3*mem.PageSize)
	}
	var ops []hookOp
	for i := 0; i < 12; i++ {
		ops = append(ops, hookOp{kind: opSeed, dst: rng.Intn(2), dstVA: va(), n: length(),
			file: rng.Intn(3), proc: rng.Intn(2)})
	}
	for i := 0; i < 40; i++ {
		op := hookOp{kind: kinds[rng.Intn(len(kinds))], caller: rng.Intn(2), dst: rng.Intn(2), src: rng.Intn(2),
			srcVA: va(), dstVA: va(), off: rng.Intn(3 * mem.PageSize), n: length()}
		if op.kind == opCopy {
			switch rng.Intn(3) {
			case 0: // overlapping within one process, either direction
				op.dst, op.src = op.caller, op.caller
				op.dstVA = op.srcVA + uint32(rng.Intn(33)) - 16
			case 1: // A's alias of B's region into B's region: shared frames
				op.src, op.dst = 0, 1
				off := op.srcVA % (regionPgs * mem.PageSize)
				op.srcVA = aliasBase + off
				op.dstVA = regionBase + off + uint32(rng.Intn(9)) - 4
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// apply runs ops against the world through bridge. File writes first
// store untainted bytes, as the kernel does before the hook runs.
func (w *hookWorld) apply(bridge guest.TaintBridge, ops []hookOp) {
	procs := []*guest.Process{w.a, w.b}
	s := w.f.T
	for _, op := range ops {
		switch op.kind {
		case opSeed:
			id := s.Prepend(s.Single(s.InternFile(fmt.Sprintf("f%d.bin", op.file), 1)), w.f.procTag(procs[op.proc]))
			for i := 0; i < op.n; i++ {
				if pa, ok := physAt(procs[op.dst].Space, op.dstVA+uint32(i)); ok {
					s.MemSet(pa, id)
				}
			}
		case opCopy:
			bridge.CopyUserToUser(procs[op.caller], procs[op.dst], op.dstVA, procs[op.src], op.srcVA, op.n)
		case opFileRead:
			size := len(w.file.Bytes())
			off := op.off % size
			bridge.FileRead(procs[op.dst], w.file, off, op.dstVA, min(op.n, size-off))
		case opFileWrite:
			if err := w.file.WriteAt(op.off, make([]byte, op.n), nil); err != nil {
				panic(err)
			}
			bridge.FileWrite(procs[op.src], w.file, op.off, op.srcVA, op.n)
		}
	}
}

// diffHookWorlds runs ops through the production hooks and the per-byte
// reference on identical worlds, for each config, across seeds.
func diffHookWorlds(t *testing.T, kinds ...int) {
	for _, cfg := range []Config{{}, {NoProcessTags: true}} {
		for seed := int64(1); seed <= 40; seed++ {
			ops := randomHookOps(rand.New(rand.NewSource(seed)), kinds...)
			prod, ref := newHookWorld(t, cfg), newHookWorld(t, cfg)
			prod.apply(prod.f, ops)
			ref.apply(refBridge{ref.f}, ops)
			got, want := snapshotBridge(prod.k, prod.f), snapshotBridge(ref.k, ref.f)
			// A range write of untainted bytes counts its shadow writes and
			// skips per page, a byte loop per byte; the random ops clear
			// and read untainted pages in ways no corpus run does, so only
			// the shadow-state counters are compared here.
			got.counters.ShadowWrites, got.counters.RangeFastSkips = 0, 0
			want.counters.ShadowWrites, want.counters.RangeFastSkips = 0, 0
			diffBridgeStates(t, fmt.Sprintf("seed %d (%+v)", seed, cfg), got, want)
		}
	}
}

// TestCopyUserToUserMatchesReference drives seeded random copies through
// the production hook and the per-byte reference.
func TestCopyUserToUserMatchesReference(t *testing.T) { diffHookWorlds(t, opCopy) }

// TestFileHooksMatchReference does the same for file reads and writes,
// over a file whose shadow is shorter than its content, mixed with copies.
func TestFileHooksMatchReference(t *testing.T) {
	diffHookWorlds(t, opFileRead, opFileWrite, opCopy)
}
