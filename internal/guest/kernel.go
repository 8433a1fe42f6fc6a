package guest

import (
	"fmt"
	"sort"
	"sync"

	"faros/internal/faults"
	"faros/internal/guest/gfs"
	"faros/internal/guest/gnet"
	"faros/internal/isa"
	"faros/internal/mem"
	"faros/internal/peimg"
	"faros/internal/record"
	"faros/internal/vm"
)

// DefaultQuantum is the scheduler quantum in instructions.
const DefaultQuantum uint64 = 256

// DefaultLocalIP is the guest machine address (the victim machine of the
// paper's testbed).
const DefaultLocalIP = "169.254.57.168"

// ProcEventKind classifies process lifecycle events for the OSI plugin.
type ProcEventKind uint8

// Process lifecycle events.
const (
	ProcCreated ProcEventKind = iota + 1
	ProcExited
	ProcSuspendedEv
	ProcResumed
	ProcKilled
	ProcImageLoaded
)

func (k ProcEventKind) String() string {
	switch k {
	case ProcCreated:
		return "created"
	case ProcExited:
		return "exited"
	case ProcSuspendedEv:
		return "suspended"
	case ProcResumed:
		return "resumed"
	case ProcKilled:
		return "killed"
	case ProcImageLoaded:
		return "image-loaded"
	}
	return "proc-event?"
}

// PacketRecord is one captured packet.
type PacketRecord struct {
	At      uint64
	Flow    uint32
	Inbound bool
	Len     int
	// Head is a bounded prefix of the payload for triage.
	Head []byte
}

// String renders a tcpdump-style line.
func (p PacketRecord) String() string {
	dir := "->"
	if p.Inbound {
		dir = "<-"
	}
	return fmt.Sprintf("[%d] flow %d %s %d bytes", p.At, p.Flow, dir, p.Len)
}

// SyscallHook observes syscall entry (the syscalls2 plugin surface).
type SyscallHook func(p *Process, no uint32, args [4]uint32)

// ProcHook observes process lifecycle events (the OSI plugin surface).
type ProcHook func(p *Process, ev ProcEventKind)

// Kernel is the WinMini kernel: scheduler, syscalls, loader, and devices.
type Kernel struct {
	M      *vm.Machine
	FS     *gfs.FS
	Net    *gnet.Stack
	Reg    *Registry
	Bridge TaintBridge

	// Quantum is the scheduler time slice in instructions.
	Quantum uint64

	// Console accumulates DebugPrint output as "name(pid): text".
	Console []string
	// MessageBoxes accumulates MessageBoxA text; injected payloads use it
	// to prove execution (the paper's "pop-up message from the target
	// process").
	MessageBoxes []string
	// PacketLog is the pcap-style capture of every packet crossing the
	// NIC, in both directions (CuckooBox keeps network traffic traces).
	PacketLog []PacketRecord

	procs    map[uint32]*Process
	order    []uint32 // pids in creation order (deterministic iteration)
	cur      *Process
	nextPID  uint32
	nextCR3  uint32
	rrCursor int

	events   *record.Queue
	recorder *record.Recorder
	shutdown bool

	// preemptCheck, when set, is consulted every preemptEvery retired
	// instructions; a non-nil error aborts the run (cooperative
	// cancellation — a wedged guest cannot pin its host goroutine for
	// longer than one check interval).
	preemptCheck func() error
	preemptEvery uint64
	preemptAt    uint64

	// inj is the optional fault injector; nil means no faults (all its
	// methods are nil-safe).
	inj *faults.Injector
	// exceptions collects structured guest faults for the run summary.
	exceptions []GuestException
	// unknownFlowDrops counts packets delivered to flows the stack does not
	// know; in replay this signals log/spec divergence.
	unknownFlowDrops int

	keyboard []byte
	audio    []byte

	// kernel regions
	exportFrames []uint32
	exportSize   uint32
	stubFrames   []uint32
	stubSize     uint32
	ntdllFrames  []uint32
	ntdllSize    uint32
	// The name tables are the shared boot image's; read-only.
	apiAddr    map[uint32]uint32 // name hash → VA
	entryNames []string          // export table entry index → name

	syscallHooks []SyscallHook
	procHooks    []ProcHook
}

// NewKernel boots a machine: copies the boot image (the stub region,
// ntdll-mini, and the kernel export table) into its own frames, and wires
// the network stack to the event queue.
func NewKernel() (*Kernel, error) {
	k := &Kernel{
		M:       vm.New(mem.NewPhys()),
		FS:      gfs.New(),
		Net:     gnet.NewStack(DefaultLocalIP),
		Reg:     NewRegistry(),
		Bridge:  NopBridge{},
		Quantum: DefaultQuantum,
		procs:   make(map[uint32]*Process),
		nextPID: 100,
		nextCR3: 0x00185000, // Windows-flavored CR3 values
		events:  record.NewQueue(nil),
	}
	k.Net.SetScheduler(k)
	if err := k.buildKernelRegions(); err != nil {
		return nil, err
	}
	return k, nil
}

// --- plugin surfaces ---

// OnSyscall registers a syscall-entry observer.
func (k *Kernel) OnSyscall(h SyscallHook) { k.syscallHooks = append(k.syscallHooks, h) }

// OnProcEvent registers a process lifecycle observer.
func (k *Kernel) OnProcEvent(h ProcHook) { k.procHooks = append(k.procHooks, h) }

func (k *Kernel) fireProcEvent(p *Process, ev ProcEventKind) {
	for _, h := range k.procHooks {
		h(p, ev)
	}
}

// --- record / replay wiring ---

// SetRecorder attaches a recorder; every delivered event is logged.
func (k *Kernel) SetRecorder(r *record.Recorder) { k.recorder = r }

// EnableReplay switches the kernel to replay mode: live endpoints are
// disabled and the event queue is preloaded from the log.
func (k *Kernel) EnableReplay(log *record.Log) {
	k.Net.Replay = true
	k.events = record.NewQueue(log.Events)
}

// ScheduleEvent schedules a raw event (scenario scripts use it for
// keyboard/audio input).
func (k *Kernel) ScheduleEvent(ev record.Event) { k.events.Push(ev) }

// DefaultPreemptInterval is how many guest instructions run between
// preemption checks when the caller does not choose an interval. It is a
// multiple of the scheduler quantum: small enough that a deadline is seen
// within microseconds of wall time, large enough that the check itself is
// noise.
const DefaultPreemptInterval uint64 = 4096

// SetPreemption installs a cancellation check consulted at least every
// `every` retired instructions (0 uses DefaultPreemptInterval). When the
// check returns a non-nil error, Run stops at the next scheduler boundary
// and returns that error alongside a partial summary. A nil check disables
// preemption.
func (k *Kernel) SetPreemption(every uint64, check func() error) {
	if every == 0 {
		every = DefaultPreemptInterval
	}
	k.preemptCheck = check
	k.preemptEvery = every
	k.preemptAt = k.M.InstrCount + every
}

// SetFaultInjector attaches a fault injector (nil disables injection).
// Attach it only for live runs: the recorder logs the post-fault wire
// stream, so a replay of a chaos recording must run without net injection.
func (k *Kernel) SetFaultInjector(inj *faults.Injector) { k.inj = inj }

// FaultStats returns the injector's counters (zero if none attached).
func (k *Kernel) FaultStats() faults.Stats { return k.inj.Stats() }

// PendingEvents returns the number of undelivered queued events; a replay
// that ends with events still pending did not reproduce its recording.
func (k *Kernel) PendingEvents() int { return k.events.Len() }

// UnknownFlowDrops returns how many packets arrived for flows the stack
// does not know — in replay, a divergence signal.
func (k *Kernel) UnknownFlowDrops() int { return k.unknownFlowDrops }

// SchedulePacket implements gnet.Scheduler. Each logical packet gets a
// per-flow wire sequence number and a payload checksum; under a fault plan
// it expands into the injector's wire copies (dropped attempts delay,
// corrupted attempts carry mangled bytes, duplicates share the Seq).
func (k *Kernel) SchedulePacket(flowID uint32, delay uint64, data []byte) {
	seq := k.Net.NextSeq(flowID)
	sum := gnet.Checksum(data)
	for _, wc := range k.inj.WireCopies(data) {
		k.events.Push(record.Event{
			At:   k.M.InstrCount + delay + wc.Delay,
			Kind: record.EvPacketIn,
			Flow: flowID,
			Data: wc.Data,
			Seq:  seq,
			Sum:  sum,
		})
	}
}

// ScheduleFlowClose implements gnet.Scheduler.
func (k *Kernel) ScheduleFlowClose(flowID uint32, delay uint64) {
	k.events.Push(record.Event{At: k.M.InstrCount + delay, Kind: record.EvFlowClose, Flow: flowID})
}

var _ gnet.Scheduler = (*Kernel)(nil)

// --- kernel region construction ---

// ntdllSource builds the guest code of ntdll-mini and returns the block and
// export label names. GetProcAddress walks the export table in *guest*
// instructions — benign programs resolving APIs at runtime go through this
// untainted code path, which is why they do not trip the FAROS policy.
func ntdllSource() (*isa.Block, map[string]string) {
	b := isa.NewBlock()
	exports := map[string]string{
		"GetProcAddress": "getprocaddress",
		"Memcpy":         "memcpy",
	}

	// GetProcAddress: EBX = name hash → EAX = resolved VA (0 if absent).
	b.Label("getprocaddress")
	b.Push(isa.ECX).Push(isa.EDX).Push(isa.ESI).Push(isa.EDI)
	b.Movi(isa.ECX, ExportTableBase)
	b.Ld(isa.EDX, isa.ECX, 0) // count
	b.Movi(isa.ESI, 0)        // index
	b.Label("gpa_loop")
	b.Cmp(isa.ESI, isa.EDX)
	b.Jge("gpa_notfound")
	b.Mov(isa.EAX, isa.ESI)
	b.Shli(isa.EAX, 3)
	b.Add(isa.EAX, isa.ECX) // EAX = base + 8*i
	b.Ld(isa.EDI, isa.EAX, 4)
	b.Cmp(isa.EDI, isa.EBX)
	b.Jz("gpa_found")
	b.Addi(isa.ESI, 1)
	b.Jmp("gpa_loop")
	b.Label("gpa_found")
	b.Ld(isa.EAX, isa.EAX, 8)
	b.Jmp("gpa_out")
	b.Label("gpa_notfound")
	b.Movi(isa.EAX, 0)
	b.Label("gpa_out")
	b.Pop(isa.EDI).Pop(isa.ESI).Pop(isa.EDX).Pop(isa.ECX)
	b.Ret()

	// Memcpy: EBX = dst, ECX = src, EDX = n.
	b.Label("memcpy")
	b.Push(isa.ESI).Push(isa.EAX)
	b.Movi(isa.ESI, 0)
	b.Label("mc_loop")
	b.Cmp(isa.ESI, isa.EDX)
	b.Jge("mc_done")
	b.LdbIdx(isa.EAX, isa.ECX, isa.ESI)
	b.StbIdx(isa.EBX, isa.ESI, isa.EAX)
	b.Addi(isa.ESI, 1)
	b.Jmp("mc_loop")
	b.Label("mc_done")
	b.Pop(isa.EAX).Pop(isa.ESI)
	b.Ret()

	return b, exports
}

// bootImage is the content of the kernel regions: the assembled API stubs,
// ntdll-mini and export table, and the name tables derived from them. It is
// the same for every kernel, so it is built once per process; each boot
// copies the bytes into its own frames, and every kernel shares the
// tables, which nothing writes after boot.
type bootImage struct {
	stubCode, ntdllCode, exportTable []byte
	apiAddr                          map[uint32]uint32 // name hash → VA
	entryNames                       []string          // export table entry index → name
}

// sharedBootImage returns the process's boot image, building it on first
// use.
var sharedBootImage = sync.OnceValues(buildBootImage)

// buildBootImage assembles the stub region, ntdll-mini, and the export
// table.
func buildBootImage() (*bootImage, error) {
	img := &bootImage{apiAddr: make(map[uint32]uint32)}

	// API stubs.
	stubs := isa.NewBlock()
	apis := apiTable()
	for _, api := range apis {
		start := stubs.Len()
		stubs.Movi(isa.EAX, api.Sys)
		stubs.Syscall()
		stubs.Ret()
		for stubs.Len() < start+int(StubStride) {
			stubs.Nop()
		}
	}
	var err error
	if img.stubCode, err = stubs.Assemble(StubBase); err != nil {
		return nil, fmt.Errorf("guest: assemble stubs: %w", err)
	}
	for i, api := range apis {
		img.apiAddr[peimg.HashName(api.Name)] = StubVA(i)
	}

	// ntdll-mini.
	ntdll, ntdllExports := ntdllSource()
	if img.ntdllCode, err = ntdll.Assemble(NtdllBase); err != nil {
		return nil, fmt.Errorf("guest: assemble ntdll: %w", err)
	}
	// Deterministic registration order.
	names := make([]string, 0, len(ntdllExports))
	for name := range ntdllExports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		off, ok := ntdll.LabelOffset(ntdllExports[name])
		if !ok {
			return nil, fmt.Errorf("guest: ntdll export %q missing", name)
		}
		img.apiAddr[peimg.HashName(name)] = NtdllBase + uint32(off)
	}

	// Export table: count, then (hash, addr) entries in stub order followed
	// by ntdll exports.
	tbl := isa.NewBlock()
	tbl.Word(uint32(len(apis) + len(names)))
	for i, api := range apis {
		tbl.Word(peimg.HashName(api.Name))
		tbl.Word(StubVA(i))
		img.entryNames = append(img.entryNames, api.Name)
	}
	for _, name := range names {
		tbl.Word(peimg.HashName(name))
		tbl.Word(img.apiAddr[peimg.HashName(name)])
		img.entryNames = append(img.entryNames, name)
	}
	if img.exportTable, err = tbl.Assemble(ExportTableBase); err != nil {
		return nil, fmt.Errorf("guest: assemble export table: %w", err)
	}
	return img, nil
}

// buildKernelRegions copies the boot image into fresh frames: the stub
// region, ntdll-mini, and the export table, shared by every address space.
func (k *Kernel) buildKernelRegions() error {
	img, err := sharedBootImage()
	if err != nil {
		return err
	}
	phys := k.M.Phys()
	k.stubFrames, k.stubSize = writeToFrames(phys, img.stubCode)
	k.ntdllFrames, k.ntdllSize = writeToFrames(phys, img.ntdllCode)
	k.exportFrames, k.exportSize = writeToFrames(phys, img.exportTable)
	k.apiAddr, k.entryNames = img.apiAddr, img.entryNames
	return nil
}

// writeToFrames copies data into freshly allocated frames.
func writeToFrames(phys *mem.Phys, data []byte) ([]uint32, uint32) {
	n := (len(data) + mem.PageSize - 1) / mem.PageSize
	if n == 0 {
		n = 1
	}
	frames := phys.AllocFrames(n)
	for i, fr := range frames {
		f, _ := phys.Frame(fr)
		copy(f[:], data[i*mem.PageSize:])
	}
	return frames, uint32(len(data))
}

// ExportTableRange returns the VA range of the kernel export table; the
// DIFT engine taints it with the export-table tag at attach time.
func (k *Kernel) ExportTableRange() (uint32, uint32) { return ExportTableBase, k.exportSize }

// ExportTablePhys returns the physical frames backing the export table.
func (k *Kernel) ExportTablePhys() []uint32 { return k.exportFrames }

// ExportEntryNameAt resolves a byte offset within the export table to the
// API name whose entry covers it. The DIFT engine uses it to enrich
// export-table findings with *which* function the injected code was
// resolving — the paper's §V.A "future work" tag augmentation.
func (k *Kernel) ExportEntryNameAt(off uint32) (string, bool) {
	if off < 4 || off >= k.exportSize {
		return "", false
	}
	idx := int(off-4) / 8
	if idx >= len(k.entryNames) {
		return "", false
	}
	return k.entryNames[idx], true
}

// --- process management ---

// Process returns a process by pid.
func (k *Kernel) Process(pid uint32) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// Processes returns all processes in creation order.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.order))
	for _, pid := range k.order {
		out = append(out, k.procs[pid])
	}
	return out
}

// Current returns the process whose context is loaded, if any.
func (k *Kernel) Current() *Process { return k.cur }

// newSpace creates a process address space with the shared kernel regions
// mapped: export table (r--), stubs and ntdll (r-x).
func (k *Kernel) newSpace() (*mem.Space, error) {
	cr3 := k.nextCR3
	k.nextCR3 += 0x1000
	s := mem.NewSpace(k.M.Phys(), cr3)
	if err := s.MapShared(ExportTableBase, k.exportFrames, mem.PermRead); err != nil {
		return nil, err
	}
	if err := s.MapShared(StubBase, k.stubFrames, mem.PermRX); err != nil {
		return nil, err
	}
	if err := s.MapShared(NtdllBase, k.ntdllFrames, mem.PermRX); err != nil {
		return nil, err
	}
	return s, nil
}

// Spawn loads the MZ32 image stored at path in the guest filesystem and
// creates a process running it. With suspended set the process starts in
// the suspended state (CreateProcessA with CREATE_SUSPENDED).
func (k *Kernel) Spawn(path string, suspended bool, parent uint32) (*Process, error) {
	f, err := k.FS.Open(path)
	if err != nil {
		return nil, fmt.Errorf("guest: spawn %s: %w", path, err)
	}
	img, err := peimg.Unmarshal(f.Bytes())
	if err != nil {
		return nil, fmt.Errorf("guest: spawn %s: %w", path, err)
	}
	space, err := k.newSpace()
	if err != nil {
		return nil, err
	}
	pid := k.nextPID
	k.nextPID++
	p := newProcess(pid, img.Name, space, parent)
	p.Path = path
	p.Img = img

	// Stack.
	if err := space.Map(StackBase, StackPages, mem.PermRW); err != nil {
		return nil, err
	}
	p.AddVAD(VAD{Base: StackBase, Size: StackPages * mem.PageSize, Perm: mem.PermRW, Kind: VADStack})

	if err := k.mapImage(p, img, f); err != nil {
		return nil, fmt.Errorf("guest: spawn %s: %w", path, err)
	}

	p.CPU.EIP = img.Base + img.Entry
	p.CPU.Regs[isa.ESP] = StackTop - 16
	if suspended {
		p.State = StateSuspended
	}

	k.procs[pid] = p
	k.order = append(k.order, pid)
	k.Bridge.ProcessStarted(p)
	k.fireProcEvent(p, ProcCreated)
	return p, nil
}

// mapImage maps an image's sections into p, copies their bytes (notifying
// the bridge so file taint flows into the mapped pages), resolves imports,
// and records VADs.
func (k *Kernel) mapImage(p *Process, img *peimg.Image, f *gfs.File) error {
	for i := range img.Sections {
		sec := &img.Sections[i]
		base := img.Base + sec.VA
		if base%mem.PageSize != 0 {
			return fmt.Errorf("unaligned section %q at %#x", sec.Name, base)
		}
		pages := mem.PagesSpanned(base, sec.MemSize())
		if pages == 0 {
			pages = 1
		}
		if err := p.Space.Map(base, pages, sec.Perm); err != nil {
			return fmt.Errorf("map section %q: %w", sec.Name, err)
		}
		if len(sec.Data) > 0 {
			if err := k.kwrite(p.Space, base, sec.Data); err != nil {
				return fmt.Errorf("copy section %q: %w", sec.Name, err)
			}
			if f != nil {
				k.Bridge.SectionLoaded(p, f, sec.DataFileOff, base, len(sec.Data))
			}
		}
		p.AddVAD(VAD{Base: base, Size: uint32(pages) * mem.PageSize, Perm: sec.Perm, Kind: VADImage, Module: img.Name})
	}
	for _, im := range img.Imports {
		va, ok := k.apiAddr[im.NameHash]
		if !ok {
			return fmt.Errorf("unresolved import %q (hash %#x)", im.Name, im.NameHash)
		}
		if err := k.kwrite32(p.Space, img.Base+im.ThunkVA, va); err != nil {
			return fmt.Errorf("write thunk for %q: %w", im.Name, err)
		}
	}
	k.fireProcEvent(p, ProcImageLoaded)
	return nil
}

// killProcess terminates a process abnormally (fault).
func (k *Kernel) killProcess(p *Process, reason string) {
	if p.State == StateDead {
		return
	}
	p.State = StateDead
	p.KillReason = reason
	p.ExitCode = ErrRet
	k.Bridge.ProcessExited(p)
	k.fireProcEvent(p, ProcKilled)
}

// exitProcess terminates a process normally.
func (k *Kernel) exitProcess(p *Process, code uint32) {
	if p.State == StateDead {
		return
	}
	p.State = StateDead
	p.ExitCode = code
	k.Bridge.ProcessExited(p)
	k.fireProcEvent(p, ProcExited)
}

// --- kernel memory helpers (privileged: ignore page permissions) ---

// kernelWriteBytes writes into a space regardless of page write permission,
// as ring-0 copies do (the loader writes r-x text sections this way). It
// copies a page at a time; a fault names the first unmapped byte, with
// every byte before it already written.
func kernelWriteBytes(s *mem.Space, va uint32, data []byte) error {
	phys := s.Phys()
	for len(data) > 0 {
		frame, ok := s.FrameOf(va)
		if !ok {
			return &mem.Fault{VA: va, Kind: mem.AccessWrite, Why: "page not mapped (kernel copy)"}
		}
		f, err := phys.Frame(frame)
		if err != nil {
			return err
		}
		n := copy(f[va%mem.PageSize:], data)
		data = data[n:]
		va += uint32(n)
	}
	return nil
}

// kernelReadBytes reads from a space regardless of page permissions, a
// page at a time.
func kernelReadBytes(s *mem.Space, va uint32, n int) ([]byte, error) {
	phys := s.Phys()
	out := make([]byte, n)
	for done := 0; done < n; {
		frame, ok := s.FrameOf(va)
		if !ok {
			return nil, &mem.Fault{VA: va, Kind: mem.AccessRead, Why: "page not mapped (kernel copy)"}
		}
		f, err := phys.Frame(frame)
		if err != nil {
			return nil, err
		}
		c := copy(out[done:], f[va%mem.PageSize:])
		done += c
		va += uint32(c)
	}
	return out, nil
}

// kwrite is the kernel's privileged write: it bypasses page permissions
// and invalidates the CPU's decoded-instruction cache for every frame it
// touches (injected code must decode fresh).
func (k *Kernel) kwrite(s *mem.Space, va uint32, data []byte) error {
	if err := kernelWriteBytes(s, va, data); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	for page := mem.PageBase(va); ; page += mem.PageSize {
		if frame, ok := s.FrameOf(page); ok {
			k.M.InvalidateFrame(frame)
		}
		if page >= mem.PageBase(va+uint32(len(data))-1) {
			break
		}
	}
	return nil
}

// kwrite32 is kwrite for one word.
func (k *Kernel) kwrite32(s *mem.Space, va uint32, v uint32) error {
	return k.kwrite(s, va, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// --- event delivery ---

// deliverDue pops and applies all events due at the current clock.
func (k *Kernel) deliverDue() {
	now := k.M.InstrCount
	for {
		ev, ok := k.events.PopDue(now)
		if !ok {
			return
		}
		ev.At = now
		if k.recorder != nil {
			k.recorder.Delivered(ev)
		}
		switch ev.Kind {
		case record.EvPacketIn:
			k.deliverPacket(ev)
		case record.EvFlowClose:
			if sock, ok := k.Net.CloseFlow(ev.Flow); ok {
				k.wakeRecvWaiter(sock)
			}
		case record.EvKeyboard:
			k.keyboard = append(k.keyboard, ev.Data...)
		case record.EvAudio:
			k.audio = append(k.audio, ev.Data...)
		case record.EvShutdown:
			k.shutdown = true
		}
	}
}

// deliverPacket pushes packet bytes (tagged by the bridge) into the flow's
// socket and completes a blocked recv if one is pending. Wire copies whose
// checksum does not verify were corrupted in transit and are discarded;
// sequenced copies go through the socket's reassembly buffer so duplicates
// drop and reordered payloads deliver in order.
func (k *Kernel) deliverPacket(ev record.Event) {
	flow, ok := k.Net.Flow(ev.Flow)
	if !ok {
		k.unknownFlowDrops++
		k.Console = append(k.Console, fmt.Sprintf("kernel: dropped packet for unknown flow %d", ev.Flow))
		return
	}
	k.capturePacket(ev.Flow, true, ev.Data)
	if ev.Sum != 0 && gnet.Checksum(ev.Data) != ev.Sum {
		k.Console = append(k.Console, fmt.Sprintf("kernel: flow %d seq %d checksum mismatch, packet discarded", ev.Flow, ev.Seq))
		return
	}
	sock, ok := k.Net.SocketForFlow(ev.Flow)
	if !ok {
		k.unknownFlowDrops++
		k.Console = append(k.Console, fmt.Sprintf("kernel: no socket for flow %d", ev.Flow))
		return
	}
	delivered := false
	for _, chunk := range sock.AcceptSeq(ev.Seq, ev.Data) {
		prov := k.Bridge.PacketIn(*flow, chunk)
		if _, err := k.Net.DeliverPacket(ev.Flow, chunk, prov); err != nil {
			k.Console = append(k.Console, "kernel: "+err.Error())
			return
		}
		delivered = true
	}
	if delivered {
		k.wakeRecvWaiter(sock)
	}
}

// capturePacket appends to the pcap-style log (payload head bounded).
func (k *Kernel) capturePacket(flow uint32, inbound bool, data []byte) {
	head := data
	if len(head) > 16 {
		head = head[:16]
	}
	k.PacketLog = append(k.PacketLog, PacketRecord{
		At:      k.M.InstrCount,
		Flow:    flow,
		Inbound: inbound,
		Len:     len(data),
		Head:    append([]byte(nil), head...),
	})
}

// wakeRecvWaiter completes a pending blocking recv on the socket.
func (k *Kernel) wakeRecvWaiter(sock *gnet.Socket) {
	for _, pid := range k.order {
		p := k.procs[pid]
		if p.State != StateBlocked || p.wait != waitRecv || p.waitSock != sock.ID {
			continue
		}
		if len(sock.RX) == 0 && !sock.RemoteClosed {
			continue
		}
		data, prov := sock.TakeRX(k.inj.CapRead(int(p.waitBufMax)))
		if len(data) > 0 {
			if err := k.kwrite(p.Space, p.waitBufVA, data); err != nil {
				p.CPU.Regs[isa.EAX] = ErrRet
				p.clearWait()
				return
			}
			k.Bridge.RecvToUser(p, p.waitBufVA, data, prov)
		}
		p.CPU.Regs[isa.EAX] = uint32(len(data))
		p.clearWait()
		return
	}
}

// --- scheduler and run loop ---

// pickNext selects the next ready process round-robin.
func (k *Kernel) pickNext() *Process {
	n := len(k.order)
	for i := 0; i < n; i++ {
		idx := (k.rrCursor + i) % n
		p := k.procs[k.order[idx]]
		if p.State == StateReady {
			k.rrCursor = (idx + 1) % n
			return p
		}
	}
	return nil
}

// dispatchTo context-switches the machine to p.
func (k *Kernel) dispatchTo(p *Process) {
	if k.cur == p {
		k.M.SetSpace(p.Space)
		k.M.CPU = p.CPU
		return
	}
	k.Bridge.ContextSwitch(k.cur, p)
	k.M.SetSpace(p.Space)
	k.M.CPU = p.CPU
	k.cur = p
}

// saveContext stores the machine CPU state back into p.
func (k *Kernel) saveContext(p *Process) { p.CPU = k.M.CPU }

// minSleepWake returns the earliest sleep deadline among blocked sleepers.
func (k *Kernel) minSleepWake() (uint64, bool) {
	var best uint64
	found := false
	for _, pid := range k.order {
		p := k.procs[pid]
		if p.State == StateBlocked && p.wait == waitSleep {
			if !found || p.waitUntil < best {
				best = p.waitUntil
				found = true
			}
		}
	}
	return best, found
}

// wakeSleepers readies sleepers whose deadline has passed.
func (k *Kernel) wakeSleepers() {
	now := k.M.InstrCount
	for _, pid := range k.order {
		p := k.procs[pid]
		if p.State == StateBlocked && p.wait == waitSleep && p.waitUntil <= now {
			p.clearWait()
		}
	}
}

// GuestException is one structured guest fault: a process hit an
// unrecoverable condition (undecodable opcode, memory violation) and was
// terminated while the rest of the system kept running.
type GuestException struct {
	PID  uint32
	Name string
	// At is the machine clock when the fault was taken.
	At uint64
	// PC is the faulting instruction address.
	PC uint32
	// Reason describes the fault.
	Reason string
}

// String renders a crash-report line.
func (e GuestException) String() string {
	return fmt.Sprintf("%s(%d) fault at 0x%08X: %s", e.Name, e.PID, e.PC, e.Reason)
}

// RunSummary reports how a run ended.
type RunSummary struct {
	Instructions uint64
	Reason       string
	LiveProcs    int
	// Faults lists the guest exceptions taken during the run; each one
	// terminated only its process, never the run.
	Faults []GuestException
}

// Run executes the guest until shutdown, process exhaustion, deadlock, or
// the instruction budget is exhausted.
func (k *Kernel) Run(maxInstr uint64) (RunSummary, error) {
	for !k.shutdown {
		if k.preemptCheck != nil && k.M.InstrCount >= k.preemptAt {
			if err := k.preemptCheck(); err != nil {
				return k.summary("preempted: " + err.Error()), err
			}
			k.preemptAt = k.M.InstrCount + k.preemptEvery
		}
		if k.M.InstrCount >= maxInstr {
			return k.summary("instruction budget exhausted"), nil
		}
		if !k.anyLive() {
			return k.summary("all processes terminated"), nil
		}
		k.deliverDue()
		k.wakeSleepers()
		p := k.pickNext()
		if p == nil {
			// Nothing runnable: fast-forward to the next wake source.
			evAt, haveEv := k.events.NextAt()
			slAt, haveSl := k.minSleepWake()
			switch {
			case haveEv && (!haveSl || evAt <= slAt):
				if evAt > k.M.InstrCount {
					k.M.InstrCount = evAt
				}
				continue
			case haveSl:
				if slAt > k.M.InstrCount {
					k.M.InstrCount = slAt
				}
				continue
			default:
				return k.summary("deadlock: processes blocked with no pending events"), nil
			}
		}
		k.dispatchTo(p)
		k.injectGuestFault(p)
		k.runQuantum(p, maxInstr)
		if p.State != StateDead {
			k.saveContext(p)
		}
	}
	return k.summary("shutdown event"), nil
}

// injectGuestFault applies a planned guest-level fault to the dispatched
// process: a flipped opcode byte under EIP or a wild jump to an unmapped
// page. The process takes a structured exception on its next step and is
// terminated by runQuantum while the rest of the system keeps running.
func (k *Kernel) injectGuestFault(p *Process) {
	switch k.inj.GuestFault(p.Name) {
	case faults.GuestFlip:
		// 0xFF is not a valid opcode; the decode fails at fetch. kwrite also
		// drops the frame's cached blocks so the corrupted byte is observed. A write
		// failure (EIP already unmapped) is fine: the fetch faults anyway.
		_ = k.kwrite(p.Space, k.M.CPU.EIP, []byte{0xFF})
	case faults.GuestProbe:
		k.M.CPU.EIP = 0x00000FF8 // below every mapping: guaranteed unmapped
	}
}

// runQuantum executes p for up to one quantum, handling traps. A fault
// terminates only p — it is recorded as a structured guest exception and
// the scheduler moves on, mirroring how a real OS converts a CPU fault
// into process termination rather than a machine halt.
func (k *Kernel) runQuantum(p *Process, maxInstr uint64) {
	// The dispatcher advances InstrCount by exactly one per retired
	// instruction, so the instruction budget folds into the step count —
	// one loop counter instead of re-reading the clock every iteration.
	steps := k.Quantum
	if k.M.InstrCount >= maxInstr {
		return
	}
	if rem := maxInstr - k.M.InstrCount; rem < steps {
		steps = rem
	}
	for steps > 0 {
		// RunBlock runs whole predecoded blocks while one fits the
		// remaining budget and a block prefix otherwise, so the quantum
		// ends exactly on its last instruction.
		n, trap, err := k.M.RunBlock(steps)
		steps -= n
		if err != nil {
			k.saveContext(p)
			exc := GuestException{
				PID:    p.PID,
				Name:   p.Name,
				At:     k.M.InstrCount,
				PC:     p.CPU.EIP,
				Reason: err.Error(),
			}
			if fe, ok := err.(*vm.FaultError); ok {
				exc.PC = fe.PC
			}
			k.exceptions = append(k.exceptions, exc)
			k.Console = append(k.Console, "kernel: "+exc.String())
			k.killProcess(p, err.Error())
			return
		}
		switch trap {
		case vm.TrapSyscall:
			k.saveContext(p)
			k.handleSyscall(p)
			if p.State != StateReady {
				return
			}
			// Syscall may have modified saved context (ret value).
			k.M.CPU = p.CPU
		case vm.TrapHalt:
			k.saveContext(p)
			k.exitProcess(p, 0)
			return
		}
	}
}

func (k *Kernel) anyLive() bool {
	for _, pid := range k.order {
		if k.procs[pid].State != StateDead {
			return true
		}
	}
	return false
}

func (k *Kernel) summary(reason string) RunSummary {
	live := 0
	for _, pid := range k.order {
		if k.procs[pid].State != StateDead {
			live++
		}
	}
	return RunSummary{
		Instructions: k.M.InstrCount,
		Reason:       reason,
		LiveProcs:    live,
		Faults:       append([]GuestException(nil), k.exceptions...),
	}
}
