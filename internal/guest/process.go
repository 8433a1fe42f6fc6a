package guest

import (
	"fmt"

	"faros/internal/mem"
	"faros/internal/peimg"
	"faros/internal/vm"
)

// ProcState is a process's scheduling state.
type ProcState uint8

// Process states.
const (
	StateReady ProcState = iota + 1
	StateBlocked
	StateSuspended
	StateDead
)

func (s ProcState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateBlocked:
		return "blocked"
	case StateSuspended:
		return "suspended"
	case StateDead:
		return "dead"
	}
	return "state?"
}

// HandleKind is the type of kernel object a handle refers to.
type HandleKind uint8

// Handle kinds.
const (
	HandleFile HandleKind = iota + 1
	HandleSocket
	HandleProcess
)

// Handle is an entry in a process handle table.
type Handle struct {
	Kind HandleKind
	// FileName names the file for file handles; Off is the file cursor.
	FileName string
	Off      int
	// Sock is the socket id for socket handles.
	Sock uint32
	// Proc is the target pid for process handles.
	Proc uint32
}

// VADKind classifies a virtual address descriptor, the process memory-map
// entries the malfind baseline scans.
type VADKind uint8

// VAD kinds.
const (
	VADImage VADKind = iota + 1
	VADPrivate
	VADStack
)

func (k VADKind) String() string {
	switch k {
	case VADImage:
		return "image"
	case VADPrivate:
		return "private"
	case VADStack:
		return "stack"
	}
	return "vad?"
}

// VAD describes one region of a process address space.
type VAD struct {
	Base uint32
	Size uint32
	Perm mem.Perm
	Kind VADKind
	// Module names the backing image for VADImage regions.
	Module string
}

// Contains reports whether va falls inside the region.
func (v VAD) Contains(va uint32) bool {
	return va >= v.Base && va-v.Base < v.Size
}

// String renders a vadinfo-style line.
func (v VAD) String() string {
	s := fmt.Sprintf("%08X-%08X %s %s", v.Base, v.Base+v.Size, v.Perm, v.Kind)
	if v.Module != "" {
		s += " " + v.Module
	}
	return s
}

// waitKind says what a blocked process is waiting for.
type waitKind uint8

const (
	waitNone waitKind = iota
	waitRecv
	waitSleep
)

// Process is a WinMini process: one address space, one thread of execution.
type Process struct {
	PID    uint32
	Name   string
	Path   string
	Parent uint32

	// Space is the process address space; Space.CR3() is the identity the
	// DIFT engine uses for process tags.
	Space *mem.Space
	// CPU is the saved register context while the process is not running.
	CPU vm.CPU

	State    ProcState
	ExitCode uint32
	// KillReason records why the kernel terminated the process (fault text).
	KillReason string

	// Img is the loaded main image, for module introspection.
	Img *peimg.Image

	handles    map[uint32]*Handle
	nextHandle uint32
	heapNext   uint32

	// VADs is the address-space map in creation order.
	VADs []VAD

	// wait bookkeeping for blocked states
	wait       waitKind
	waitSock   uint32
	waitBufVA  uint32
	waitBufMax uint32
	waitUntil  uint64
}

// newProcess allocates the bare process object (the kernel maps memory).
func newProcess(pid uint32, name string, space *mem.Space, parent uint32) *Process {
	return &Process{
		PID:        pid,
		Name:       name,
		Parent:     parent,
		Space:      space,
		State:      StateReady,
		handles:    make(map[uint32]*Handle),
		nextHandle: 0x10,
		heapNext:   HeapBase,
	}
}

// CR3 returns the address-space identity.
func (p *Process) CR3() uint32 { return p.Space.CR3() }

// AddHandle installs a handle and returns its value.
func (p *Process) AddHandle(h *Handle) uint32 {
	v := p.nextHandle
	p.nextHandle += 4
	p.handles[v] = h
	return v
}

// Handle looks up a handle value.
func (p *Process) Handle(v uint32) (*Handle, bool) {
	h, ok := p.handles[v]
	return h, ok
}

// CloseHandle removes a handle value.
func (p *Process) CloseHandle(v uint32) bool {
	if _, ok := p.handles[v]; !ok {
		return false
	}
	delete(p.handles, v)
	return true
}

// AddVAD records a region.
func (p *Process) AddVAD(v VAD) { p.VADs = append(p.VADs, v) }

// RemoveVADsIn removes VADs of the given kind whose base falls in
// [base, base+size) and returns them.
func (p *Process) RemoveVADsIn(base, size uint32, kind VADKind) []VAD {
	var removed []VAD
	kept := p.VADs[:0]
	for _, v := range p.VADs {
		if v.Kind == kind && v.Base >= base && v.Base-base < size {
			removed = append(removed, v)
			continue
		}
		kept = append(kept, v)
	}
	p.VADs = kept
	return removed
}

// FindVAD returns the VAD containing va.
func (p *Process) FindVAD(va uint32) (VAD, bool) {
	for _, v := range p.VADs {
		if v.Contains(va) {
			return v, true
		}
	}
	return VAD{}, false
}

// allocRegion bumps the process heap and returns a page-aligned base.
func (p *Process) allocRegion(size uint32) uint32 {
	base := p.heapNext
	pages := mem.PagesSpanned(base, size)
	p.heapNext += uint32(pages) * mem.PageSize
	return base
}

// blockOnRecv parks the process waiting for socket data.
func (p *Process) blockOnRecv(sock, bufVA, max uint32) {
	p.State = StateBlocked
	p.wait = waitRecv
	p.waitSock = sock
	p.waitBufVA = bufVA
	p.waitBufMax = max
}

// blockOnSleep parks the process until the machine clock reaches until.
func (p *Process) blockOnSleep(until uint64) {
	p.State = StateBlocked
	p.wait = waitSleep
	p.waitUntil = until
}

// clearWait returns the process to ready.
func (p *Process) clearWait() {
	p.State = StateReady
	p.wait = waitNone
	p.waitSock = 0
	p.waitBufVA = 0
	p.waitBufMax = 0
	p.waitUntil = 0
}
