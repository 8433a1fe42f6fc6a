package guest

import (
	"faros/internal/guest/gfs"
	"faros/internal/guest/gnet"
)

// TaintBridge is the seam between the kernel and the DIFT engine. The
// kernel performs every data movement itself (byte copies between device
// buffers, files, and address spaces) and then notifies the bridge, which
// propagates the corresponding taint through the shadow state and inserts
// tags per the paper's tag-insertion rules. The guest runs unchanged with
// the no-op bridge, which is how the "replay without FAROS" half of the
// performance table executes.
//
// The data hooks receive whole ranges (a receive buffer, a file extent, a
// copy's source and destination), never single bytes, so the engine can
// stamp a run of equal provenance at a time and translate once per page.
//
// All provenance values crossing this interface are opaque uint32 ProvIDs
// owned by the DIFT engine; the kernel only ferries them alongside bytes
// (socket receive buffers, file shadows).
type TaintBridge interface {
	// PacketIn fires when a packet arrives at the NIC, before the bytes
	// reach a socket buffer. It returns the per-byte provenance to store
	// alongside the data (the netflow tag insertion point).
	PacketIn(flow gnet.Flow, data []byte) []uint32

	// RecvToUser fires after the kernel copied received bytes (with their
	// buffered provenance) into a process buffer at dstVA.
	RecvToUser(p *Process, dstVA uint32, data []byte, prov []uint32)

	// FileRead fires after the kernel copied n file bytes from fileOff into
	// the process at dstVA (file tag insertion on load).
	FileRead(p *Process, f *gfs.File, fileOff int, dstVA uint32, n int)

	// FileWrite fires after the kernel copied n bytes from the process at
	// srcVA into the file at fileOff (file tag insertion on store; the
	// bridge owns updating the file's shadow).
	FileWrite(p *Process, f *gfs.File, fileOff int, srcVA uint32, n int)

	// SectionLoaded fires after the loader mapped image bytes (file content
	// at fileOff) into the process at dstVA.
	SectionLoaded(p *Process, f *gfs.File, fileOff int, dstVA uint32, n int)

	// CopyUserToUser fires after a kernel-mediated cross-process copy
	// (NtWriteVirtualMemory / NtReadVirtualMemory) of n bytes.
	CopyUserToUser(caller, dst *Process, dstVA uint32, src *Process, srcVA uint32, n int)

	// ContextSwitch fires when the scheduler switches address spaces; the
	// DIFT engine swaps shadow register banks here. Either side may be nil
	// at the run's edges.
	ContextSwitch(from, to *Process)

	// ProcessStarted fires after a process is created and its image loaded.
	ProcessStarted(p *Process)

	// ProcessExited fires when a process dies.
	ProcessExited(p *Process)
}

// NopBridge is the do-nothing bridge used when no DIFT engine is attached.
type NopBridge struct{}

var _ TaintBridge = NopBridge{}

// PacketIn implements TaintBridge.
func (NopBridge) PacketIn(_ gnet.Flow, data []byte) []uint32 { return make([]uint32, len(data)) }

// RecvToUser implements TaintBridge.
func (NopBridge) RecvToUser(*Process, uint32, []byte, []uint32) {}

// FileRead implements TaintBridge.
func (NopBridge) FileRead(*Process, *gfs.File, int, uint32, int) {}

// FileWrite implements TaintBridge.
func (NopBridge) FileWrite(*Process, *gfs.File, int, uint32, int) {}

// SectionLoaded implements TaintBridge.
func (NopBridge) SectionLoaded(*Process, *gfs.File, int, uint32, int) {}

// CopyUserToUser implements TaintBridge.
func (NopBridge) CopyUserToUser(*Process, *Process, uint32, *Process, uint32, int) {}

// ContextSwitch implements TaintBridge.
func (NopBridge) ContextSwitch(*Process, *Process) {}

// ProcessStarted implements TaintBridge.
func (NopBridge) ProcessStarted(*Process) {}

// ProcessExited implements TaintBridge.
func (NopBridge) ProcessExited(*Process) {}
