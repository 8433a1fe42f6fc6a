package guest

import (
	"fmt"

	"faros/internal/guest/gnet"
	"faros/internal/isa"
	"faros/internal/mem"
	"faros/internal/peimg"
)

// maxPath bounds path strings read from guest memory.
const maxPath = 256

// maxIO bounds single-syscall transfer sizes.
const maxIO = 1 << 20

// handleSyscall executes the syscall whose number and arguments are in p's
// saved context (p.CPU was saved by the caller). The return value is
// written into the saved EAX; blocking calls park the process instead.
func (k *Kernel) handleSyscall(p *Process) {
	no := p.CPU.Regs[isa.EAX]
	args := [4]uint32{
		p.CPU.Regs[isa.EBX],
		p.CPU.Regs[isa.ECX],
		p.CPU.Regs[isa.EDX],
		p.CPU.Regs[isa.ESI],
	}
	for _, h := range k.syscallHooks {
		h(p, no, args)
	}
	ret, blocked := k.dispatchSyscall(p, no, args)
	if blocked {
		return
	}
	p.CPU.Regs[isa.EAX] = ret
}

// dispatchSyscall implements the syscall table. It returns (ret, blocked);
// when blocked is true the process was parked and ret is ignored.
func (k *Kernel) dispatchSyscall(p *Process, no uint32, args [4]uint32) (uint32, bool) {
	switch no {
	case SysExitProcess:
		k.exitProcess(p, args[0])
		return 0, true

	case SysDebugPrint:
		s, err := p.Space.ReadCString(args[0], maxPath)
		if err != nil {
			return ErrRet, false
		}
		k.Console = append(k.Console, fmt.Sprintf("%s(%d): %s", p.Name, p.PID, s))
		return 0, false

	case SysMessageBox:
		s, err := p.Space.ReadCString(args[0], maxPath)
		if err != nil {
			return ErrRet, false
		}
		k.MessageBoxes = append(k.MessageBoxes, fmt.Sprintf("%s(%d): %s", p.Name, p.PID, s))
		return 0, false

	case SysCreateFile:
		name, err := p.Space.ReadCString(args[0], maxPath)
		if err != nil {
			return ErrRet, false
		}
		k.FS.Create(name)
		return p.AddHandle(&Handle{Kind: HandleFile, FileName: name}), false

	case SysOpenFile:
		name, err := p.Space.ReadCString(args[0], maxPath)
		if err != nil {
			return ErrRet, false
		}
		if _, err := k.FS.Open(name); err != nil {
			return ErrRet, false
		}
		return p.AddHandle(&Handle{Kind: HandleFile, FileName: name}), false

	case SysReadFile:
		if k.inj.FaultSyscall() {
			return StatusRetry, false
		}
		return k.sysReadFile(p, args), false

	case SysWriteFile:
		if k.inj.FaultSyscall() {
			return StatusRetry, false
		}
		return k.sysWriteFile(p, args), false

	case SysDeleteFile:
		name, err := p.Space.ReadCString(args[0], maxPath)
		if err != nil {
			return ErrRet, false
		}
		if k.FS.Delete(name) != nil {
			return ErrRet, false
		}
		return 0, false

	case SysCloseHandle:
		if !p.CloseHandle(args[0]) {
			return ErrRet, false
		}
		return 0, false

	case SysSocket:
		sock := k.Net.NewSocket(p.PID)
		return p.AddHandle(&Handle{Kind: HandleSocket, Sock: sock.ID}), false

	case SysConnect:
		return k.sysConnect(p, args), false

	case SysSend:
		return k.sysSend(p, args), false

	case SysRecv:
		if k.inj.FaultSyscall() {
			return StatusRetry, false
		}
		return k.sysRecv(p, args)

	case SysVirtualAlloc:
		return k.sysVirtualAlloc(p, args), false

	case SysVirtualProtect:
		return k.sysVirtualProtect(p, args), false

	case SysVirtualFree:
		return k.sysVirtualFree(p, args), false

	case SysUnmapSection:
		return k.sysUnmapSection(p, args), false

	case SysOpenProcess:
		target, ok := k.procs[args[0]]
		if !ok || target.State == StateDead {
			return ErrRet, false
		}
		return p.AddHandle(&Handle{Kind: HandleProcess, Proc: target.PID}), false

	case SysCreateProcess:
		path, err := p.Space.ReadCString(args[0], maxPath)
		if err != nil {
			return ErrRet, false
		}
		child, err := k.Spawn(path, args[1]&CreateSuspended != 0, p.PID)
		if err != nil {
			k.Console = append(k.Console, "kernel: CreateProcess failed: "+err.Error())
			return ErrRet, false
		}
		return child.PID, false

	case SysSuspendProcess:
		target, ok := k.targetProcess(p, args[0])
		if !ok || target.State == StateDead {
			return ErrRet, false
		}
		target.State = StateSuspended
		k.fireProcEvent(target, ProcSuspendedEv)
		return 0, target == p

	case SysResumeProcess:
		target, ok := k.targetProcess(p, args[0])
		if !ok || target.State != StateSuspended {
			return ErrRet, false
		}
		target.State = StateReady
		k.fireProcEvent(target, ProcResumed)
		return 0, false

	case SysWriteVM:
		return k.sysWriteVM(p, args), false

	case SysReadVM:
		return k.sysReadVM(p, args), false

	case SysSetThreadContext:
		target, ok := k.targetProcess(p, args[0])
		if !ok || target.State == StateDead {
			return ErrRet, false
		}
		target.CPU.EIP = args[1]
		return 0, false

	case SysCreateRemoteThread:
		target, ok := k.targetProcess(p, args[0])
		if !ok || target.State == StateDead {
			return ErrRet, false
		}
		// Single-threaded processes: hijack the main thread at entry. A
		// suspended target stays suspended until resumed.
		target.CPU.EIP = args[1]
		target.CPU.Regs[isa.EBX] = args[2] // optional argument
		if target.State == StateBlocked {
			target.clearWait()
		}
		return 0, false

	case SysSleep:
		p.blockOnSleep(k.M.InstrCount + uint64(args[0]))
		return 0, true

	case SysYield:
		p.blockOnSleep(k.M.InstrCount + 1)
		return 0, true

	case SysGetPID:
		return p.PID, false

	case SysFindProcess:
		name, err := p.Space.ReadCString(args[0], maxPath)
		if err != nil {
			return ErrRet, false
		}
		// Prefer a live process with the name that is not the caller
		// (malware looks up victims, not itself).
		for _, pid := range k.order {
			q := k.procs[pid]
			if q.Name == name && q.State != StateDead && q != p {
				return q.PID, false
			}
		}
		if p.Name == name {
			return p.PID, false
		}
		return ErrRet, false

	case SysReadKeyboard:
		n := k.consumeDevice(&k.keyboard, p, args[0], args[1])
		return n, false

	case SysReadAudio:
		n := k.consumeDevice(&k.audio, p, args[0], args[1])
		return n, false

	case SysReadScreen:
		return k.sysReadScreen(p, args), false

	case SysLoadLibrary:
		return k.sysLoadLibrary(p, args), false

	case SysGetTick:
		return uint32(k.M.InstrCount), false

	case SysRegSet:
		key, err := p.Space.ReadCString(args[0], maxPath)
		if err != nil {
			return ErrRet, false
		}
		val, err := p.Space.ReadCString(args[1], maxPath)
		if err != nil {
			return ErrRet, false
		}
		k.Reg.Set(key, val)
		return 0, false

	case SysRegGet:
		key, err := p.Space.ReadCString(args[0], maxPath)
		if err != nil {
			return ErrRet, false
		}
		val, ok := k.Reg.Get(key)
		if !ok {
			return ErrRet, false
		}
		out := append([]byte(val), 0)
		if uint32(len(out)) > args[2] {
			return ErrRet, false
		}
		if err := k.kwrite(p.Space, args[1], out); err != nil {
			return ErrRet, false
		}
		return uint32(len(val)), false

	case SysRegDelete:
		key, err := p.Space.ReadCString(args[0], maxPath)
		if err != nil {
			return ErrRet, false
		}
		if !k.Reg.Delete(key) {
			return ErrRet, false
		}
		return 0, false
	}
	k.Console = append(k.Console, fmt.Sprintf("kernel: %s(%d): bad syscall %d", p.Name, p.PID, no))
	return ErrRet, false
}

// targetProcess resolves a process handle, with 0 meaning the caller.
func (k *Kernel) targetProcess(p *Process, handle uint32) (*Process, bool) {
	if handle == 0 {
		return p, true
	}
	h, ok := p.Handle(handle)
	if !ok || h.Kind != HandleProcess {
		return nil, false
	}
	t, ok := k.procs[h.Proc]
	return t, ok
}

// socketFor resolves a socket handle.
func (k *Kernel) socketFor(p *Process, handle uint32) (*gnet.Socket, bool) {
	h, ok := p.Handle(handle)
	if !ok || h.Kind != HandleSocket {
		return nil, false
	}
	return k.Net.Socket(h.Sock)
}

func (k *Kernel) sysReadFile(p *Process, args [4]uint32) uint32 {
	h, ok := p.Handle(args[0])
	if !ok || h.Kind != HandleFile {
		return ErrRet
	}
	f, ok := k.FS.Stat(h.FileName)
	if !ok {
		return ErrRet
	}
	n := int(args[2])
	if n <= 0 || n > maxIO {
		return ErrRet
	}
	data, _ := f.ReadAt(h.Off, n)
	if len(data) == 0 {
		return 0
	}
	if err := k.kwrite(p.Space, args[1], data); err != nil {
		return ErrRet
	}
	k.Bridge.FileRead(p, f, h.Off, args[1], len(data))
	h.Off += len(data)
	return uint32(len(data))
}

func (k *Kernel) sysWriteFile(p *Process, args [4]uint32) uint32 {
	h, ok := p.Handle(args[0])
	if !ok || h.Kind != HandleFile {
		return ErrRet
	}
	f, ok := k.FS.Stat(h.FileName)
	if !ok {
		return ErrRet
	}
	n := int(args[2])
	if n <= 0 || n > maxIO {
		return ErrRet
	}
	data, err := kernelReadBytes(p.Space, args[1], n)
	if err != nil {
		return ErrRet
	}
	if err := f.WriteAt(h.Off, data, nil); err != nil {
		return ErrRet
	}
	k.Bridge.FileWrite(p, f, h.Off, args[1], n)
	h.Off += n
	return uint32(n)
}

func (k *Kernel) sysConnect(p *Process, args [4]uint32) uint32 {
	sock, ok := k.socketFor(p, args[0])
	if !ok {
		return ErrRet
	}
	ip, err := p.Space.ReadCString(args[1], maxPath)
	if err != nil {
		return ErrRet
	}
	if err := k.Net.Connect(sock, gnet.Addr{IP: ip, Port: uint16(args[2])}); err != nil {
		return ErrRet
	}
	return 0
}

func (k *Kernel) sysSend(p *Process, args [4]uint32) uint32 {
	sock, ok := k.socketFor(p, args[0])
	if !ok {
		return ErrRet
	}
	n := int(args[2])
	if n <= 0 || n > maxIO {
		return ErrRet
	}
	data, err := kernelReadBytes(p.Space, args[1], n)
	if err != nil {
		return ErrRet
	}
	if sock.Flow != nil {
		k.capturePacket(sock.Flow.ID, false, data)
	}
	sent, err := k.Net.Send(sock, data)
	if err != nil {
		return ErrRet
	}
	return uint32(sent)
}

// sysRecv returns (ret, blocked). An empty open socket blocks the caller.
func (k *Kernel) sysRecv(p *Process, args [4]uint32) (uint32, bool) {
	sock, ok := k.socketFor(p, args[0])
	if !ok || sock.Flow == nil {
		return ErrRet, false
	}
	max := int(args[2])
	if max <= 0 || max > maxIO {
		return ErrRet, false
	}
	if len(sock.RX) == 0 {
		if sock.RemoteClosed {
			return 0, false
		}
		p.blockOnRecv(sock.ID, args[1], args[2])
		return 0, true
	}
	data, prov := sock.TakeRX(k.inj.CapRead(max))
	if err := k.kwrite(p.Space, args[1], data); err != nil {
		return ErrRet, false
	}
	k.Bridge.RecvToUser(p, args[1], data, prov)
	return uint32(len(data)), false
}

// sysVirtualAlloc: EBX=process handle (0=self), ECX=address hint (0=any),
// EDX=size, ESI=permission bits.
func (k *Kernel) sysVirtualAlloc(p *Process, args [4]uint32) uint32 {
	target, ok := k.targetProcess(p, args[0])
	if !ok || target.State == StateDead {
		return ErrRet
	}
	size := args[2]
	if size == 0 || size > maxIO {
		return ErrRet
	}
	perm := mem.Perm(args[3])
	if perm == 0 {
		perm = mem.PermRW
	}
	base := args[1]
	if base == 0 {
		base = target.allocRegion(size)
	}
	if base%mem.PageSize != 0 {
		return ErrRet
	}
	pages := mem.PagesSpanned(base, size)
	if err := target.Space.Map(base, pages, perm); err != nil {
		return ErrRet
	}
	target.AddVAD(VAD{Base: base, Size: uint32(pages) * mem.PageSize, Perm: perm, Kind: VADPrivate})
	return base
}

func (k *Kernel) sysVirtualProtect(p *Process, args [4]uint32) uint32 {
	target, ok := k.targetProcess(p, args[0])
	if !ok {
		return ErrRet
	}
	base, size := args[1], args[2]
	perm := mem.Perm(args[3])
	if err := target.Space.Protect(base, mem.PagesSpanned(base, size), perm); err != nil {
		return ErrRet
	}
	for i := range target.VADs {
		if target.VADs[i].Contains(base) {
			target.VADs[i].Perm = perm
		}
	}
	return 0
}

func (k *Kernel) sysVirtualFree(p *Process, args [4]uint32) uint32 {
	target, ok := k.targetProcess(p, args[0])
	if !ok {
		return ErrRet
	}
	base, size := args[1], args[2]
	target.Space.Unmap(base, mem.PagesSpanned(base, size))
	target.RemoveVADsIn(base, size, VADPrivate)
	return 0
}

// sysUnmapSection unmaps the image region containing the given address in
// the target, as process hollowing does before rebuilding the space.
func (k *Kernel) sysUnmapSection(p *Process, args [4]uint32) uint32 {
	target, ok := k.targetProcess(p, args[0])
	if !ok || target.State == StateDead {
		return ErrRet
	}
	base := args[1]
	vad, ok := target.FindVAD(base)
	if !ok || vad.Kind != VADImage {
		return ErrRet
	}
	// Remove every image VAD of the same module (whole-section unmap).
	module := vad.Module
	kept := target.VADs[:0]
	for _, v := range target.VADs {
		if v.Kind == VADImage && v.Module == module {
			target.Space.Unmap(v.Base, int(v.Size)/mem.PageSize)
			continue
		}
		kept = append(kept, v)
	}
	target.VADs = kept
	return 0
}

func (k *Kernel) sysWriteVM(p *Process, args [4]uint32) uint32 {
	target, ok := k.targetProcess(p, args[0])
	if !ok || target.State == StateDead {
		return ErrRet
	}
	n := int(args[3])
	if n <= 0 || n > maxIO {
		return ErrRet
	}
	data, err := kernelReadBytes(p.Space, args[2], n)
	if err != nil {
		return ErrRet
	}
	if err := k.kwrite(target.Space, args[1], data); err != nil {
		return ErrRet
	}
	k.Bridge.CopyUserToUser(p, target, args[1], p, args[2], n)
	return uint32(n)
}

func (k *Kernel) sysReadVM(p *Process, args [4]uint32) uint32 {
	target, ok := k.targetProcess(p, args[0])
	if !ok || target.State == StateDead {
		return ErrRet
	}
	n := int(args[3])
	if n <= 0 || n > maxIO {
		return ErrRet
	}
	data, err := kernelReadBytes(target.Space, args[2], n)
	if err != nil {
		return ErrRet
	}
	if err := k.kwrite(p.Space, args[1], data); err != nil {
		return ErrRet
	}
	k.Bridge.CopyUserToUser(p, p, args[1], target, args[2], n)
	return uint32(n)
}

// consumeDevice copies buffered device input to the caller (non-blocking).
func (k *Kernel) consumeDevice(buf *[]byte, p *Process, dstVA, max uint32) uint32 {
	if max == 0 || len(*buf) == 0 {
		return 0
	}
	n := int(max)
	if n > len(*buf) {
		n = len(*buf)
	}
	if err := k.kwrite(p.Space, dstVA, (*buf)[:n]); err != nil {
		return ErrRet
	}
	*buf = (*buf)[n:]
	return uint32(n)
}

// sysReadScreen synthesizes a deterministic framebuffer chunk.
func (k *Kernel) sysReadScreen(p *Process, args [4]uint32) uint32 {
	n := int(args[1])
	if n <= 0 {
		return 0
	}
	if n > 4096 {
		n = 4096
	}
	buf := make([]byte, n)
	seed := uint32(k.M.InstrCount)
	for i := range buf {
		seed = seed*1103515245 + 12345
		buf[i] = byte(seed >> 16)
	}
	if err := k.kwrite(p.Space, args[0], buf); err != nil {
		return ErrRet
	}
	return uint32(n)
}

// sysLoadLibrary loads a DLL image into the calling process and returns
// the address of its entry point (or its base when the entry is zero).
// This is the *legitimate* DLL loading path: the loader resolves imports
// natively, so no guest instruction ever reads the export table.
func (k *Kernel) sysLoadLibrary(p *Process, args [4]uint32) uint32 {
	path, err := p.Space.ReadCString(args[0], maxPath)
	if err != nil {
		return ErrRet
	}
	f, err := k.FS.Open(path)
	if err != nil {
		return ErrRet
	}
	img, err := peimg.Unmarshal(f.Bytes())
	if err != nil {
		return ErrRet
	}
	if err := k.mapImage(p, img, f); err != nil {
		k.Console = append(k.Console, "kernel: LoadLibrary failed: "+err.Error())
		return ErrRet
	}
	return img.Base + img.Entry
}
