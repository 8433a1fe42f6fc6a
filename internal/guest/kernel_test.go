package guest

import (
	"strings"
	"testing"

	"faros/internal/guest/gnet"
	"faros/internal/isa"
	"faros/internal/peimg"
	"faros/internal/record"
	"faros/internal/trace"
)

// buildAndInstall assembles a program and installs it in the kernel FS.
func buildAndInstall(t *testing.T, k *Kernel, b *peimg.Builder, path string) {
	t.Helper()
	raw, err := b.BuildBytes()
	if err != nil {
		t.Fatalf("build %s: %v", path, err)
	}
	k.FS.Install(path, raw)
}

// helloProgram prints a message and exits.
func helloProgram(name, msg string) *peimg.Builder {
	b := peimg.NewBuilder(name)
	b.DataBlk.Label("msg").DataString(msg)
	b.Text.Movi(isa.EBX, b.MustDataVA("msg"))
	b.CallImport("DebugPrint")
	b.Text.Movi(isa.EBX, 0)
	b.CallImport("ExitProcess")
	return b
}

func newTestKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestHelloWorld(t *testing.T) {
	k := newTestKernel(t)
	buildAndInstall(t, k, helloProgram("hello.exe", "hello, winmini"), "hello.exe")
	p, err := k.Spawn("hello.exe", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := k.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reason != "all processes terminated" {
		t.Errorf("reason = %q", sum.Reason)
	}
	if p.State != StateDead || p.ExitCode != 0 {
		t.Errorf("proc state = %v exit %d (%s)", p.State, p.ExitCode, p.KillReason)
	}
	if len(k.Console) != 1 || !strings.Contains(k.Console[0], "hello, winmini") {
		t.Errorf("console = %v", k.Console)
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	k := newTestKernel(t)
	buildAndInstall(t, k, helloProgram("a.exe", "from a"), "a.exe")
	buildAndInstall(t, k, helloProgram("b.exe", "from b"), "b.exe")
	if _, err := k.Spawn("a.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("b.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(k.Console) != 2 {
		t.Errorf("console = %v", k.Console)
	}
}

func TestFileRoundTripBetweenProcesses(t *testing.T) {
	k := newTestKernel(t)

	// Writer: create file, write a string.
	w := peimg.NewBuilder("writer.exe")
	w.DataBlk.Label("path").DataString("shared.txt")
	w.DataBlk.Label("content").DataString("secret-data")
	w.Text.Movi(isa.EBX, w.MustDataVA("path"))
	w.CallImport("CreateFileA")
	w.Text.Mov(isa.EBP, isa.EAX) // handle
	w.Text.Mov(isa.EBX, isa.EBP)
	w.Text.Movi(isa.ECX, w.MustDataVA("content"))
	w.Text.Movi(isa.EDX, 11)
	w.CallImport("WriteFile")
	w.Text.Movi(isa.EBX, 0)
	w.CallImport("ExitProcess")
	buildAndInstall(t, k, w, "writer.exe")

	// Reader: open file, read, print.
	r := peimg.NewBuilder("reader.exe")
	r.DataBlk.Label("path").DataString("shared.txt")
	bufVA := r.BSS(64)
	r.Text.Movi(isa.EBX, r.MustDataVA("path"))
	r.CallImport("OpenFileA")
	r.Text.Mov(isa.EBP, isa.EAX)
	r.Text.Mov(isa.EBX, isa.EBP)
	r.Text.Movi(isa.ECX, bufVA)
	r.Text.Movi(isa.EDX, 11)
	r.CallImport("ReadFile")
	r.Text.Movi(isa.EBX, bufVA)
	r.CallImport("DebugPrint")
	r.Text.Movi(isa.EBX, 0)
	r.CallImport("ExitProcess")
	buildAndInstall(t, k, r, "reader.exe")

	if _, err := k.Spawn("writer.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("reader.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range k.Console {
		if strings.Contains(line, "secret-data") {
			found = true
		}
	}
	if !found {
		t.Errorf("console = %v; journal = %v", k.Console, k.FS.Journal)
	}
}

// payloadEndpoint pushes a payload on connect.
type payloadEndpoint struct {
	payload []byte
}

func (e payloadEndpoint) OnConnect(_ gnet.Flow) []gnet.Reply {
	return []gnet.Reply{{DelayInstr: 200, Data: e.payload}}
}

func (e payloadEndpoint) OnData(_ gnet.Flow, _ []byte) []gnet.Reply { return nil }

// downloadProgram connects to 10.0.0.9:80, recvs n bytes, prints them.
func downloadProgram(n uint32) *peimg.Builder {
	b := peimg.NewBuilder("dl.exe")
	b.DataBlk.Label("ip").DataString("10.0.0.9")
	bufVA := b.BSS(256)
	b.CallImport("Socket")
	b.Text.Mov(isa.EBP, isa.EAX)
	b.Text.Mov(isa.EBX, isa.EBP)
	b.Text.Movi(isa.ECX, b.MustDataVA("ip"))
	b.Text.Movi(isa.EDX, 80)
	b.CallImport("Connect")
	b.Text.Mov(isa.EBX, isa.EBP)
	b.Text.Movi(isa.ECX, bufVA)
	b.Text.Movi(isa.EDX, n)
	b.CallImport("Recv")
	b.Text.Movi(isa.EBX, bufVA)
	b.CallImport("DebugPrint")
	b.Text.Movi(isa.EBX, 0)
	b.CallImport("ExitProcess")
	return b
}

func TestNetworkBlockingRecv(t *testing.T) {
	k := newTestKernel(t)
	k.Net.AddEndpoint(gnet.Addr{IP: "10.0.0.9", Port: 80}, payloadEndpoint{payload: []byte("payload!\x00")})
	buildAndInstall(t, k, downloadProgram(64), "dl.exe")
	if _, err := k.Spawn("dl.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(k.Console) != 1 || !strings.Contains(k.Console[0], "payload!") {
		t.Errorf("console = %v", k.Console)
	}
	if len(k.Net.FlowLog) != 1 {
		t.Errorf("flows = %v", k.Net.FlowLog)
	}
}

func TestGetProcAddressFromGuest(t *testing.T) {
	// Resolve DebugPrint by hash at runtime via ntdll GetProcAddress, call
	// it through the returned pointer.
	k := newTestKernel(t)
	b := peimg.NewBuilder("gpa.exe")
	b.DataBlk.Label("msg").DataString("resolved at runtime")
	b.Text.Movi(isa.EBX, peimg.HashName("DebugPrint"))
	b.CallImport("GetProcAddress")
	b.Text.Mov(isa.EBP, isa.EAX)
	b.Text.Movi(isa.EBX, b.MustDataVA("msg"))
	b.Text.CallReg(isa.EBP)
	b.Text.Movi(isa.EBX, 0)
	b.CallImport("ExitProcess")
	buildAndInstall(t, k, b, "gpa.exe")
	if _, err := k.Spawn("gpa.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(k.Console) != 1 || !strings.Contains(k.Console[0], "resolved at runtime") {
		t.Errorf("console = %v", k.Console)
	}
}

func TestGetProcAddressUnknownHashReturnsZero(t *testing.T) {
	k := newTestKernel(t)
	b := peimg.NewBuilder("gpa2.exe")
	b.DataBlk.Label("ok").DataString("got zero")
	b.Text.Movi(isa.EBX, 0xDEAD1234) // no such export
	b.CallImport("GetProcAddress")
	b.Text.Cmpi(isa.EAX, 0)
	b.Text.Jnz("bad")
	b.Text.Movi(isa.EBX, b.MustDataVA("ok"))
	b.CallImport("DebugPrint")
	b.Text.Label("bad")
	b.Text.Movi(isa.EBX, 0)
	b.CallImport("ExitProcess")
	buildAndInstall(t, k, b, "gpa2.exe")
	if _, err := k.Spawn("gpa2.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(k.Console) != 1 || !strings.Contains(k.Console[0], "got zero") {
		t.Errorf("console = %v", k.Console)
	}
}

func TestCreateProcessSuspendedAndResume(t *testing.T) {
	k := newTestKernel(t)
	buildAndInstall(t, k, helloProgram("child.exe", "child ran"), "child.exe")

	parent := peimg.NewBuilder("parent.exe")
	parent.DataBlk.Label("path").DataString("child.exe")
	parent.Text.Movi(isa.EBX, parent.MustDataVA("path"))
	parent.Text.Movi(isa.ECX, CreateSuspended)
	parent.CallImport("CreateProcessA")
	parent.Text.Mov(isa.EBP, isa.EAX) // child pid
	// Sleep so the child *would* run if it were not suspended.
	parent.Text.Movi(isa.EBX, 5000)
	parent.CallImport("Sleep")
	// Open and resume.
	parent.Text.Mov(isa.EBX, isa.EBP)
	parent.CallImport("OpenProcess")
	parent.Text.Mov(isa.EBX, isa.EAX)
	parent.CallImport("ResumeProcess")
	parent.Text.Movi(isa.EBX, 0)
	parent.CallImport("ExitProcess")
	buildAndInstall(t, k, parent, "parent.exe")

	if _, err := k.Spawn("parent.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(k.Console) != 1 || !strings.Contains(k.Console[0], "child ran") {
		t.Errorf("console = %v", k.Console)
	}
	// Verify the child stayed suspended during the sleep: console order is
	// child after parent exit — weaker check: both processes dead.
	for _, p := range k.Processes() {
		if p.State != StateDead {
			t.Errorf("%s not dead: %v", p.Name, p.State)
		}
	}
}

func TestWriteProcessMemoryAndRemoteThread(t *testing.T) {
	// Victim idles; injector writes a tiny payload into victim memory it
	// allocates, then hijacks the victim thread.
	k := newTestKernel(t)

	victim := peimg.NewBuilder("victim.exe")
	victim.Text.Label("loop")
	victim.Text.Movi(isa.EBX, 100)
	victim.CallImport("Sleep")
	victim.Text.Jmp("loop")
	buildAndInstall(t, k, victim, "victim.exe")

	// Payload: DebugPrint("pwned") + ExitProcess — built as raw
	// position-independent code with the fixed stub VAs baked in.
	injector := peimg.NewBuilder("inject.exe")
	injector.DataBlk.Label("vname").DataString("victim.exe")
	// The payload blob lives in the injector's data section.
	pb := isa.NewBlock()
	pb.LeaSelf(isa.EBX, "pmsg")
	dbg, ok := k.ResolveAPI("DebugPrint")
	if !ok {
		t.Fatal("DebugPrint not resolvable")
	}
	exitp, _ := k.ResolveAPI("ExitProcess")
	pb.Movi(isa.EDI, dbg)
	pb.CallReg(isa.EDI)
	pb.Movi(isa.EBX, 0)
	pb.Movi(isa.EDI, exitp)
	pb.CallReg(isa.EDI)
	pb.Label("pmsg").DataString("pwned by remote thread")
	payload := pb.MustAssemble(0)
	injector.DataBlk.Label("payload").Data(payload)

	injector.Text.Movi(isa.EBX, injector.MustDataVA("vname"))
	injector.CallImport("FindProcessA")
	injector.Text.Mov(isa.EBX, isa.EAX)
	injector.CallImport("OpenProcess")
	injector.Text.Mov(isa.EBP, isa.EAX) // victim handle
	// VirtualAlloc(victim, any, len(payload), rwx)
	injector.Text.Mov(isa.EBX, isa.EBP)
	injector.Text.Movi(isa.ECX, 0)
	injector.Text.Movi(isa.EDX, uint32(len(payload)))
	injector.Text.Movi(isa.ESI, 7) // rwx
	injector.CallImport("VirtualAlloc")
	injector.Text.Mov(isa.ESI, isa.EAX) // remote base — careful: ESI is arg4; save in EBX chain below
	injector.Text.Push(isa.ESI)
	// WriteProcessMemory(victim, remote, payload, n)
	injector.Text.Mov(isa.EBX, isa.EBP)
	injector.Text.Mov(isa.ECX, isa.ESI)
	injector.Text.Movi(isa.EDX, injector.MustDataVA("payload"))
	injector.Text.Movi(isa.ESI, uint32(len(payload)))
	injector.CallImport("WriteProcessMemory")
	// CreateRemoteThread(victim, remote)
	injector.Text.Pop(isa.ECX)
	injector.Text.Mov(isa.EBX, isa.EBP)
	injector.CallImport("CreateRemoteThread")
	injector.Text.Movi(isa.EBX, 0)
	injector.CallImport("ExitProcess")
	buildAndInstall(t, k, injector, "inject.exe")

	if _, err := k.Spawn("victim.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("inject.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range k.Console {
		if strings.Contains(line, "pwned by remote thread") && strings.Contains(line, "victim.exe") {
			found = true
		}
	}
	if !found {
		t.Errorf("console = %v", k.Console)
	}
}

func TestFaultKillsProcess(t *testing.T) {
	k := newTestKernel(t)
	b := peimg.NewBuilder("crash.exe")
	b.Text.Movi(isa.EBX, 0x66660000)
	b.Text.Ld(isa.EAX, isa.EBX, 0) // unmapped
	buildAndInstall(t, k, b, "crash.exe")
	p, err := k.Spawn("crash.exe", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if p.State != StateDead || p.KillReason == "" {
		t.Errorf("state=%v reason=%q", p.State, p.KillReason)
	}
}

func TestKeyboardDevice(t *testing.T) {
	k := newTestKernel(t)
	b := peimg.NewBuilder("keys.exe")
	bufVA := b.BSS(64)
	b.Text.Label("poll")
	b.Text.Movi(isa.EBX, bufVA)
	b.Text.Movi(isa.ECX, 32)
	b.CallImport("ReadKeyboard")
	b.Text.Cmpi(isa.EAX, 0)
	b.Text.Jnz("got")
	b.Text.Movi(isa.EBX, 50)
	b.CallImport("Sleep")
	b.Text.Jmp("poll")
	b.Text.Label("got")
	b.Text.Movi(isa.EBX, bufVA)
	b.CallImport("DebugPrint")
	b.Text.Movi(isa.EBX, 0)
	b.CallImport("ExitProcess")
	buildAndInstall(t, k, b, "keys.exe")
	if _, err := k.Spawn("keys.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	k.ScheduleEvent(record.Event{At: 3000, Kind: record.EvKeyboard, Data: []byte("typed\x00")})
	if _, err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(k.Console) != 1 || !strings.Contains(k.Console[0], "typed") {
		t.Errorf("console = %v", k.Console)
	}
}

func TestRecordReplayDeterminism(t *testing.T) {
	build := func() *Kernel {
		k := newTestKernel(t)
		buildAndInstall(t, k, downloadProgram(64), "dl.exe")
		return k
	}

	// Record.
	k1 := build()
	k1.Net.AddEndpoint(gnet.Addr{IP: "10.0.0.9", Port: 80}, payloadEndpoint{payload: []byte("recorded-payload\x00")})
	rec := record.NewRecorder("determinism")
	k1.SetRecorder(rec)
	if _, err := k1.Spawn("dl.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	sum1, err := k1.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	log := rec.Finish(sum1.Instructions)
	if len(log.Events) == 0 {
		t.Fatal("nothing recorded")
	}

	// Replay (no endpoints registered).
	k2 := build()
	k2.EnableReplay(log)
	if _, err := k2.Spawn("dl.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	sum2, err := k2.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}

	if sum1.Instructions != sum2.Instructions {
		t.Errorf("instruction counts differ: %d vs %d", sum1.Instructions, sum2.Instructions)
	}
	if len(k1.Console) != len(k2.Console) {
		t.Fatalf("console diverged: %v vs %v", k1.Console, k2.Console)
	}
	for i := range k1.Console {
		if k1.Console[i] != k2.Console[i] {
			t.Errorf("console[%d]: %q vs %q", i, k1.Console[i], k2.Console[i])
		}
	}
	// Replay serialization round trip through the trace codec.
	raw, _, err := trace.EncodeLog(trace.Meta{}, log)
	if err != nil {
		t.Fatal(err)
	}
	_, log2, err := trace.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(log2.Events) != len(log.Events) {
		t.Error("log round trip lost events")
	}
}

func TestSyscallAndProcHooksFire(t *testing.T) {
	k := newTestKernel(t)
	buildAndInstall(t, k, helloProgram("h.exe", "x"), "h.exe")
	var calls []uint32
	var procEvents []ProcEventKind
	k.OnSyscall(func(_ *Process, no uint32, _ [4]uint32) { calls = append(calls, no) })
	k.OnProcEvent(func(_ *Process, ev ProcEventKind) { procEvents = append(procEvents, ev) })
	if _, err := k.Spawn("h.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != SysDebugPrint || calls[1] != SysExitProcess {
		t.Errorf("calls = %v", calls)
	}
	wantEvents := []ProcEventKind{ProcImageLoaded, ProcCreated, ProcExited}
	if len(procEvents) != len(wantEvents) {
		t.Fatalf("proc events = %v", procEvents)
	}
	for i := range wantEvents {
		if procEvents[i] != wantEvents[i] {
			t.Errorf("event[%d] = %v, want %v", i, procEvents[i], wantEvents[i])
		}
	}
}

func TestUnmapSectionRemovesImage(t *testing.T) {
	k := newTestKernel(t)
	buildAndInstall(t, k, helloProgram("t.exe", "x"), "t.exe")
	p, err := k.Spawn("t.exe", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	imageVADs := 0
	for _, v := range p.VADs {
		if v.Kind == VADImage {
			imageVADs++
		}
	}
	if imageVADs == 0 {
		t.Fatal("no image VADs after load")
	}
	// Unmap via the syscall path from a second "attacker" process context —
	// call the kernel internals directly.
	ret := k.sysUnmapSection(p, [4]uint32{0, UserImageBase + peimg.TextOff, 0, 0})
	if ret == ErrRet {
		t.Fatal("unmap failed")
	}
	for _, v := range p.VADs {
		if v.Kind == VADImage {
			t.Errorf("image VAD survived: %v", v)
		}
	}
	if _, mapped := p.Space.FrameOf(UserImageBase + peimg.TextOff); mapped {
		t.Error("text still mapped")
	}
}

// ResolveAPI resolves an API name to its VA, as the loader does.
func (k *Kernel) ResolveAPI(name string) (uint32, bool) {
	va, ok := k.apiAddr[peimg.HashName(name)]
	return va, ok
}

// APIName returns the exported API name at va, if any.
func (k *Kernel) APIName(va uint32) (string, bool) {
	for _, name := range k.entryNames {
		if k.apiAddr[peimg.HashName(name)] == va {
			return name, true
		}
	}
	return "", false
}

func TestSyscallNameAndAPIName(t *testing.T) {
	if SyscallName(SysWriteVM) != "NtWriteVirtualMemory" {
		t.Error("SyscallName broken")
	}
	if SyscallName(9999) != "NtUnknown" {
		t.Error("unknown syscall name")
	}
	k := newTestKernel(t)
	va, ok := k.ResolveAPI("VirtualAlloc")
	if !ok {
		t.Fatal("VirtualAlloc missing")
	}
	name, ok := k.APIName(va)
	if !ok || name != "VirtualAlloc" {
		t.Errorf("APIName = %q, %v", name, ok)
	}
}

func TestBadSyscallNumber(t *testing.T) {
	k := newTestKernel(t)
	b := peimg.NewBuilder("bad.exe")
	b.Text.Movi(isa.EAX, 9999)
	b.Text.Raw(isa.Instruction{Op: isa.OpSyscall, Mode: isa.ModeNone})
	b.Text.Movi(isa.EBX, 0)
	b.CallImport("ExitProcess")
	buildAndInstall(t, k, b, "bad.exe")
	if _, err := k.Spawn("bad.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(100_000); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range k.Console {
		if strings.Contains(line, "bad syscall") {
			found = true
		}
	}
	if !found {
		t.Errorf("console = %v", k.Console)
	}
}
