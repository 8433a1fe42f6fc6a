package cuckoo

import (
	"strings"
	"testing"

	"faros/internal/guest"
	"faros/internal/guest/gnet"
	"faros/internal/isa"
	"faros/internal/peimg"
)

func install(t *testing.T, k *guest.Kernel, b *peimg.Builder, path string) {
	t.Helper()
	raw, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	k.FS.Install(path, raw)
}

type silent struct{}

func (silent) OnConnect(gnet.Flow) []gnet.Reply      { return nil }
func (silent) OnData(gnet.Flow, []byte) []gnet.Reply { return nil }

func TestSandboxObservesBehaviour(t *testing.T) {
	k, err := guest.NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	sb := Attach(k)
	k.Net.AddEndpoint(gnet.Addr{IP: "10.1.1.1", Port: 443}, silent{})

	b := peimg.NewBuilder("busy.exe")
	b.DataBlk.Label("ip").DataString("10.1.1.1")
	b.DataBlk.Label("out").DataString("dropped.txt")
	b.DataBlk.Label("dll").DataString("helper.dll")
	b.CallImport("Socket")
	b.Text.Mov(isa.EBP, isa.EAX)
	b.Text.Mov(isa.EBX, isa.EBP)
	b.Text.Movi(isa.ECX, b.MustDataVA("ip"))
	b.Text.Movi(isa.EDX, 443)
	b.CallImport("Connect")
	b.Text.Movi(isa.EBX, b.MustDataVA("out"))
	b.CallImport("CreateFileA")
	b.Text.Movi(isa.EBX, b.MustDataVA("dll"))
	b.CallImport("LoadLibraryA") // fails (no such file) but is observed
	b.Text.Movi(isa.EBX, 0)
	b.CallImport("ExitProcess")
	install(t, k, b, "busy.exe")
	if _, err := k.Spawn("busy.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(100_000); err != nil {
		t.Fatal(err)
	}

	r := sb.Analyze()
	if len(r.Processes) != 1 {
		t.Fatalf("report = %+v", r)
	}
	pr := r.Processes[0]
	if len(pr.Netflows) != 1 || pr.Netflows[0] != "10.1.1.1:443" {
		t.Errorf("netflows = %v", pr.Netflows)
	}
	if len(pr.FilesWrote) != 1 || pr.FilesWrote[0] != "dropped.txt" {
		t.Errorf("files = %v", pr.FilesWrote)
	}
	if len(pr.LoadedDLLs) != 1 || pr.LoadedDLLs[0] != "helper.dll" {
		t.Errorf("dlls = %v", pr.LoadedDLLs)
	}
	if !strings.Contains(strings.Join(pr.APICalls, ","), "NtConnect") {
		t.Errorf("api calls = %v", pr.APICalls)
	}
	if r.FlaggedInjection() {
		t.Error("benign program flagged")
	}
	out := r.String()
	for _, want := range []string{"busy.exe", "10.1.1.1:443", "dropped.txt"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSandboxFlagsInjectionAPISequence(t *testing.T) {
	k, err := guest.NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	sb := Attach(k)

	victim := peimg.NewBuilder("victim.exe")
	victim.Text.Label("spin")
	victim.Text.Movi(isa.EBX, 100)
	victim.CallImport("Sleep")
	victim.Text.Jmp("spin")
	install(t, k, victim, "victim.exe")

	inj := peimg.NewBuilder("inj.exe")
	inj.DataBlk.Label("v").DataString("victim.exe")
	inj.DataBlk.Label("code").Data(isa.NewBlock().Nop().Ret().MustAssemble(0))
	inj.Text.Movi(isa.EBX, inj.MustDataVA("v"))
	inj.CallImport("FindProcessA")
	inj.Text.Mov(isa.EBX, isa.EAX)
	inj.CallImport("OpenProcess")
	inj.Text.Mov(isa.EBP, isa.EAX)
	inj.Text.Mov(isa.EBX, isa.EBP)
	inj.Text.Movi(isa.ECX, 0)
	inj.Text.Movi(isa.EDX, 16)
	inj.Text.Movi(isa.ESI, 7)
	inj.CallImport("VirtualAlloc")
	inj.Text.Mov(isa.ECX, isa.EAX)
	inj.Text.Mov(isa.EBX, isa.EBP)
	inj.Text.Movi(isa.EDX, inj.MustDataVA("code"))
	inj.Text.Movi(isa.ESI, 16)
	inj.CallImport("WriteProcessMemory")
	inj.Text.Movi(isa.ECX, 0x20000000)
	inj.Text.Mov(isa.EBX, isa.EBP)
	inj.CallImport("CreateRemoteThread")
	inj.Text.Movi(isa.EBX, 0)
	inj.CallImport("ExitProcess")
	install(t, k, inj, "inj.exe")

	if _, err := k.Spawn("victim.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("inj.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(500_000); err != nil {
		t.Fatal(err)
	}
	r := sb.Analyze()
	if !r.FlaggedInjection() {
		t.Errorf("API sequence not flagged: %s", r.String())
	}
	// The verdict must admit it cannot identify the payload.
	joined := strings.Join(r.Verdicts, "\n")
	if !strings.Contains(joined, "unknown") {
		t.Errorf("verdict overclaims: %v", r.Verdicts)
	}
}
