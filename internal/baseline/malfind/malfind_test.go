package malfind

import (
	"strings"
	"testing"

	"faros/internal/guest"
	"faros/internal/isa"
	"faros/internal/mem"
	"faros/internal/peimg"
)

func spawnIdle(t *testing.T, k *guest.Kernel, name string) *guest.Process {
	t.Helper()
	b := peimg.NewBuilder(name)
	b.Text.Label("spin")
	b.Text.Movi(isa.EBX, 100)
	b.CallImport("Sleep")
	b.Text.Jmp("spin")
	raw, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	k.FS.Install(name, raw)
	p, err := k.Spawn(name, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScanCleanSystem(t *testing.T) {
	k, err := guest.NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	spawnIdle(t, k, "clean.exe")
	r := Scan(k)
	if r.Flagged() {
		t.Errorf("clean process flagged: %+v", r.Hits)
	}
	if len(r.PSList) != 1 || !strings.Contains(r.PSList[0], "clean.exe") {
		t.Errorf("pslist = %v", r.PSList)
	}
	if len(r.VADInfo) == 0 {
		t.Error("no vadinfo")
	}
	if !strings.Contains(r.String(), "no suspicious regions") {
		t.Error("clean render broken")
	}
}

// plantRWX maps an RWX private region in the process and writes content
// into it, simulating what an injector leaves behind.
func plantRWX(t *testing.T, k *guest.Kernel, p *guest.Process, content []byte) uint32 {
	t.Helper()
	const base = 0x30000000
	if err := p.Space.Map(base, mem.PagesSpanned(base, uint32(len(content)))+1, mem.PermRWX); err != nil {
		t.Fatal(err)
	}
	p.AddVAD(guest.VAD{Base: base, Size: 0x2000, Perm: mem.PermRWX, Kind: guest.VADPrivate})
	if err := p.Space.WriteBytes(base, content); err != nil {
		t.Fatal(err)
	}
	_ = k
	return base
}

func TestScanFindsInjectedCode(t *testing.T) {
	k, err := guest.NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	p := spawnIdle(t, k, "victim.exe")
	code := isa.NewBlock().Movi(isa.EAX, 1).Movi(isa.EBX, 2).Add(isa.EAX, isa.EBX).Ret().MustAssemble(0)
	base := plantRWX(t, k, p, code)
	r := Scan(k)
	if !r.Flagged() {
		t.Fatal("injected code not found")
	}
	hit := r.Hits[0]
	if hit.Base != base || hit.Proc != "victim.exe" || !strings.Contains(hit.Reason, "valid code") {
		t.Errorf("hit = %+v", hit)
	}
	if !strings.Contains(hit.Preview, "MOV EAX") {
		t.Errorf("preview = %q", hit.Preview)
	}
	if !strings.Contains(r.String(), "malfind: victim.exe") {
		t.Errorf("render = %s", r.String())
	}
}

func TestScanFindsImageHeader(t *testing.T) {
	k, err := guest.NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	p := spawnIdle(t, k, "victim.exe")
	img := &peimg.Image{Name: "evil.dll", Base: 0x40000000}
	raw, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	plantRWX(t, k, p, raw)
	r := Scan(k)
	if !r.Flagged() || !strings.Contains(r.Hits[0].Reason, "MZ32 image header") {
		t.Errorf("hits = %+v", r.Hits)
	}
}

func TestScanMissesErasedPayload(t *testing.T) {
	// The transient-attack blind spot: a zeroed region head is invisible.
	k, err := guest.NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	p := spawnIdle(t, k, "victim.exe")
	plantRWX(t, k, p, make([]byte, 64))
	r := Scan(k)
	if r.Flagged() {
		t.Errorf("zeroed region flagged: %+v", r.Hits)
	}
}

func TestScanIgnoresNonExecutableAndImageRegions(t *testing.T) {
	k, err := guest.NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	p := spawnIdle(t, k, "victim.exe")
	code := isa.NewBlock().Movi(isa.EAX, 1).Movi(isa.EBX, 2).Add(isa.EAX, isa.EBX).Ret().MustAssemble(0)
	// rw- private data containing code bytes: not suspicious to malfind.
	const base = 0x31000000
	if err := p.Space.Map(base, 1, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	p.AddVAD(guest.VAD{Base: base, Size: 0x1000, Perm: mem.PermRW, Kind: guest.VADPrivate})
	if err := p.Space.WriteBytes(base, code); err != nil {
		t.Fatal(err)
	}
	r := Scan(k)
	if r.Flagged() {
		t.Errorf("rw- region flagged: %+v", r.Hits)
	}
}
