package guest

import (
	"strings"
	"testing"

	"faros/internal/isa"
	"faros/internal/peimg"
)

func TestRegistryUnit(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Get(`HKLM\SYSTEM\ComputerName`); !ok {
		t.Error("seed key missing")
	}
	r.Set(`HKCU\Software\WinMini\Run\evil.exe`, "evil.exe")
	if v, ok := r.Get(`HKCU\Software\WinMini\Run\evil.exe`); !ok || v != "evil.exe" {
		t.Errorf("get = %q, %v", v, ok)
	}
	if !r.Delete(`HKCU\Software\WinMini\Run\evil.exe`) {
		t.Error("delete failed")
	}
	if r.Delete("nope") {
		t.Error("deleted missing key")
	}
	keys := r.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Errorf("keys unsorted: %v", keys)
		}
	}
	if len(r.Journal) != 2 {
		t.Errorf("journal = %v", r.Journal)
	}
}

func TestRegistrySyscalls(t *testing.T) {
	k := newTestKernel(t)
	b := peimg.NewBuilder("reg.exe")
	b.DataBlk.Label("key").DataString(`HKCU\Software\Test\Value`)
	b.DataBlk.Label("val").DataString("payload-42")
	b.DataBlk.Label("syskey").DataString(`HKLM\SYSTEM\ComputerName`)
	buf := b.BSS(64)

	// Set, then query back and print.
	b.Text.Movi(isa.EBX, b.MustDataVA("key"))
	b.Text.Movi(isa.ECX, b.MustDataVA("val"))
	b.CallImport("RegSetValueA")
	b.Text.Movi(isa.EBX, b.MustDataVA("key"))
	b.Text.Movi(isa.ECX, buf)
	b.Text.Movi(isa.EDX, 64)
	b.CallImport("RegQueryValueA")
	b.Text.Movi(isa.EBX, buf)
	b.CallImport("DebugPrint")
	// Query a seeded system key.
	b.Text.Movi(isa.EBX, b.MustDataVA("syskey"))
	b.Text.Movi(isa.ECX, buf)
	b.Text.Movi(isa.EDX, 64)
	b.CallImport("RegQueryValueA")
	b.Text.Movi(isa.EBX, buf)
	b.CallImport("DebugPrint")
	// Delete and re-query (must fail).
	b.Text.Movi(isa.EBX, b.MustDataVA("key"))
	b.CallImport("RegDeleteValueA")
	b.Text.Movi(isa.EBX, b.MustDataVA("key"))
	b.Text.Movi(isa.ECX, buf)
	b.Text.Movi(isa.EDX, 64)
	b.CallImport("RegQueryValueA")
	b.Text.Mov(isa.EBX, isa.EAX)
	b.CallImport("ExitProcess") // exit = query-after-delete result
	buildAndInstall(t, k, b, "reg.exe")

	p, err := k.Spawn("reg.exe", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(200_000); err != nil {
		t.Fatal(err)
	}
	if len(k.Console) != 2 ||
		!strings.Contains(k.Console[0], "payload-42") ||
		!strings.Contains(k.Console[1], "VICTIM-PC") {
		t.Errorf("console = %v", k.Console)
	}
	if p.ExitCode != ErrRet {
		t.Errorf("query after delete = %#x", p.ExitCode)
	}
	if len(k.Reg.Journal) != 2 {
		t.Errorf("registry journal = %v", k.Reg.Journal)
	}
}

func TestRegistryQueryBufferTooSmall(t *testing.T) {
	k := newTestKernel(t)
	b := peimg.NewBuilder("small.exe")
	b.DataBlk.Label("syskey").DataString(`HKLM\SYSTEM\ComputerName`)
	buf := b.BSS(4)
	b.Text.Movi(isa.EBX, b.MustDataVA("syskey"))
	b.Text.Movi(isa.ECX, buf)
	b.Text.Movi(isa.EDX, 4) // "VICTIM-PC" does not fit
	b.CallImport("RegQueryValueA")
	b.Text.Mov(isa.EBX, isa.EAX)
	b.CallImport("ExitProcess")
	buildAndInstall(t, k, b, "small.exe")
	p, err := k.Spawn("small.exe", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if p.ExitCode != ErrRet {
		t.Errorf("small buffer query = %#x", p.ExitCode)
	}
}
