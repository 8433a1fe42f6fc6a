package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faros/internal/samples"
)

// TestScenarioFileEndToEnd: a user-authored scenario (JSON + text-assembly
// payload) goes through the full detection workflow.
func TestScenarioFileEndToEnd(t *testing.T) {
	dir := t.TempDir()
	payload := `
; user shellcode: one export-table read, then exit via the stub.
entry:
  MOV ECX, 0x7FF00000
  LD  EDX, [ECX]
  MOV EBX, 0
  MOV EDI, 0x7FE00000
  CALL EDI
`
	if err := os.WriteFile(filepath.Join(dir, "payload.s"), []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "attack.json"), []byte(`{
	  "name": "user_authored_attack",
	  "victim": "winver.exe",
	  "injector": "mydropper.exe",
	  "payload_asm": "payload.s",
	  "attacker": {"ip": "198.51.100.7", "port": 1337}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	spec, err := samples.LoadScenarioFile(filepath.Join(dir, "attack.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flagged() {
		t.Fatalf("user scenario not flagged; console=%v", res.Console)
	}
	fd := res.Faros.Findings()[0]
	if fd.ProcName != "winver.exe" {
		t.Errorf("flagged in %s", fd.ProcName)
	}
	prov := res.Faros.T.Render(fd.InstrProv)
	for _, want := range []string{"198.51.100.7:1337", "mydropper.exe", "winver.exe"} {
		if !strings.Contains(prov, want) {
			t.Errorf("provenance missing %q: %s", want, prov)
		}
	}
}
