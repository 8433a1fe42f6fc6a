package samples

import (
	"slices"
	"strings"
	"testing"

	"faros/internal/isa"
	"faros/internal/peimg"
)

// AllBehaviors returns the Table IV columns in order.
func AllBehaviors() []Behavior {
	return []Behavior{BIdle, BRun, BAudioRecord, BFileTransfer, BKeylogger, BRemoteDesktop, BUpload, BDownload, BRemoteShell}
}

func TestAllAttackSpecsBuild(t *testing.T) {
	attacks := Attacks()
	if len(attacks) != 6 {
		t.Fatalf("attacks = %d, want 6 (paper evaluates six samples)", len(attacks))
	}
	seen := make(map[string]bool)
	for _, spec := range attacks {
		if seen[spec.Name] {
			t.Errorf("duplicate scenario name %q", spec.Name)
		}
		seen[spec.Name] = true
		if !spec.ExpectFlag {
			t.Errorf("%s: attack not expected to flag", spec.Name)
		}
		if len(spec.Programs) == 0 || len(spec.AutoStart) == 0 {
			t.Errorf("%s: empty program set", spec.Name)
		}
		for _, p := range spec.Programs {
			img, err := peimg.Unmarshal(p.Bytes)
			if err != nil {
				t.Errorf("%s/%s: bad image: %v", spec.Name, p.Path, err)
				continue
			}
			if !slices.ContainsFunc(img.Sections, func(s peimg.Section) bool { return s.Name == ".text" }) {
				t.Errorf("%s/%s: no text section", spec.Name, p.Path)
			}
		}
	}
}

func TestPayloadsArePositionIndependentCode(t *testing.T) {
	specs := []PayloadSpec{
		{Message: "m"},
		{Message: "m", SecondStage: true},
		{Message: "m", SelfErase: true},
		{Keylog: "k.log"},
		{ConnectBack: &AttackerShellAddr, Beacon: "b"},
	}
	for i, ps := range specs {
		payload := BuildPayload(ps)
		if len(payload) == 0 || len(payload)%1 != 0 {
			t.Fatalf("spec %d: empty payload", i)
		}
		// The payload head must decode as code (it starts with a jump over
		// the resolver).
		if !isa.LooksLikeCode(payload, 4) {
			t.Errorf("spec %d: head is not code:\n%s", i, isa.DisasmBytes(payload[:32], 0))
		}
		in, err := isa.Decode(payload[:isa.InstrSize])
		if err != nil || in.Op != isa.OpJmp || in.Mode != isa.ModeRel {
			t.Errorf("spec %d: payload must start with a relative jump, got %v", i, in)
		}
	}
}

func TestPayloadContainsNoAbsoluteSelfReferences(t *testing.T) {
	// Assembling at two different bases must produce identical bytes —
	// true position independence.
	a := BuildPayload(PayloadSpec{Message: "x", SecondStage: true})
	b := BuildPayload(PayloadSpec{Message: "x", SecondStage: true})
	if string(a) != string(b) {
		t.Error("payload build not deterministic")
	}
}

func TestJITWorkloadsShape(t *testing.T) {
	specs := JITWorkloads()
	if len(specs) != 20 {
		t.Fatalf("JIT workloads = %d, want 20 (Table III)", len(specs))
	}
	leaky := 0
	for _, s := range specs {
		if s.ExpectFlag {
			leaky++
		}
	}
	if leaky != 2 {
		t.Errorf("leaky workloads = %d, want 2", leaky)
	}
	if len(JavaApplets()) != 10 || len(AJAXSites()) != 10 {
		t.Error("Table III lists 10 applets and 10 sites")
	}
	for name := range LeakyApplets() {
		found := false
		for _, a := range JavaApplets() {
			if a == name {
				found = true
			}
		}
		if !found {
			t.Errorf("leaky applet %q not in applet list", name)
		}
	}
}

func TestMalwareCorpusShape(t *testing.T) {
	corpus := MalwareCorpus()
	if len(corpus) != CorpusSize {
		t.Fatalf("corpus = %d, want %d", len(corpus), CorpusSize)
	}
	names := make(map[string]bool)
	for _, spec := range corpus {
		if spec.ExpectFlag {
			t.Errorf("%s: corpus sample must not expect a flag", spec.Name)
		}
		if names[spec.Name] {
			t.Errorf("duplicate corpus name %q", spec.Name)
		}
		names[spec.Name] = true
		for _, p := range spec.Programs {
			if _, err := peimg.Unmarshal(p.Bytes); err != nil {
				t.Errorf("%s: bad image: %v", spec.Name, err)
			}
		}
	}
	fams := MalwareFamilies()
	if len(fams) != 17 {
		t.Errorf("families = %d, want 17 (Table IV rows)", len(fams))
	}
	for _, f := range fams {
		if len(f.Behaviors) == 0 {
			t.Errorf("family %s has no behaviours", f.Name)
		}
	}
}

func TestBenignProgramsShape(t *testing.T) {
	specs := BenignPrograms()
	if len(specs) != 14 {
		t.Fatalf("benign programs = %d, want 14", len(specs))
	}
	for _, s := range specs {
		if s.ExpectFlag {
			t.Errorf("%s expects a flag", s.Name)
		}
	}
}

func TestBehaviorStrings(t *testing.T) {
	for _, b := range AllBehaviors() {
		if b.String() == "" {
			t.Errorf("behaviour %d has no name", b)
		}
	}
	if len(AllBehaviors()) != 9 {
		t.Error("Table IV has 9 behaviour columns")
	}
}

func TestPerfWorkloadsShape(t *testing.T) {
	ws := PerfWorkloads()
	if len(ws) != 6 {
		t.Fatalf("perf workloads = %d, want 6 (Table V rows)", len(ws))
	}
	wantNames := []string{"Skype", "Team Viewer", "Bozok", "Spygate", "Pandora", "Remote Utility"}
	for i, w := range ws {
		if w.Display != wantNames[i] {
			t.Errorf("workload[%d] = %s, want %s", i, w.Display, wantNames[i])
		}
	}
}

func TestSeedFilesPresent(t *testing.T) {
	files := SeedFiles()
	for _, want := range []string{"document_0.txt", "secrets.txt"} {
		if _, ok := files[want]; !ok {
			t.Errorf("seed file %q missing", want)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("netflix.com/top100"); strings.ContainsAny(got, "./") {
		t.Errorf("sanitize = %q", got)
	}
	if got := sanitizeName("Blue Banana v2.0"); got != "blue_banana_v2_0" {
		t.Errorf("sanitizeName = %q", got)
	}
}

func TestMicrobenchWorkloadsBuild(t *testing.T) {
	for _, w := range []IndirectWorkload{Figure1Workload(), Figure2Workload(), OvertaintWorkload()} {
		if len(w.Spec.Programs) == 0 || w.Len == 0 {
			t.Errorf("%s: malformed workload", w.Spec.Name)
		}
		if w.SrcVA == 0 || w.DstVA == 0 {
			t.Errorf("%s: missing buffer addresses", w.Spec.Name)
		}
	}
}
