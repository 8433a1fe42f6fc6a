package scenario

import (
	"context"
	"strings"
	"testing"

	"faros/internal/core"
	"faros/internal/samples"
)

// TestAllSixAttacksFlagged is the reproduction's headline result: FAROS
// flags every in-memory injection attack of §VI, with the expected rule.
func TestAllSixAttacksFlagged(t *testing.T) {
	for _, spec := range samples.Attacks() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := RunLiveContext(context.Background(), spec, DetectPlugins(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Flagged() {
				t.Fatalf("not flagged; console=%v summary=%+v", res.Console, res.Summary)
			}
			fd := res.Faros.Findings()[0]
			if spec.ExpectRule != "" && fd.Rule != spec.ExpectRule {
				t.Errorf("rule = %s, want %s", fd.Rule, spec.ExpectRule)
			}
		})
	}
}

func TestReflectiveDLLProvenanceChain(t *testing.T) {
	res, err := RunLiveContext(context.Background(), samples.ReflectiveDLLInject(), DetectPlugins(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flagged() {
		t.Fatal("not flagged")
	}
	fd := res.Faros.Findings()[0]
	if fd.ProcName != "notepad.exe" {
		t.Errorf("flagged in %s", fd.ProcName)
	}
	prov := res.Faros.T.Render(fd.InstrProv)
	for _, want := range []string{"169.254.26.161:4444", "inject_client.exe", "notepad.exe"} {
		if !strings.Contains(prov, want) {
			t.Errorf("provenance missing %q: %s", want, prov)
		}
	}
	// The second stage must actually have run.
	found := false
	for _, mb := range res.MessageBoxes {
		if strings.Contains(mb, "reflective dll loaded") && strings.Contains(mb, "notepad.exe") {
			found = true
		}
	}
	if !found {
		t.Errorf("payload did not execute: %v", res.MessageBoxes)
	}
}

func TestHollowingKeyloggerWorksAndIsFlagged(t *testing.T) {
	res, err := RunLiveContext(context.Background(), samples.ProcessHollowing(), DetectPlugins(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flagged() {
		t.Fatal("hollowing not flagged")
	}
	fd := res.Faros.Findings()[0]
	if fd.Rule != core.RuleForeignCodeExport {
		t.Errorf("rule = %s", fd.Rule)
	}
	if fd.ProcName != "svchost.exe" {
		t.Errorf("flagged in %s", fd.ProcName)
	}
	prov := res.Faros.T.Render(fd.InstrProv)
	if strings.Contains(prov, "NetFlow") {
		t.Errorf("hollowing provenance must have no netflow (Fig 10): %s", prov)
	}
	// The keylogger must have captured the scripted keystrokes.
	if res.OSI == nil {
		t.Fatal("osi missing")
	}
	foundVictim := false
	for _, pi := range res.OSI.Processes() {
		if pi.Name == "svchost.exe" {
			foundVictim = true
		}
	}
	if !foundVictim {
		t.Error("svchost.exe never appeared")
	}
}

func TestRATShellsExecuteInVictim(t *testing.T) {
	res, err := RunLiveContext(context.Background(), samples.DarkComet(), DetectPlugins(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flagged() {
		t.Fatal("darkcomet not flagged")
	}
	// The reverse shell runs inside explorer.exe and echoes C2 commands.
	sawCmd := false
	for _, line := range res.Console {
		if strings.Contains(line, "explorer.exe") && strings.Contains(line, "whoami") {
			sawCmd = true
		}
	}
	if !sawCmd {
		t.Errorf("shell never echoed commands: %v", res.Console)
	}
}

func TestRecordReplayDetectionStable(t *testing.T) {
	spec := samples.ReverseTCPDNS()
	log, _, err := RecordContext(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ReplayContext(context.Background(), spec, log, Plugins{Faros: &core.Config{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ReplayContext(context.Background(), spec, log, Plugins{Faros: &core.Config{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Summary.Instructions != r2.Summary.Instructions {
		t.Errorf("replays diverged: %d vs %d", r1.Summary.Instructions, r2.Summary.Instructions)
	}
	if len(r1.Faros.Findings()) != len(r2.Faros.Findings()) {
		t.Errorf("finding counts diverged: %d vs %d", len(r1.Faros.Findings()), len(r2.Faros.Findings()))
	}
	// Live detection equals replay detection (determinism).
	live, err := RunLiveContext(context.Background(), spec, Plugins{Faros: &core.Config{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if live.Flagged() != r1.Flagged() {
		t.Error("live vs replay detection differs")
	}
}

func TestJITFalsePositiveRate(t *testing.T) {
	flagged := 0
	var flaggedNames []string
	for _, spec := range samples.JITWorkloads() {
		res, err := RunLiveContext(context.Background(), spec, Plugins{Faros: &core.Config{}}, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Flagged() != spec.ExpectFlag {
			t.Errorf("%s: flagged=%v want %v", spec.Name, res.Flagged(), spec.ExpectFlag)
		}
		if res.Flagged() {
			flagged++
			flaggedNames = append(flaggedNames, spec.Name)
		}
		// Each workload's generated code must actually run.
		ran := false
		for _, line := range res.Console {
			if strings.Contains(line, "jit:") {
				ran = true
			}
		}
		if !ran {
			t.Errorf("%s: JIT output missing; console=%v", spec.Name, res.Console)
		}
	}
	if flagged != 2 {
		t.Errorf("JIT false positives = %d (%v), paper reports 2/20", flagged, flaggedNames)
	}
}

func TestBenignCorpusZeroFalsePositives(t *testing.T) {
	for _, spec := range samples.BenignPrograms() {
		res, err := RunLiveContext(context.Background(), spec, Plugins{Faros: &core.Config{}}, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Flagged() {
			t.Errorf("%s: false positive:\n%s", spec.Name, res.Faros.Report())
		}
	}
}

func TestMalwareCorpusSampling(t *testing.T) {
	// The full 90-sample sweep runs in the Table IV bench; here a stride
	// samples every family at least once.
	corpus := samples.MalwareCorpus()
	for i := 0; i < len(corpus); i += 5 {
		spec := corpus[i]
		res, err := RunLiveContext(context.Background(), spec, Plugins{Faros: &core.Config{}}, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Flagged() {
			t.Errorf("%s: false positive:\n%s", spec.Name, res.Faros.Report())
		}
	}
}

func TestCuckooComparison(t *testing.T) {
	// §VI.B: the event baseline sees the API surface but has no provenance;
	// malfind finds persistent payloads but misses transient ones.
	persistent, err := RunLiveContext(context.Background(), samples.ReflectiveDLLInject(), DetectPlugins(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if persistent.Malfind == nil || !persistent.Malfind.Flagged() {
		t.Error("malfind should find the persistent reflective payload")
	}
	if persistent.Cuckoo == nil {
		t.Fatal("cuckoo report missing")
	}
	if persistent.Cuckoo.HasProvenance() || persistent.Malfind.HasProvenance() {
		t.Error("baselines claim provenance")
	}

	transient, err := RunLiveContext(context.Background(), samples.TransientReflective(), DetectPlugins(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !transient.Flagged() {
		t.Error("FAROS must flag the transient attack")
	}
	if transient.Malfind.Flagged() {
		t.Errorf("malfind found the self-erased payload: %+v", transient.Malfind.Hits)
	}
}
