package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faros/internal/core"
	"faros/internal/samples"
)

var updateFindingsGolden = flag.Bool("update-golden", false, "rewrite the testdata/*_corpus.txt goldens")

// corpusSpecs is every built-in scenario (the 133 the facade's Scenarios
// registry serves) followed by the six Table V applications.
func corpusSpecs() []samples.Spec {
	var specs []samples.Spec
	specs = append(specs, samples.Attacks()...)
	specs = append(specs, samples.TransientReflective())
	specs = append(specs, samples.EvasionScenarios()...)
	specs = append(specs, samples.JITWorkloads()...)
	specs = append(specs, samples.BenignPrograms()...)
	specs = append(specs, samples.MalwareCorpus()...)
	for _, w := range samples.PerfWorkloads() {
		specs = append(specs, w.Spec)
	}
	return specs
}

// renderFindings is one scenario's block of the findings golden: the
// engine's policy counters, then one row per finding with the fields that
// identify it (rule, pid, pc, target, resolved API, provenance IDs).
func renderFindings(sb *strings.Builder, label string, res *Result) {
	st := res.Faros.Stats()
	fmt.Fprintf(sb, "%s instructions=%d loads_checked=%d export_reads=%d findings=%d\n",
		label, st.Instructions, st.LoadsChecked, st.ExportReads, len(res.Findings()))
	for _, fd := range res.Findings() {
		api := fd.ResolvedAPI
		if api == "" {
			api = "-"
		}
		fmt.Fprintf(sb, "  %s pid=%d pc=%08x target=%08x api=%s instr_prov=%d target_prov=%d\n",
			fd.Rule, fd.PID, fd.InstrAddr, fd.TargetAddr, api, fd.InstrProv, fd.TargetProv)
	}
}

// TestFindingsCorpusGolden pins every finding over the whole corpus under
// the default policy (through Detect, the service's detect path) and under
// StrictExecCheck (a live FAROS run). Engine optimizations must leave it
// byte-identical. Each run is released before the next, as farosd does, so
// every run after the first executes on recycled guest memory. Regenerate
// deliberately with
//
//	go test ./internal/scenario -run TestFindingsCorpusGolden -update-golden
func TestFindingsCorpusGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus")
	}
	var sb strings.Builder
	for _, spec := range corpusSpecs() {
		res, err := Detect(spec)
		if err != nil {
			t.Fatalf("%s: detect: %v", spec.Name, err)
		}
		renderFindings(&sb, spec.Name+" default", res)
		strict, err := RunLive(spec, Plugins{Faros: &core.Config{StrictExecCheck: true}})
		if err != nil {
			t.Fatalf("%s: strict: %v", spec.Name, err)
		}
		renderFindings(&sb, spec.Name+" strict", strict)
		res.Release()
		strict.Release()
	}
	checkGolden(t, filepath.Join("testdata", "findings_corpus.txt"), sb.String())
}

// checkGolden compares got against the golden file at path, rewriting the
// file first under -update-golden, and reports the first drifted line.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateFindingsGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update-golden to create)", path, err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s drifted at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted: %d lines, want %d", path, len(gl), len(wl))
	}
}
