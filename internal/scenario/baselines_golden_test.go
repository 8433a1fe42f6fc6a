package scenario

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestBaselineReportsGolden pins the baseline reports over the whole
// corpus: for every spec, the detect path's Cuckoo report, malfind report
// and OSI process list. findings_corpus.txt pins FAROS; this golden pins
// what the event sandbox, the snapshot scan and introspection report, so a
// rewrite of how they gather their inputs must leave it byte-identical.
// Runs are released in turn, as in TestFindingsCorpusGolden.
// Regenerate deliberately with
//
//	go test ./internal/scenario -run TestBaselineReportsGolden -update-golden
func TestBaselineReportsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus")
	}
	var sb strings.Builder
	for _, spec := range corpusSpecs() {
		res, err := Detect(spec)
		if err != nil {
			t.Fatalf("%s: detect: %v", spec.Name, err)
		}
		fmt.Fprintf(&sb, "### %s\n", spec.Name)
		sb.WriteString(res.Cuckoo.String())
		sb.WriteString(res.Malfind.String())
		sb.WriteString("== OSI process list ==\n")
		for _, pi := range res.OSI.Processes() {
			fmt.Fprintf(&sb, "pid=%d cr3=%#x parent=%d name=%s state=%s\n", pi.PID, pi.CR3, pi.Parent, pi.Name, pi.State)
		}
		res.Release()
	}
	checkGolden(t, filepath.Join("testdata", "baselines_corpus.txt"), sb.String())
}
