package experiments

import (
	"strings"
	"testing"

	"faros/internal/samples"
)

func TestNamesCoverEveryTableAndFigure(t *testing.T) {
	names := Names()
	want := []string{"detect", "table2", "fig7", "fig8", "fig9", "fig10",
		"table3", "table4", "table5", "perf", "cuckoo",
		"indirect", "ablate-addr", "ablate-proctag", "ablate-cap",
		"evasion", "chaos", "triage"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, _, err := figureWithGraph(11); err == nil {
		t.Error("figure 11 accepted")
	}
}

func TestDetectionExperiment(t *testing.T) {
	out, err := Detection()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reflective_dll_inject", "process_hollowing", "darkcomet", "njrat"} {
		if !strings.Contains(out, want) {
			t.Errorf("detection table missing %q", want)
		}
	}
	if strings.Count(out, "yes") < 6 {
		t.Errorf("not all attacks flagged:\n%s", out)
	}
	if strings.Contains(out, " no ") {
		t.Errorf("an attack was missed:\n%s", out)
	}
}

func TestFigureExperiments(t *testing.T) {
	for n := 7; n <= 10; n++ {
		out, _, err := figureWithGraph(n)
		if err != nil {
			t.Fatalf("fig %d: %v", n, err)
		}
		if !strings.Contains(out, "ExportTable") {
			t.Errorf("fig %d missing export-table read:\n%s", n, out)
		}
	}
	// Fig 8 is self-injection: exactly one process in the chain.
	out, _, _ := figureWithGraph(8)
	if strings.Count(out, "Process:") < 1 || strings.Contains(out, "notepad") {
		t.Errorf("fig 8 wrong chain:\n%s", out)
	}
	// Fig 10 has no netflow.
	out, _, _ = figureWithGraph(10)
	if strings.Contains(strings.SplitN(out, "reads", 2)[0], "NetFlow") {
		t.Errorf("fig 10 instruction provenance has netflow:\n%s", out)
	}
}

func TestTableIIExperiment(t *testing.T) {
	out, _, err := tableIIWithGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "169.254.26.161:4444") || !strings.Contains(out, "notepad.exe") {
		t.Errorf("table II:\n%s", out)
	}
}

func TestIndirectFlowsExperiment(t *testing.T) {
	out, err := IndirectFlows()
	if err != nil {
		t.Fatal(err)
	}
	// Fig 1 default: untainted; with addr deps: tainted. Fig 2: never.
	lines := strings.Split(out, "\n")
	var fig1Default, fig1Addr, fig2Addr string
	for _, l := range lines {
		switch {
		case strings.Contains(l, "fig1") && strings.Contains(l, "default"):
			fig1Default = l
		case strings.Contains(l, "fig1") && strings.Contains(l, "address deps"):
			fig1Addr = l
		case strings.Contains(l, "fig2") && strings.Contains(l, "address deps"):
			fig2Addr = l
		}
	}
	if !strings.Contains(fig1Default, "no") {
		t.Errorf("fig1 default should undertaint: %q", fig1Default)
	}
	if !strings.Contains(fig1Addr, "yes") {
		t.Errorf("fig1 with addr deps should taint: %q", fig1Addr)
	}
	if !strings.Contains(fig2Addr, "no") {
		t.Errorf("fig2 must evade even addr-dep propagation: %q", fig2Addr)
	}
}

func TestTableIIIExperiment(t *testing.T) {
	out, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "flagged 2/20") {
		t.Errorf("table III FP count wrong:\n%s", out)
	}
	// 20 workload rows (plus the title mentioning both kinds).
	for _, name := range []string{"acceleration", "equilibrium", "collision", "gmail.com", "brainking.com"} {
		if !strings.Contains(out, name) {
			t.Errorf("table III missing %q:\n%s", name, out)
		}
	}
}

func TestTableIVExperiment(t *testing.T) {
	out, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Pandora v2.2", "Quasar v1.0", "0.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table IV missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "total                  104      0") {
		t.Errorf("table IV totals wrong:\n%s", out)
	}
}

func TestPerfMeasurementShape(t *testing.T) {
	if testing.Short() {
		t.Skip("perf measurement in short mode")
	}
	row, err := MeasurePerf(samples.PerfWorkloads()[4]) // Pandora (smallest)
	if err != nil {
		t.Fatal(err)
	}
	if row.Slowdown <= 1.0 {
		t.Errorf("FAROS replay not slower than plain replay: %+v", row)
	}
	if row.Instructions == 0 || row.RecordedBytes == 0 {
		t.Errorf("row = %+v", row)
	}
}

func TestTableVExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("perf table in short mode")
	}
	out, err := TableV()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"Skype", "Team Viewer", "Bozok", "Spygate", "Pandora", "Remote Utility"} {
		if !strings.Contains(out, app) {
			t.Errorf("table V missing %q", app)
		}
	}
	if !strings.Contains(out, "average slowdown") {
		t.Errorf("table V summary missing:\n%s", out)
	}
}

func TestCuckooComparisonExperiment(t *testing.T) {
	out, err := CuckooComparison()
	if err != nil {
		t.Fatal(err)
	}
	// The transient variant must show: malfind no, FAROS yes.
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "transient_reflective") {
			fields := strings.Fields(l)
			// Attack, cuckoo, malfind, faros, ...
			if len(fields) < 4 || fields[2] != "no" || fields[3] != "yes" {
				t.Errorf("transient row wrong: %q", l)
			}
		}
		if strings.Contains(l, "process_hollowing") {
			if !strings.Contains(l, "full chronology") {
				t.Errorf("hollowing row wrong: %q", l)
			}
		}
	}
}

func TestEvasionExperiment(t *testing.T) {
	out, err := Evasion()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(l, "hardcoded API stub"):
			f := strings.Fields(l)
			// Default no, strict yes.
			if !containsInOrder(f, "no", "yes") {
				t.Errorf("stub row wrong: %q", l)
			}
		case strings.Contains(l, "bit-by-bit"):
			if strings.Contains(l, "yes") {
				t.Errorf("laundering row wrong: %q", l)
			}
		}
	}
}

func containsInOrder(fields []string, a, b string) bool {
	ai := -1
	for i, f := range fields {
		if f == a && ai == -1 {
			ai = i
		}
		if f == b && ai != -1 && i > ai {
			return true
		}
	}
	return false
}

func TestAblationExperiments(t *testing.T) {
	out, err := AblateProcTag()
	if err != nil {
		t.Fatal(err)
	}
	// With process tags off, detection of both attacks collapses.
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "proc tags off") {
			if !strings.Contains(l, "no") {
				t.Errorf("ablation row: %q", l)
			}
		}
		if strings.HasPrefix(l, "default") && strings.Contains(l, "no") {
			t.Errorf("default row must flag both: %q", l)
		}
	}

	out, err = AblateAddrDeps()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "addr-deps on") {
		t.Errorf("addr ablation:\n%s", out)
	}

	out, err = AblateListCap()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "no") {
		t.Errorf("detection must survive every cap:\n%s", out)
	}
}
