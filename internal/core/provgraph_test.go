package core

import (
	"reflect"
	"strings"
	"testing"

	"faros/internal/peimg"
	"faros/internal/provgraph"
	"faros/internal/samples"
	"faros/internal/taint"
)

// runInjection drives the end-to-end reflective-injection scenario and
// returns the attached engine after the run.
func runInjection(t *testing.T) *FAROS {
	t.Helper()
	k, f := newKernelWithFAROS(t, Config{})
	payload := exportWalkPayload(peimg.HashName("ExitProcess"))
	k.Net.AddEndpoint(attackerAddr, oneShotEndpoint{payload: payload})
	install(t, k, injectorProgram("inject_client.exe", "notepad.exe", uint32(len(payload))), "inject_client.exe")
	install(t, k, idleVictim("notepad.exe"), "notepad.exe")
	if _, err := k.Spawn("notepad.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("inject_client.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !f.Flagged() {
		t.Fatal("injection not flagged")
	}
	return f
}

func TestFindingsCarryProvGraph(t *testing.T) {
	f := runInjection(t)
	for _, fd := range f.Findings() {
		if fd.Prov == nil {
			t.Fatalf("finding %s has no graph", fd.Rule)
		}
		if err := fd.Prov.Validate(); err != nil {
			t.Fatal(err)
		}
		// The graph's chain text must reproduce the taint store's list
		// rendering byte for byte — the bit-identical guarantee every text
		// view relies on.
		instr := fd.Prov.ChainText(provgraph.RoleInstr)
		if len(instr) != 1 || instr[0] != f.T.Render(fd.InstrProv) {
			t.Fatalf("instr chain drift:\n got  %q\n want %q", instr, f.T.Render(fd.InstrProv))
		}
		if fd.Rule != RuleForeignCodeExec {
			target := fd.Prov.ChainText(provgraph.RoleTarget)
			if len(target) != 1 || target[0] != f.T.Render(fd.TargetProv) {
				t.Fatalf("target chain drift:\n got  %q\n want %q", target, f.T.Render(fd.TargetProv))
			}
		}
		// Edge metadata: every edge was first seen no later than the flag.
		for _, e := range fd.Prov.Edges {
			if e.FirstSeen != fd.At {
				t.Fatalf("edge first-seen %d != flag instr count %d", e.FirstSeen, fd.At)
			}
			if e.Bytes <= 0 || e.Count <= 0 {
				t.Fatalf("edge missing extent/count: %+v", e)
			}
		}
	}

	// The whole-run merge contains every per-finding graph.
	run := f.ProvGraph()
	if len(run.Nodes) == 0 || len(run.Edges) == 0 {
		t.Fatal("whole-run graph empty")
	}
	for _, fd := range f.Findings() {
		if !run.Contains(fd.Prov) {
			t.Fatalf("run graph does not contain %s finding graph", fd.Rule)
		}
	}

	st := f.Stats()
	if st.Prov.Builds == 0 || st.Prov.Nodes == 0 || st.Prov.Edges == 0 {
		t.Fatalf("prov graph counters not populated: %+v", st)
	}
}

// taintMapReference is the original per-byte walk, kept as the reference
// model for the page-skipping TaintMap.
func taintMapReference(f *FAROS) []TaintRegion {
	var out []TaintRegion
	for _, p := range f.k.Processes() {
		for _, vad := range p.VADs {
			tr := TaintRegion{PID: p.PID, Proc: p.Name, Region: vad.String()}
			for off := uint32(0); off < vad.Size; off++ {
				pa, ok := physAt(p.Space, vad.Base+off)
				if !ok {
					continue
				}
				if id := f.T.MemGet(pa); id != 0 {
					if tr.TaintedBytes == 0 {
						tr.Sample = id
					}
					tr.TaintedBytes++
				}
			}
			if tr.TaintedBytes > 0 {
				out = append(out, tr)
			}
		}
	}
	return out
}

func TestTaintMapMatchesPerByteReference(t *testing.T) {
	f := runInjection(t)
	got := f.TaintMap()
	want := taintMapReference(f)
	if len(got) != len(want) {
		t.Fatalf("region count: got %d want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.PID != w.PID || g.Proc != w.Proc || g.Region != w.Region ||
			g.TaintedBytes != w.TaintedBytes || g.Sample != w.Sample {
			t.Fatalf("region %d drift:\n got  %+v\n want %+v", i, g, w)
		}
		if g.Prov == nil {
			t.Fatalf("region %d has no graph", i)
		}
		if ts := g.Prov.ChainText(provgraph.RoleRegion); len(ts) != 1 || ts[0] != f.T.Render(g.Sample) {
			t.Fatalf("region %d chain drift: %q vs %q", i, ts, f.T.Render(g.Sample))
		}
	}
}

func TestRenderersFallBackWithoutGraph(t *testing.T) {
	f := runInjection(t)
	fd := f.Findings()[0]
	withGraph := f.RenderFinding(fd)
	fd.Prov = nil // hand-built finding (e.g. constructed in a test)
	if without := f.RenderFinding(fd); without != withGraph {
		t.Fatalf("graph and fallback renderings differ:\n%s\nvs\n%s", withGraph, without)
	}
	if !strings.Contains(withGraph, "NetFlow") {
		t.Fatalf("rendering missing provenance: %s", withGraph)
	}
}

func TestProvGraphEmptyRun(t *testing.T) {
	_, f := newKernelWithFAROS(t, Config{})
	g := f.ProvGraph()
	if g == nil || len(g.Nodes) != 0 || len(g.Edges) != 0 {
		t.Fatalf("clean run graph not canonical empty: %+v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var zero taint.ProvID
	if got := f.provText(nil, provgraph.RoleInstr, zero); got != "<untainted>" {
		t.Fatalf("fallback untainted render: %q", got)
	}
}

// The tests below hold the engine's findings to what leaves the process:
// each finding's provenance graph, through provgraph's JSON and DOT
// encoders (the paper's §V.C output file and Figures 7–10).

// TestJSONExport: the reflective-injection finding's graph survives a JSON
// round trip, and its chains carry the paper's story: the instruction
// bytes arrived over the attacker's netflow and ended in notepad.exe, and
// the bytes they read are export-table tagged.
func TestJSONExport(t *testing.T) {
	f := runSpec(t, samples.ReflectiveDLLInject(), Config{})
	if !f.Flagged() {
		t.Fatal("not flagged")
	}
	fd := f.Findings()[0]
	if fd.Rule != RuleNetflowExport || fd.ProcName != "notepad.exe" {
		t.Errorf("finding = %s in %s", fd.Rule, fd.ProcName)
	}
	raw, err := fd.Prov.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := provgraph.FromJSON(raw)
	if err != nil {
		t.Fatalf("export does not decode: %v", err)
	}
	if !reflect.DeepEqual(back, fd.Prov) {
		t.Fatalf("JSON round trip changed the graph:\n%s", raw)
	}
	chain := func(role string) []provgraph.Node {
		for _, c := range back.Chains {
			if c.Role == role {
				nodes := make([]provgraph.Node, len(c.Nodes))
				for i, ni := range c.Nodes {
					nodes[i] = back.Nodes[ni]
				}
				return nodes
			}
		}
		t.Fatalf("no %s chain:\n%s", role, raw)
		return nil
	}
	// Chronological order: the netflow comes first.
	instr := chain(provgraph.RoleInstr)
	if len(instr) < 3 || instr[0].Kind != provgraph.KindNetflow || instr[0].Netflow == nil {
		t.Fatalf("instr chain = %+v", instr)
	}
	if instr[0].Netflow.SrcIP != "169.254.26.161" {
		t.Errorf("netflow = %+v", instr[0].Netflow)
	}
	if last := instr[len(instr)-1]; last.Kind != provgraph.KindProcess || last.Process == nil || last.Process.Name != "notepad.exe" {
		t.Errorf("last instr node = %+v", last)
	}
	if target := chain(provgraph.RoleTarget); len(target) == 0 || target[0].Kind != provgraph.KindExportTable {
		t.Errorf("target chain = %+v", target)
	}
}

// TestJSONExportCleanRun: a benign run flags nothing and its whole-run
// graph encodes as the canonical empty graph.
func TestJSONExportCleanRun(t *testing.T) {
	f := runSpec(t, samples.BenignPrograms()[9], Config{}) // calculator
	if f.Flagged() || len(f.Findings()) != 0 {
		t.Fatalf("clean run flagged: %d findings", len(f.Findings()))
	}
	raw, err := f.ProvGraph().JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := provgraph.FromJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != 0 || len(back.Edges) != 0 || len(back.Chains) != 0 {
		t.Errorf("clean run graph = %s", raw)
	}
}

// TestDOTExport: the finding's graph renders as a Graphviz digraph naming
// the netflow, both processes and the export table.
func TestDOTExport(t *testing.T) {
	f := runSpec(t, samples.ReflectiveDLLInject(), Config{})
	if !f.Flagged() {
		t.Fatal("not flagged")
	}
	dot := f.Findings()[0].Prov.DOT()
	for _, want := range []string{
		"digraph provgraph",
		"rankdir=LR",
		"NetFlow",
		"inject_client.exe",
		"notepad.exe",
		"shape=cylinder", // the export table
		"->",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Error("unbalanced DOT braces")
	}
}

// TestDOTExportExecRule: a StrictExecCheck finding flags execution, not a
// read, so its graph has no target chain and no export-table node, and
// its DOT rendering draws no export table.
func TestDOTExportExecRule(t *testing.T) {
	f := runSpec(t, samples.EvasionHardcodedStubs(), Config{StrictExecCheck: true})
	if !f.Flagged() {
		t.Fatal("not flagged")
	}
	fd := f.Findings()[0]
	if fd.Rule != RuleForeignCodeExec {
		t.Fatalf("rule = %s, want %s", fd.Rule, RuleForeignCodeExec)
	}
	if ts := fd.Prov.ChainText(provgraph.RoleTarget); len(ts) != 0 {
		t.Errorf("exec-rule graph has a target chain: %q", ts)
	}
	for _, n := range fd.Prov.Nodes {
		if n.Kind == provgraph.KindExportTable {
			t.Errorf("exec-rule graph has an export-table node: %+v", n)
		}
	}
	if dot := fd.Prov.DOT(); strings.Contains(dot, "cylinder") {
		t.Errorf("exec-rule DOT draws the export table:\n%s", dot)
	}
}
