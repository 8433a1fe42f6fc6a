package core

import (
	"strings"
	"testing"

	"faros/internal/peimg"
	"faros/internal/provgraph"
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
	if run.NodeCount() == 0 || run.EdgeCount() == 0 {
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
	if g == nil || g.NodeCount() != 0 || g.EdgeCount() != 0 {
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
