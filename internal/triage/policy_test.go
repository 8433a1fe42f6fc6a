package triage

import (
	"strings"
	"testing"

	"faros/internal/provgraph"
)

// reflectiveGraph builds a graph shaped like the reflective-DLL-inject
// finding: netflow -> inject_client -> notepad instruction chain plus an
// export-table target chain.
func reflectiveGraph() *provgraph.Graph {
	b := provgraph.NewBuilder()
	nf := provgraph.Node{Kind: provgraph.KindNetflow, Label: "NetFlow",
		Netflow: &provgraph.Netflow{SrcIP: "10.0.0.2", SrcPort: 4444, DstIP: "10.0.0.9", DstPort: 80}}
	client := provgraph.Node{Kind: provgraph.KindProcess, Label: "inject_client",
		Process: &provgraph.Process{CR3: 0x1000, PID: 4, Name: "inject_client"}}
	victim := provgraph.Node{Kind: provgraph.KindProcess, Label: "notepad",
		Process: &provgraph.Process{CR3: 0x2000, PID: 7, Name: "notepad"}}
	xt := provgraph.Node{Kind: provgraph.KindExportTable, Label: "ExportTable"}
	b.AddChain(provgraph.RoleInstr, []provgraph.Node{nf, client, victim}, 128, 1000)
	b.AddChain(provgraph.RoleTarget, []provgraph.Node{xt}, 4, 1000)
	return b.Graph()
}

// singleProcGraph is a minimal one-process graph with no netflow.
func singleProcGraph() *provgraph.Graph {
	b := provgraph.NewBuilder()
	p := provgraph.Node{Kind: provgraph.KindProcess, Label: "jit",
		Process: &provgraph.Process{CR3: 0x3000, PID: 9, Name: "jit"}}
	b.AddChain(provgraph.RoleInstr, []provgraph.Node{p}, 16, 50)
	return b.Graph()
}

func TestDefaultPolicyShapes(t *testing.T) {
	p := Default()
	if p.Hash() == "" || len(p.Hash()) != 64 {
		t.Fatalf("default policy hash = %q", p.Hash())
	}

	g := reflectiveGraph()
	a := p.ScoreFinding("netflow-export", g)
	if a.Score != ScoreHigh || a.Rule != "remote-injected-api-resolution" {
		t.Fatalf("reflective finding scored %v via %q, want high via remote-injected-api-resolution", a.Score, a.Rule)
	}
	// The cross-process shape catches the same graph under a different
	// detection rule.
	a = p.ScoreFinding("foreign-code-exec", g)
	if a.Score != ScoreHigh || a.Rule != "remote-cross-process-code" {
		t.Fatalf("cross-process finding scored %v via %q", a.Score, a.Rule)
	}
	// A single-process strict-mode flag is medium, not high.
	a = p.ScoreFinding("foreign-code-exec", singleProcGraph())
	if a.Score != ScoreMedium || a.Rule != "tainted-code-execution" {
		t.Fatalf("single-process exec scored %v via %q", a.Score, a.Rule)
	}
	// A netflow-export flag that never left its own process is the known
	// JIT false-positive shape and must rank low, not high.
	a = p.ScoreFinding("netflow-export", singleProcGraph())
	if a.Score != ScoreLow || a.Rule != "single-process-network-jit" {
		t.Fatalf("single-process netflow-export scored %v via %q, want low via single-process-network-jit", a.Score, a.Rule)
	}
	// Nothing matched: the default applies with no rule attribution.
	a = p.ScoreFinding("some-other-rule", singleProcGraph())
	if a.Score != ScoreLow || a.Rule != "" {
		t.Fatalf("unmatched finding scored %v via %q, want low via default", a.Score, a.Rule)
	}
}

func TestFirstMatchWins(t *testing.T) {
	pol, err := Parse([]byte(`{
		"name": "order",
		"rules": [
			{"name": "first", "score": "low", "match": {"rule": "netflow-export"}},
			{"name": "second", "score": "high", "match": {"rule": "netflow-export"}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	a := pol.ScoreFinding("netflow-export", reflectiveGraph())
	if a.Rule != "first" || a.Score != ScoreLow {
		t.Fatalf("got %+v, want the first matching rule to win", a)
	}
}

func TestMatchConditions(t *testing.T) {
	g := reflectiveGraph()
	cases := []struct {
		name string
		m    Match
		want bool
	}{
		{"empty matches all", Match{}, true},
		{"rule exact", Match{Rule: "netflow-export"}, true},
		{"rule mismatch", Match{Rule: "foreign-code-export"}, false},
		{"sequence across chains", Match{Sequence: []string{"netflow", "process", "export_table"}}, true},
		{"sequence order enforced", Match{Sequence: []string{"export_table", "netflow"}}, false},
		{"chain length met", Match{MinChainLen: 3}, true},
		{"chain length unmet", Match{MinChainLen: 4}, false},
		{"process count", Match{MinProcesses: 2}, true},
		{"process count unmet", Match{MinProcesses: 3}, false},
		{"byte extent", Match{MinBytes: 128}, true},
		{"byte extent unmet", Match{MinBytes: 129}, false},
		{"conjunction", Match{Rule: "netflow-export", MinProcesses: 2, MinBytes: 64}, true},
		{"conjunction one fails", Match{Rule: "netflow-export", MinProcesses: 3}, false},
	}
	for _, tc := range cases {
		if got := tc.m.matches("netflow-export", measure(g)); got != tc.want {
			t.Errorf("%s: matches = %v, want %v", tc.name, got, tc.want)
		}
	}
	// A nil graph measures empty and only the empty/rule-only matches hold.
	if !(Match{}).matches("x", measure(nil)) {
		t.Error("empty match should hold on a nil graph")
	}
	if (Match{MinChainLen: 1}).matches("x", measure(nil)) {
		t.Error("chain-length match should fail on a nil graph")
	}
}

func TestParseRejectsMalformedPolicies(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"bad score", `{"rules":[{"name":"r","score":"severe","match":{}}]}`, "unknown score"},
		{"unknown kind", `{"rules":[{"name":"r","score":"high","match":{"sequence":["socket"]}}]}`, "unknown node kind"},
		{"missing name", `{"rules":[{"score":"high","match":{}}]}`, "missing name"},
		{"duplicate name", `{"rules":[{"name":"r","score":"low","match":{}},{"name":"r","score":"high","match":{}}]}`, "duplicate name"},
		{"negative threshold", `{"rules":[{"name":"r","score":"low","match":{"min_bytes":-1}}]}`, "cannot be negative"},
		{"unknown field", `{"rules":[{"name":"r","score":"low","match":{"min_byte":3}}]}`, "unknown field"},
		{"not json", `nope`, "parse policy"},
		{"trailing data", `{"name":"x","rules":[]} trailing`, "data after the policy"},
		{"two policies", `{"name":"x","rules":[]}{"name":"y","rules":[]}`, "data after the policy"},
		{"trailing brace", `{"name":"x","rules":[]}}`, "data after the policy"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestPolicyHashIdentity(t *testing.T) {
	a1, err := Parse([]byte(`{"name":"a","rules":[{"name":"r","score":"high","match":{"rule":"netflow-export"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Parse([]byte(`{"name": "a", "rules": [ {"name":"r", "score":"high", "match": {"rule": "netflow-export"}} ]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a1.Hash() != a2.Hash() {
		t.Fatalf("formatting changed the hash: %s vs %s", a1.Hash(), a2.Hash())
	}
	b, err := Parse([]byte(`{"name":"a","rules":[{"name":"r","score":"medium","match":{"rule":"netflow-export"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if b.Hash() == a1.Hash() {
		t.Fatal("a semantic change (score high->medium) must change the hash")
	}
	if d := Default(); d.Hash() != Default().Hash() {
		t.Fatal("default policy hash is unstable")
	}
}

func TestAggregate(t *testing.T) {
	if got := Aggregate(); got != ScoreLow {
		t.Fatalf("Aggregate() = %v, want low", got)
	}
	if got := Aggregate(ScoreLow, ScoreHigh, ScoreMedium); got != ScoreHigh {
		t.Fatalf("Aggregate = %v, want high", got)
	}
}

func TestScoreJSONRoundTrip(t *testing.T) {
	for _, s := range []Score{ScoreLow, ScoreMedium, ScoreHigh} {
		data, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Score
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Fatalf("round trip %v -> %s -> %v", s, data, back)
		}
	}
	var s Score
	if err := s.UnmarshalJSON([]byte(`"critical"`)); err == nil {
		t.Fatal("unknown score name must fail to unmarshal")
	}
	if _, err := Score(9).MarshalJSON(); err == nil {
		t.Fatal("out-of-range score must fail to marshal")
	}
}

func TestSubsequence(t *testing.T) {
	cases := []struct {
		hay, needle []string
		want        bool
	}{
		{[]string{"a", "b", "c"}, []string{"a", "c"}, true},
		{[]string{"a", "b", "c"}, []string{"c", "a"}, false},
		{[]string{"a"}, []string{}, true},
		{[]string{}, []string{"a"}, false},
		{[]string{"a", "a", "b"}, []string{"a", "a", "b"}, true},
	}
	for _, tc := range cases {
		if got := subsequence(tc.hay, tc.needle); got != tc.want {
			t.Errorf("subsequence(%v, %v) = %v, want %v", tc.hay, tc.needle, got, tc.want)
		}
	}
}
