package pipeline_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"faros/internal/pipeline"
	"faros/internal/provgraph"
)

// TestServerProvEndpoint drives a flagged scenario through the HTTP API and
// exercises /results/{hash}/prov in all three formats.
func TestServerProvEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, pipeline.Config{Workers: 1})
	resp, view := postAnalyze(t, srv, `{"scenario":"reflective_dll_inject","wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d", resp.StatusCode)
	}
	if view.Result == nil || !view.Result.Flagged {
		t.Fatalf("expected flagged result, got %+v", view.Result)
	}
	if view.Result.Prov == nil || len(view.Result.Prov.Nodes) == 0 {
		t.Fatalf("result missing merged provenance graph")
	}
	for _, f := range view.Result.Findings {
		if f.Prov == nil {
			t.Fatalf("finding %s lost its graph over the wire", f.Rule)
		}
	}
	hash := view.Result.Hash

	get := func(url string) (int, string) {
		t.Helper()
		r, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, string(b)
	}

	// Default (json) and explicit json decode into a valid graph that
	// matches the result's merged graph.
	for _, url := range []string{"/results/" + hash + "/prov", "/results/" + hash + "/prov?format=json"} {
		code, body := get(url)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", url, code)
		}
		g, err := provgraph.FromJSON([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		if len(g.Nodes) != len(view.Result.Prov.Nodes) || len(g.Edges) != len(view.Result.Prov.Edges) {
			t.Fatalf("%s: graph drift: %d/%d nodes, %d/%d edges", url,
				len(g.Nodes), len(view.Result.Prov.Nodes), len(g.Edges), len(view.Result.Prov.Edges))
		}
	}

	if code, body := get("/results/" + hash + "/prov?format=dot"); code != http.StatusOK ||
		!strings.HasPrefix(body, "digraph provgraph {") {
		t.Fatalf("dot: status %d body %q", code, body)
	}
	if code, body := get("/results/" + hash + "/prov?format=text"); code != http.StatusOK ||
		!strings.Contains(body, "provenance graph:") || !strings.Contains(body, "[instr]") {
		t.Fatalf("text: status %d body %q", code, body)
	}
	if code, _ := get("/results/" + hash + "/prov?format=yaml"); code != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", code)
	}
	if code, _ := get("/results/ffffffff/prov"); code != http.StatusNotFound {
		t.Fatalf("unknown hash: status %d, want 404", code)
	}
}

// TestServerProvEndpointCleanRun asserts a clean (unflagged) cached result
// serves the canonical empty graph rather than erroring.
func TestServerProvEndpointCleanRun(t *testing.T) {
	srv, _ := newTestServer(t, pipeline.Config{Workers: 1})
	resp, view := postAnalyze(t, srv, `{"scenario":"benign_09_calculator","wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d", resp.StatusCode)
	}
	if view.Result == nil || view.Result.Flagged {
		t.Fatalf("expected clean result, got %+v", view.Result)
	}
	r, err := http.Get(srv.URL + "/results/" + view.Result.Hash + "/prov")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	var g provgraph.Graph
	if err := json.NewDecoder(r.Body).Decode(&g); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 0 || len(g.Edges) != 0 {
		t.Fatalf("clean run graph not empty: %+v", g)
	}
}
