package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"faros"
	"faros/internal/core"
	"faros/internal/pipeline"
	"faros/internal/scenario"
	"faros/internal/triage"
)

// TestLocalAndRemoteWriteOneResult: for the same analysis, the in-process
// path and the -server path write the same -json result document, apart
// from the job hash and the wall clock, and a byte-identical -dot graph.
// It holds with triage off, with one policy on both sides, with the
// server's stamps passed through unscored by the client, and under a
// non-default engine config (mode live).
func TestLocalAndRemoteWriteOneResult(t *testing.T) {
	const name = "reflective_dll_inject"
	spec, ok := faros.Scenario(name)
	if !ok {
		t.Fatalf("no scenario %s", name)
	}
	def := triage.Default()
	for _, tc := range []struct {
		name string
		cfg  core.Config
		// local is the in-process -triage-policy; server is farosd's
		// policy and client the -server run's -triage-policy.
		local, server, client *triage.Policy
	}{
		{name: "triage-off"},
		{name: "triage-default", local: def, server: def, client: def},
		{name: "server-scored", local: def, server: def},
		{name: "strict", cfg: core.Config{StrictExecCheck: true}, local: def, server: def},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			out := func(side, ext string) string { return filepath.Join(dir, side+ext) }

			cfg := tc.cfg
			log, _, err := scenario.RecordContext(ctx, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := scenario.ReplayContext(ctx, spec, log, scenario.Plugins{Faros: &cfg, OSI: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			local := reportOpts{provFormat: "text", jsonOut: out("local", ".json"), dotOut: out("local", ".dot"), policy: tc.local}
			if code := report(res, analysisMode(cfg), local); code != 0 {
				t.Fatalf("report exited %d", code)
			}

			pool, err := pipeline.New(pipeline.Config{Workers: 1, Triage: tc.server})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(pool.Close)
			srv := httptest.NewServer(pipeline.NewHandler(pool, pipeline.ServerConfig{
				Resolve: faros.Scenario,
				Names:   faros.ScenarioNames,
			}))
			t.Cleanup(srv.Close)
			remote := reportOpts{provFormat: "text", jsonOut: out("remote", ".json"), dotOut: out("remote", ".dot"), policy: tc.client}
			if code := runRemote(ctx, remoteArgs{base: srv.URL, scenario: name, cfg: tc.cfg}, remote); code != 0 {
				t.Fatalf("runRemote exited %d", code)
			}

			lj, rj := readResult(t, local.jsonOut), readResult(t, remote.jsonOut)
			if !reflect.DeepEqual(lj, rj) {
				t.Errorf("-json files differ:\nlocal:  %v\nremote: %v", lj, rj)
			}
			findings, _ := lj["findings"].([]any)
			if lj["flagged"] != true || len(findings) == 0 {
				t.Fatalf("local result flagged nothing: %v", lj)
			}
			if _, scored := lj["risk"]; scored != (tc.local != nil) {
				t.Errorf("risk present = %v, want %v", scored, tc.local != nil)
			}
			if lj["mode"] != string(analysisMode(cfg)) {
				t.Errorf("mode = %v", lj["mode"])
			}

			ld, rd := readFile(t, local.dotOut), readFile(t, remote.dotOut)
			if len(ld) == 0 || !bytes.Equal(ld, rd) {
				t.Errorf("-dot files differ:\nlocal:\n%s\nremote:\n%s", ld, rd)
			}
		})
	}
}

// readResult decodes a -json file without the fields two runs of one
// analysis may disagree on: the job hash (farosd's cache key; the local
// path has none) and the wall clock.
func readResult(t *testing.T, path string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(readFile(t, path), &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "hash")
	delete(m, "wall_ns")
	return m
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
