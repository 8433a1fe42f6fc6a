package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"faros"
	"faros/internal/core"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// resultJSON is a job's Result as farosd serves it, built by BuildResult
// under the job's key, with the wall clock zeroed (the one field two runs
// of the same work may disagree on).
func resultJSON(t *testing.T, req Request, res *scenario.Result) []byte {
	t.Helper()
	out := BuildResult(res, req.Spec.Name, req.Mode)
	out.Hash = cacheKey(req, "")
	res.Release()
	out.WallTime = 0
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDetectRunnerMatchesDetectPlugins: a farosd detect job attaches FAROS
// alone, and for every registry scenario its Result — flagged, findings,
// provenance graph, instructions, degraded — encodes byte-identically to a
// reference run under the analyst plugin set with the baselines attached.
// Dropping the baselines changes none of what the service reports.
func TestDetectRunnerMatchesDetectPlugins(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry")
	}
	runner := defaultRunner(nil)
	for _, name := range faros.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, _ := faros.Scenario(name)
			req := Request{Spec: spec, Mode: ModeDetect}
			got, err := runner(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := scenario.RunLiveContext(context.Background(), spec, scenario.DetectPlugins(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cuckoo != nil || got.Malfind != nil || got.OSI != nil {
				t.Error("detect job attached a baseline plugin")
			}
			gotJSON, refJSON := resultJSON(t, req, got), resultJSON(t, req, ref)
			if !bytes.Equal(gotJSON, refJSON) {
				t.Errorf("detect job Result diverges from the DetectPlugins run:\njob: %s\nref: %s", gotJSON, refJSON)
			}
		})
	}
}

// TestDetectRunnerIgnoresConfig pins detect-mode config handling: POST
// /analyze copies a body's config into Request.Config for any mode, and
// for ModeDetect the key normalizes it away and the runner runs the zero
// config. The scenario is one that StrictExecCheck flags and the default
// policy does not, so a runner honouring the config would change the
// verdict.
func TestDetectRunnerIgnoresConfig(t *testing.T) {
	spec := samples.EvasionHardcodedStubs()
	strict := core.Config{StrictExecCheck: true}
	runner := defaultRunner(nil)
	result := func(req Request) []byte {
		res, err := runner(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resultJSON(t, req, res)
	}

	zeroReq := Request{Spec: spec, Mode: ModeDetect}
	strictReq := Request{Spec: spec, Mode: ModeDetect, Config: strict}
	if k0, k1 := cacheKey(zeroReq, ""), cacheKey(strictReq, ""); k0 != k1 {
		t.Fatalf("detect keys differ by config: %s vs %s", k0, k1)
	}
	if zero, got := result(zeroReq), result(strictReq); !bytes.Equal(zero, got) {
		t.Errorf("detect Result depends on the request config:\nzero:   %s\nstrict: %s", zero, got)
	}

	// The same config is live policy under ModeLive: it flips the verdict,
	// which is what makes the detect comparison above sensitive.
	res, err := runner(context.Background(), Request{Spec: spec, Mode: ModeLive, Config: strict})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if !res.Flagged() {
		t.Fatal("StrictExecCheck does not flag the hardcoded-stub evasion; the test scenario lost its sensitivity")
	}
}
