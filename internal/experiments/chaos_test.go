package experiments

import (
	"context"
	"strings"
	"testing"

	"faros/internal/core"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// TestChaosSmoke is the short-mode chaos check: one attack through full
// record+replay detection under the published fault plan, plus a
// determinism spot-check on the same scenario.
func TestChaosSmoke(t *testing.T) {
	plan := chaosPlan()
	res, injected, err := detectChaos(samples.ReflectiveDLLInject(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flagged() {
		t.Fatalf("attack not flagged under chaos; console=%v", res.Console)
	}
	if rule := res.Faros.Findings()[0].Rule; rule != "netflow-export" {
		t.Errorf("rule = %s", rule)
	}
	if injected.Total() == 0 {
		t.Error("fault plan injected nothing")
	}

	// Determinism: the same seed must reproduce the same fault stats and
	// the same console transcript.
	res2, injected2, err := detectChaos(samples.ReflectiveDLLInject(), chaosPlan())
	if err != nil {
		t.Fatal(err)
	}
	if injected != injected2 {
		t.Errorf("fault stats not reproducible: %+v vs %+v", injected, injected2)
	}
	if strings.Join(res.Console, "\n") != strings.Join(res2.Console, "\n") {
		t.Error("console transcript not reproducible under the same seed")
	}

	// A couple of benign corpus samples must stay clean under the plan.
	for _, spec := range samples.BenignPrograms()[:2] {
		bres, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{Faros: &core.Config{}}, chaosPlan())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if bres.Err != nil {
			t.Fatalf("%s degraded: %v", spec.Name, bres.Err)
		}
		if bres.Flagged() {
			t.Errorf("benign %s flagged under chaos", spec.Name)
		}
	}
}

// TestChaosExperiment runs the full chaos report (all six attacks, the
// 104-sample FP corpus, the guest-fault resilience run — twice, for the
// byte-identity check). Heavy, so long mode only.
func TestChaosExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos experiment in short mode")
	}
	out, err := Chaos()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "yes") < 6 {
		t.Errorf("not all attacks flagged under chaos:\n%s", out)
	}
	if !strings.Contains(out, "reproduced the report byte-for-byte") {
		t.Errorf("chaos run not deterministic:\n%s", out)
	}
	if !strings.Contains(out, "netflow-export") {
		t.Errorf("provenance rule missing:\n%s", out)
	}
	for _, attack := range []string{"reflective_dll_inject", "process_hollowing"} {
		if !strings.Contains(out, attack) {
			t.Errorf("chaos table missing %q", attack)
		}
	}
}
