package scenario

import (
	"context"
	"errors"
	"strings"
	"testing"

	"faros/internal/core"
	"faros/internal/faults"
	"faros/internal/guest"
	"faros/internal/record"
	"faros/internal/samples"
)

// testChaosPlan mirrors the chaos experiment's fault plan.
func testChaosPlan() *faults.Plan {
	return &faults.Plan{
		Seed:    0xFA405,
		Net:     faults.NetPlan{Drop: 0.25, Corrupt: 0.2, Duplicate: 0.1, Reorder: 0.2, ShortRead: 0.25},
		Syscall: faults.SyscallPlan{FailRate: 0.15, MaxConsecutive: 2},
	}
}

// TestPluginPanicRecoveredIntoResult proves a crashing plugin degrades the
// run to a partial Result instead of tearing down the caller.
func TestPluginPanicRecoveredIntoResult(t *testing.T) {
	spec := samples.ReflectiveDLLInject()
	res, err := RunLiveContext(context.Background(), spec, Plugins{
		Extra: []func(*guest.Kernel){
			func(k *guest.Kernel) {
				// Explode once the injected payload has popped its message
				// box, so the partial report has something to preserve.
				k.OnSyscall(func(p *guest.Process, no uint32, args [4]uint32) {
					if len(k.MessageBoxes) > 0 {
						panic("plugin exploded mid-run")
					}
				})
			},
		},
	}, nil)
	if err != nil {
		t.Fatalf("panic escaped as hard error: %v", err)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "plugin exploded mid-run") {
		t.Fatalf("Result.Err = %v", res.Err)
	}
	if len(res.MessageBoxes) == 0 {
		t.Error("partial report lost the message boxes gathered before the panic")
	}
}

// TestReplayDivergenceTyped proves a tampered log surfaces as a typed
// *record.DivergenceError rather than a silent desync.
func TestReplayDivergenceTyped(t *testing.T) {
	spec := samples.ReflectiveDLLInject()
	log, _, err := RecordContext(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the intact log replays cleanly.
	res, err := ReplayContext(context.Background(), spec, log, Plugins{}, nil)
	if err != nil || res.Err != nil {
		t.Fatalf("clean replay failed: %v / %v", err, res.Err)
	}

	// Tamper: claim the guest retired more instructions than it will.
	bad := *log
	bad.FinalInstr = log.FinalInstr + 12345
	res, err = ReplayContext(context.Background(), spec, &bad, Plugins{}, nil)
	var div *record.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("err = %v, want DivergenceError", err)
	}
	if !errors.As(res.Err, &div) || div.Scenario != spec.Name {
		t.Fatalf("Result.Err = %v", res.Err)
	}

	// Tamper: point a packet at a flow the guest never opens.
	bad2 := *log
	bad2.Events = append([]record.Event(nil), log.Events...)
	for i := range bad2.Events {
		if bad2.Events[i].Kind == record.EvPacketIn {
			bad2.Events[i].Flow = 777
			break
		}
	}
	if _, err = ReplayContext(context.Background(), spec, &bad2, Plugins{}, nil); !errors.As(err, &div) {
		t.Fatalf("unknown-flow tamper not detected: %v", err)
	}
}

// TestChaosDetectStillFlags runs detection under the chaos fault plan: the
// attack must still be flagged with netflow provenance, and the run must
// complete without degrading.
func TestChaosDetectStillFlags(t *testing.T) {
	plan := testChaosPlan()
	res, err := RunLiveContext(context.Background(), samples.ReflectiveDLLInject(), DetectPlugins(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("chaos replay diverged: %v", res.Err)
	}
	if !res.Flagged() {
		t.Fatalf("attack not flagged under chaos; console=%v", res.Console)
	}
	if rule := res.Faros.Findings()[0].Rule; rule != "netflow-export" {
		t.Errorf("rule = %s", rule)
	}
}

// TestChaosFaultIsolationPreservesFindings is the scenario-level isolation
// test: guest faults kill a targeted bystander while the attack proceeds;
// FAROS findings and the survivor's structured exception both appear in
// the report.
func TestChaosFaultIsolationPreservesFindings(t *testing.T) {
	spec := samples.ChaosResilience()
	plan := testChaosPlan()
	plan.Guest = faults.GuestPlan{FlipRate: 0.05, ProbeRate: 0.05, Targets: []string{"bystander.exe"}}
	res, err := RunLiveContext(context.Background(), spec, Plugins{Faros: &core.Config{}}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flagged() {
		t.Fatalf("attack not flagged alongside faulting bystander; console=%v", res.Console)
	}
	if res.Faults.Total() == 0 {
		t.Error("no faults recorded by the injector")
	}
	// The bystander is either killed by an injected fault (recorded as a
	// structured exception) or survives to print its completion line;
	// either way the run itself completes.
	killed := false
	for _, exc := range res.Summary.Faults {
		if exc.Name == "bystander.exe" {
			killed = true
		}
	}
	done := false
	for _, line := range res.Console {
		if strings.Contains(line, "bystander done") {
			done = true
		}
	}
	if !killed && !done {
		t.Errorf("bystander neither completed nor fault-terminated; faults=%v console=%v",
			res.Summary.Faults, res.Console)
	}
}
