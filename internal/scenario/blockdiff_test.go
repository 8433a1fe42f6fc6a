package scenario

import (
	"context"
	"reflect"
	"testing"

	"faros/internal/core"
	"faros/internal/faults"
	"faros/internal/guest"
	"faros/internal/record"
	"faros/internal/samples"
	"faros/internal/taint"
)

// The block dispatcher is a pure performance feature: every observable
// output — findings, final taint state, recorded event streams, retired
// instruction counts — must be bit-identical whether the VM executes
// predecoded micro-op blocks or decodes one instruction at a time. These
// tests run the whole attack and benign corpus through both dispatchers
// and diff the results, including under seeded guest faults that exercise
// the self-modifying-code invalidation path.

// blocksOff is the Plugins hook that drops the kernel's VM back to
// per-instruction dispatch.
func blocksOff(k *guest.Kernel) { k.M.SetBlockDispatch(false) }

// recordDispatch records spec with the chosen dispatcher.
func recordDispatch(t *testing.T, spec samples.Spec, plan *faults.Plan, blocks bool) (*record.Log, *Result) {
	t.Helper()
	rec := record.NewRecorder(spec.Name)
	k, err := setup(spec, mode{recorder: rec})
	if err != nil {
		t.Fatalf("%s: setup: %v", spec.Name, err)
	}
	k.SetFaultInjector(plan.NewInjector())
	k.M.SetBlockDispatch(blocks)
	res, err := run(context.Background(), k, spec, Plugins{})
	if err != nil {
		t.Fatalf("%s: record (blocks=%v): %v", spec.Name, blocks, err)
	}
	return rec.Finish(res.Summary.Instructions), res
}

// taintState flattens the final shadow state into a comparable map.
func taintState(s *taint.Store) map[uint64]taint.ProvID {
	out := make(map[uint64]taint.ProvID)
	s.ForEachTainted(func(pa uint64, id taint.ProvID) { out[pa] = id })
	return out
}

// diffResults asserts the observable outputs of two runs are identical.
func diffResults(t *testing.T, name string, with, without *Result) {
	t.Helper()
	if with.Err != nil || without.Err != nil {
		t.Fatalf("%s: degraded run (blocks=%v, plain=%v)", name, with.Err, without.Err)
	}
	if with.Summary.Instructions != without.Summary.Instructions {
		t.Errorf("%s: instruction count diverged: blocks=%d plain=%d",
			name, with.Summary.Instructions, without.Summary.Instructions)
	}
	if !reflect.DeepEqual(with.Console, without.Console) {
		t.Errorf("%s: console output diverged", name)
	}
	if !reflect.DeepEqual(with.MessageBoxes, without.MessageBoxes) {
		t.Errorf("%s: message boxes diverged", name)
	}
	if with.Faros != nil || without.Faros != nil {
		fw, fo := with.Faros.Findings(), without.Faros.Findings()
		if !reflect.DeepEqual(fw, fo) {
			t.Errorf("%s: findings diverged: blocks=%d plain=%d", name, len(fw), len(fo))
		}
		sw, so := taintState(with.Faros.T), taintState(without.Faros.T)
		if !reflect.DeepEqual(sw, so) {
			t.Errorf("%s: final taint state diverged: blocks=%d bytes, plain=%d bytes",
				name, len(sw), len(so))
		}
	}
}

// TestBlockDispatchDifferential records every corpus sample under both
// dispatchers, asserts the recorded streams are identical, then replays
// the log with FAROS attached under both dispatchers and asserts findings,
// taint state, and instruction counts match.
func TestBlockDispatchDifferential(t *testing.T) {
	corpus := append(samples.Attacks(), samples.BenignPrograms()...)
	for _, spec := range corpus {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			logB, resB := recordDispatch(t, spec, nil, true)
			logP, resP := recordDispatch(t, spec, nil, false)
			if logB.FinalInstr != logP.FinalInstr {
				t.Errorf("recorded FinalInstr diverged: blocks=%d plain=%d", logB.FinalInstr, logP.FinalInstr)
			}
			if !reflect.DeepEqual(logB.Events, logP.Events) {
				t.Errorf("recorded event streams diverged: blocks=%d events, plain=%d events",
					len(logB.Events), len(logP.Events))
			}
			diffResults(t, spec.Name+"/record", resB, resP)

			plugins := Plugins{Faros: &core.Config{}}
			with, err := Replay(spec, logB, plugins)
			if err != nil {
				t.Fatalf("replay (blocks): %v", err)
			}
			plugins.Extra = []func(*guest.Kernel){blocksOff}
			without, err := Replay(spec, logB, plugins)
			if err != nil {
				t.Fatalf("replay (plain): %v", err)
			}
			diffResults(t, spec.Name+"/replay", with, without)
		})
	}
}

// TestBlockDispatchDifferentialUnderFaults reruns the differential check
// with seeded guest code-corruption faults: flipped opcode bytes force the
// SMC invalidation path (the recorder writes the flip into guest memory),
// so a stale cached block would surface as a divergence here.
func TestBlockDispatchDifferentialUnderFaults(t *testing.T) {
	plan := &faults.Plan{
		Seed: 0xB10C,
		Guest: faults.GuestPlan{
			FlipRate: 0.02,
			Targets: []string{
				"notepad.exe", "firefox.exe", "svchost.exe", "explorer.exe",
				"inject_client.exe", "process_hollowing.exe", "darkcomet.exe", "njrat.exe",
			},
		},
	}
	var flips int
	for _, spec := range samples.Attacks() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			with, err := RunLiveContext(context.Background(), spec, Plugins{Faros: &core.Config{}}, plan)
			if err != nil {
				t.Fatalf("live (blocks): %v", err)
			}
			without, err := RunLiveContext(context.Background(), spec, Plugins{
				Faros: &core.Config{},
				Extra: []func(*guest.Kernel){blocksOff},
			}, plan)
			if err != nil {
				t.Fatalf("live (plain): %v", err)
			}
			if with.Faults != without.Faults {
				t.Errorf("fault draws diverged: blocks=%+v plain=%+v", with.Faults, without.Faults)
			}
			flips += with.Faults.CodeFlips
			diffResults(t, spec.Name, with, without)
		})
	}
	if flips == 0 {
		t.Error("fault plan never flipped a code byte; the SMC leg of this test is vacuous")
	}
}
