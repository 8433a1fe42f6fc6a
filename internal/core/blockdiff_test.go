package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"faros/internal/core"
	"faros/internal/faults"
	"faros/internal/guest"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/taint"
)

// Block dispatch is FAROS's only production dispatcher, and a pure
// performance feature: every observable output — findings, final taint
// state, retired instruction counts, guest-visible output — must be
// bit-identical to the per-instruction reference, where the VM runs Step
// one instruction at a time and the test-only FAROS.BeforeInstr observes
// each one (core.UseRefStep, refstep_test.go). These tests run the whole
// attack and benign corpus with FAROS attached under both dispatchers and
// diff the results, including under seeded guest faults that exercise the
// self-modifying-code invalidation path, and at scheduler quanta small
// enough that most block entries are budget tails. The recording leg,
// which needs no engine, is internal/scenario's TestBlockDispatchDifferential.

// taintState flattens the final shadow state into a comparable map.
func taintState(s *taint.Store) map[uint64]taint.ProvID {
	out := make(map[uint64]taint.ProvID)
	s.ForEachTainted(func(pa uint64, id taint.ProvID) { out[pa] = id })
	return out
}

// diffResults asserts the observable outputs of two runs are identical.
func diffResults(t *testing.T, name string, blocks, ref *scenario.Result) {
	t.Helper()
	if blocks.Err != nil || ref.Err != nil {
		t.Fatalf("%s: degraded run (blocks=%v, ref=%v)", name, blocks.Err, ref.Err)
	}
	if blocks.Summary.Instructions != ref.Summary.Instructions {
		t.Errorf("%s: instruction count diverged: blocks=%d ref=%d",
			name, blocks.Summary.Instructions, ref.Summary.Instructions)
	}
	if !reflect.DeepEqual(blocks.Console, ref.Console) {
		t.Errorf("%s: console output diverged", name)
	}
	if !reflect.DeepEqual(blocks.MessageBoxes, ref.MessageBoxes) {
		t.Errorf("%s: message boxes diverged", name)
	}
	if blocks.Faros != nil || ref.Faros != nil {
		fb, fr := blocks.Faros.Findings(), ref.Faros.Findings()
		if !reflect.DeepEqual(fb, fr) {
			t.Errorf("%s: findings diverged: blocks=%d ref=%d", name, len(fb), len(fr))
		}
		if sb, sr := taintState(blocks.Faros.T), taintState(ref.Faros.T); !reflect.DeepEqual(sb, sr) {
			t.Errorf("%s: final taint state diverged: blocks=%d bytes, ref=%d bytes",
				name, len(sb), len(sr))
		}
	}
}

// TestBlockDispatchReplayDifferential records every corpus sample, then
// replays the log with FAROS attached under both dispatchers and asserts
// findings, taint state, and instruction counts match.
func TestBlockDispatchReplayDifferential(t *testing.T) {
	corpus := append(samples.Attacks(), samples.BenignPrograms()...)
	for _, spec := range corpus {
		t.Run(spec.Name, func(t *testing.T) {
			log, _, err := scenario.RecordContext(context.Background(), spec, nil)
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			plugins := scenario.Plugins{Faros: &core.Config{}}
			blocks, err := scenario.ReplayContext(context.Background(), spec, log, plugins, nil)
			if err != nil {
				t.Fatalf("replay (blocks): %v", err)
			}
			plugins.Extra = []func(*guest.Kernel){core.UseRefStep}
			ref, err := scenario.ReplayContext(context.Background(), spec, log, plugins, nil)
			if err != nil {
				t.Fatalf("replay (ref): %v", err)
			}
			diffResults(t, spec.Name+"/replay", blocks, ref)
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
		t.Run(spec.Name, func(t *testing.T) {
			blocks, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{Faros: &core.Config{}}, plan)
			if err != nil {
				t.Fatalf("live (blocks): %v", err)
			}
			ref, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{
				Faros: &core.Config{},
				Extra: []func(*guest.Kernel){core.UseRefStep},
			}, plan)
			if err != nil {
				t.Fatalf("live (ref): %v", err)
			}
			if blocks.Faults != ref.Faults {
				t.Errorf("fault draws diverged: blocks=%+v ref=%+v", blocks.Faults, ref.Faults)
			}
			flips += blocks.Faults.CodeFlips
			diffResults(t, spec.Name, blocks, ref)
		})
	}
	if flips == 0 {
		t.Error("fault plan never flipped a code byte; the SMC leg of this test is vacuous")
	}
}

// TestBlockDispatchDifferentialTails shrinks the scheduler quantum until
// most block entries land on a budget tail, where the executors run a
// block prefix or an uncached one-instruction block, and diffs the block
// engine against the reference under every engine configuration that
// changes what the executor does. The production quantum (256) and the two
// smallest Table V applications, whose copy loops run in place for most of
// every quantum, cover loop-dominated code.
func TestBlockDispatchDifferentialTails(t *testing.T) {
	corpus := append(samples.Attacks(), samples.BenignPrograms()...)
	for _, w := range samples.PerfWorkloads() {
		if w.Display == "Bozok" || w.Display == "Pandora" {
			corpus = append(corpus, w.Spec)
		}
	}
	configs := []core.Config{
		{},
		{StrictExecCheck: true},
		{PropagateAddrDeps: true},
		{NoProcessTags: true},
	}
	for _, quantum := range []uint64{1, 3, 7, 61, 256} {
		t.Run(fmt.Sprintf("q%d", quantum), func(t *testing.T) {
			t.Parallel()
			setQuantum := func(k *guest.Kernel) { k.Quantum = quantum }
			for _, cfg := range configs {
				for _, spec := range corpus {
					name := fmt.Sprintf("%+v/%s", cfg, spec.Name)
					blocks, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{
						Faros: &cfg,
						Extra: []func(*guest.Kernel){setQuantum},
					}, nil)
					if err != nil {
						t.Fatalf("%s: live (blocks): %v", name, err)
					}
					ref, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{
						Faros: &cfg,
						Extra: []func(*guest.Kernel){setQuantum, core.UseRefStep},
					}, nil)
					if err != nil {
						t.Fatalf("%s: live (ref): %v", name, err)
					}
					diffResults(t, name, blocks, ref)
					blocks.Release()
					ref.Release()
				}
			}
		})
	}
}
