package scenario

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"faros/internal/core"
	"faros/internal/faults"
	"faros/internal/samples"
)

// Detect is one live pass; record-then-replay with the same plugins is
// the paper's two-pass workflow. The guest is deterministic and the
// recorder is plugin-independent, so the two must produce the same report
// field for field. These tests hold the one-pass path to that oracle.

// twoPassDetect is the record-then-replay form of Detect. It also returns
// the recording pass's Result, whose fault counts include the network
// draws the replay never re-fires.
func twoPassDetect(t *testing.T, spec samples.Spec, plan *faults.Plan) (replayed, recorded *Result) {
	t.Helper()
	log, rec, err := RecordContext(context.Background(), spec, plan)
	if err != nil {
		t.Fatalf("%s: record: %v", spec.Name, err)
	}
	res, err := ReplayContext(context.Background(), spec, log, detectPlugins(), plan)
	if err != nil {
		t.Fatalf("%s: replay: %v", spec.Name, err)
	}
	return res, rec
}

// diffDetect asserts every observable field of two detect results matches:
// findings with their provenance graphs, the baselines' reports, the OSI
// process list, the run summary, guest output, and the engine counters.
func diffDetect(t *testing.T, name string, one, two *Result) {
	t.Helper()
	if one.Err != nil || two.Err != nil {
		t.Fatalf("%s: degraded run: one-pass %v, two-pass %v", name, one.Err, two.Err)
	}
	if !reflect.DeepEqual(one.Findings(), two.Findings()) {
		t.Errorf("%s: findings diverged: one-pass %d, two-pass %d", name, len(one.Findings()), len(two.Findings()))
	}
	j1, err1 := one.Faros.JSON()
	j2, err2 := two.Faros.JSON()
	if err1 != nil || err2 != nil || !bytes.Equal(j1, j2) {
		t.Errorf("%s: findings JSON diverged (%v, %v)", name, err1, err2)
	}
	g1, err1 := one.ProvGraph().JSON()
	g2, err2 := two.ProvGraph().JSON()
	if err1 != nil || err2 != nil || !bytes.Equal(g1, g2) {
		t.Errorf("%s: provenance graph diverged (%v, %v):\n one: %s\n two: %s", name, err1, err2, g1, g2)
	}
	if one.Cuckoo.String() != two.Cuckoo.String() {
		t.Errorf("%s: cuckoo report diverged", name)
	}
	if one.Malfind.String() != two.Malfind.String() {
		t.Errorf("%s: malfind report diverged", name)
	}
	if !reflect.DeepEqual(one.OSI.Processes(), two.OSI.Processes()) {
		t.Errorf("%s: OSI process list diverged", name)
	}
	if !reflect.DeepEqual(one.Summary, two.Summary) {
		t.Errorf("%s: run summary diverged:\n one: %+v\n two: %+v", name, one.Summary, two.Summary)
	}
	if !reflect.DeepEqual(one.Console, two.Console) {
		t.Errorf("%s: console diverged", name)
	}
	if !reflect.DeepEqual(one.MessageBoxes, two.MessageBoxes) {
		t.Errorf("%s: message boxes diverged", name)
	}
	if s1, s2 := one.Faros.Stats(), two.Faros.Stats(); s1 != s2 {
		t.Errorf("%s: engine stats diverged:\n one: %+v\n two: %+v", name, s1, s2)
	}
}

// TestDetectOnePassMatchesRecordReplay runs every built-in scenario and
// Table V application both ways and diffs the reports.
func TestDetectOnePassMatchesRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus")
	}
	specs := corpusSpecs()
	same := 0
	for _, spec := range specs {
		if t.Run(spec.Name, func(t *testing.T) {
			one, err := Detect(spec)
			if err != nil {
				t.Fatalf("detect: %v", err)
			}
			two, _ := twoPassDetect(t, spec, nil)
			diffDetect(t, spec.Name, one, two)
		}) {
			same++
		}
	}
	t.Logf("%d/%d specs identical one-pass vs record+replay", same, len(specs))
}

// TestDetectOnePassMatchesRecordReplayUnderChaos repeats the differential
// for the six attacks under the chaos fault plan. The one-pass fault
// counts equal the recording pass's: both runs draw network faults live,
// while the replay preloads the post-fault wire stream.
func TestDetectOnePassMatchesRecordReplayUnderChaos(t *testing.T) {
	for _, spec := range samples.Attacks() {
		plan := testChaosPlan()
		one, err := DetectContext(context.Background(), spec, plan)
		if err != nil {
			t.Fatalf("%s: detect: %v", spec.Name, err)
		}
		two, rec := twoPassDetect(t, spec, plan)
		diffDetect(t, spec.Name+"/chaos", one, two)
		if one.Faults != rec.Faults {
			t.Errorf("%s: fault counts: one-pass %+v, record pass %+v", spec.Name, one.Faults, rec.Faults)
		}
	}
}

// farosAllocBudget bounds how many more heap allocations a FAROS replay of
// an attack may make than a plain replay of the same log. The engine's
// fixed costs (shadow pages, provenance lists, findings and their graphs)
// fit well inside it; a per-event allocation on a hot path — one per
// export read on process_hollowing is ~168k — does not.
const farosAllocBudget = 2000

// TestFAROSReplayAllocationBound measures the allocation overhead FAROS
// adds to a replay of each attack, under the default policy and under
// StrictExecCheck.
func TestFAROSReplayAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every attack repeatedly")
	}
	for _, spec := range samples.Attacks() {
		log, _, err := Record(spec)
		if err != nil {
			t.Fatalf("%s: record: %v", spec.Name, err)
		}
		replayAllocs := func(plugins Plugins) float64 {
			return testing.AllocsPerRun(2, func() {
				if _, err := Replay(spec, log, plugins); err != nil {
					t.Fatalf("%s: replay: %v", spec.Name, err)
				}
			})
		}
		plain := replayAllocs(Plugins{})
		for _, cfg := range []core.Config{{}, {StrictExecCheck: true}} {
			extra := replayAllocs(Plugins{Faros: &cfg}) - plain
			t.Logf("%s strict=%v: %.0f allocations over plain replay", spec.Name, cfg.StrictExecCheck, extra)
			if extra > farosAllocBudget {
				t.Errorf("%s strict=%v: FAROS replay allocates %.0f more than plain, budget %d",
					spec.Name, cfg.StrictExecCheck, extra, farosAllocBudget)
			}
		}
	}
}
