package scenario

import (
	"context"
	"reflect"
	"testing"

	"faros/internal/record"
	"faros/internal/samples"
)

// Block dispatch is the VM's only production dispatcher: every observable
// output of a run — recorded event streams, retired instruction counts,
// console, message boxes — must be bit-identical to the per-instruction
// reference interpreter (vm.Machine.UseReferenceStep: uncached Step, one
// instruction at a time). This test records the whole attack and benign
// corpus under both and diffs the results. The legs that attach FAROS
// diff the block engine against the test-only FAROS.BeforeInstr, so they
// live beside it in internal/core (blockdiff_test.go there).

// recordDispatch records spec with the chosen dispatcher.
func recordDispatch(t *testing.T, spec samples.Spec, ref bool) (*record.Log, *Result) {
	t.Helper()
	rec := record.NewRecorder(spec.Name)
	k, err := setup(spec, mode{recorder: rec})
	if err != nil {
		t.Fatalf("%s: setup: %v", spec.Name, err)
	}
	if ref {
		k.M.UseReferenceStep(nil)
	}
	res, err := run(context.Background(), k, spec, Plugins{})
	if err != nil {
		t.Fatalf("%s: record (ref=%v): %v", spec.Name, ref, err)
	}
	return rec.Finish(res.Summary.Instructions), res
}

// TestBlockDispatchDifferential records every corpus sample under both
// dispatchers and asserts the recorded streams, instruction counts and
// guest-visible output are identical.
func TestBlockDispatchDifferential(t *testing.T) {
	corpus := append(samples.Attacks(), samples.BenignPrograms()...)
	for _, spec := range corpus {
		t.Run(spec.Name, func(t *testing.T) {
			logB, resB := recordDispatch(t, spec, false)
			logR, resR := recordDispatch(t, spec, true)
			if resB.Err != nil || resR.Err != nil {
				t.Fatalf("degraded run (blocks=%v, ref=%v)", resB.Err, resR.Err)
			}
			if logB.FinalInstr != logR.FinalInstr {
				t.Errorf("recorded FinalInstr diverged: blocks=%d ref=%d", logB.FinalInstr, logR.FinalInstr)
			}
			if !reflect.DeepEqual(logB.Events, logR.Events) {
				t.Errorf("recorded event streams diverged: blocks=%d events, ref=%d events",
					len(logB.Events), len(logR.Events))
			}
			if resB.Summary.Instructions != resR.Summary.Instructions {
				t.Errorf("instruction count diverged: blocks=%d ref=%d",
					resB.Summary.Instructions, resR.Summary.Instructions)
			}
			if !reflect.DeepEqual(resB.Console, resR.Console) {
				t.Error("console output diverged")
			}
			if !reflect.DeepEqual(resB.MessageBoxes, resR.MessageBoxes) {
				t.Error("message boxes diverged")
			}
		})
	}
}
