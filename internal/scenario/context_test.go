package scenario

import (
	"context"
	"errors"
	"testing"
	"time"

	"faros/internal/core"
	"faros/internal/samples"
)

// entryPoint is one context entry point, run on the spinner.
type entryPoint struct {
	name string
	run  func(ctx context.Context) error
}

// spinnerEntryPoints runs the spinner, which never exits on its own,
// through each of the four context entry points. The replay entries replay
// a spinner recording made under a finite budget against the unbounded
// spec (the trace embeds that spec), so only the context stops them.
func spinnerEntryPoints(t *testing.T) (samples.Spec, []entryPoint) {
	t.Helper()
	spec := samples.Spinner(1 << 40)
	log, _, err := RecordContext(context.Background(), samples.Spinner(10_000), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := EncodeTrace(spec, log)
	if err != nil {
		t.Fatal(err)
	}
	plugins := Plugins{Faros: &core.Config{}}
	return spec, []entryPoint{
		{"RunLiveContext", func(ctx context.Context) error {
			_, err := RunLiveContext(ctx, spec, plugins, nil)
			return err
		}},
		{"RecordContext", func(ctx context.Context) error {
			_, _, err := RecordContext(ctx, spec, nil)
			return err
		}},
		{"ReplayContext", func(ctx context.Context) error {
			_, err := ReplayContext(ctx, spec, log, plugins, nil)
			return err
		}},
		{"ReplayTraceContext", func(ctx context.Context) error {
			_, err := ReplayTraceContext(ctx, data, plugins)
			return err
		}},
	}
}

// TestContextDeadline checks that a context deadline interrupts a long run
// via the kernel's preemption check and surfaces as a typed *DeadlineError
// that also matches context.DeadlineExceeded, whichever entry point ran
// it: farosd maps that type to 504 for live and trace jobs alike.
func TestContextDeadline(t *testing.T) {
	spec, entries := spinnerEntryPoints(t)
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			err := e.run(ctx)
			var de *DeadlineError
			if !errors.As(err, &de) {
				t.Fatalf("err = %v, want *DeadlineError", err)
			}
			if de.Scenario != spec.Name {
				t.Errorf("DeadlineError.Scenario = %q, want %q", de.Scenario, spec.Name)
			}
			if de.Instructions == 0 || de.Instructions >= spec.MaxInstr {
				t.Errorf("DeadlineError.Instructions = %d, want mid-run", de.Instructions)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Error("err does not match context.DeadlineExceeded")
			}
		})
	}
}

// TestContextCancel checks explicit cancellation surfaces as a
// *CancelError from every entry point.
func TestContextCancel(t *testing.T) {
	spec, entries := spinnerEntryPoints(t)
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := e.run(ctx)
			var ce *CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CancelError", err)
			}
			if ce.Scenario != spec.Name {
				t.Errorf("CancelError.Scenario = %q, want %q", ce.Scenario, spec.Name)
			}
			if !errors.Is(err, context.Canceled) {
				t.Error("err does not match context.Canceled")
			}
		})
	}
}

// TestDetectContextNoDeadline checks the context path is inert for a
// background context: the analyst workflow (DetectPlugins) still flags.
func TestDetectContextNoDeadline(t *testing.T) {
	res, err := RunLiveContext(context.Background(), samples.ReflectiveDLLInject(), DetectPlugins(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flagged() {
		t.Error("reflective injection not flagged under DetectPlugins")
	}
}
