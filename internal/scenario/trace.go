package scenario

import (
	"context"
	"fmt"

	"faros/internal/faults"
	"faros/internal/record"
	"faros/internal/samples"
	"faros/internal/trace"
)

// Trace-level workflow: the record-once/analyze-many split. RecordTrace
// captures a live run into the self-contained wire format (spec embedded,
// identity digests in the header); ReplayTraceContext re-runs the DIFT
// analysis from the encoded bytes alone, verifying first that this
// binary's memory image matches the one the trace was recorded against.

// traceMeta builds the trace header for a spec: canonical spec wire form,
// its hash, and the memory-image digest this binary would boot the spec
// with. It fails for specs without a wire encoding (out-of-tree
// endpoints), which are not recordable as portable traces.
func traceMeta(spec samples.Spec) (trace.Meta, error) {
	wire, err := samples.MarshalSpec(spec)
	if err != nil {
		return trace.Meta{}, fmt.Errorf("scenario %s: not traceable: %w", spec.Name, err)
	}
	return trace.Meta{
		Scenario: spec.Name,
		SpecWire: wire,
		SpecHash: trace.Digest(wire),
		MemImage: samples.MemImageDigest(spec),
	}, nil
}

// EncodeTrace serializes a recorded log as a trace for the spec it was
// recorded from, returning the encoded bytes and their content digest.
func EncodeTrace(spec samples.Spec, log *record.Log) ([]byte, string, error) {
	meta, err := traceMeta(spec)
	if err != nil {
		return nil, "", err
	}
	return trace.EncodeLog(meta, log)
}

// RecordTrace records the scenario live (no analysis plugins) and returns
// the encoded trace, its digest, and the recording pass's Result.
func RecordTrace(ctx context.Context, spec samples.Spec, plan *faults.Plan) ([]byte, string, *Result, error) {
	meta, err := traceMeta(spec)
	if err != nil {
		return nil, "", nil, err
	}
	log, res, err := RecordContext(ctx, spec, plan)
	if err != nil {
		return nil, "", nil, err
	}
	data, digest, err := trace.EncodeLog(meta, log)
	if err != nil {
		return nil, "", nil, err
	}
	return data, digest, res, nil
}

// VerifyTraceMeta checks a decoded trace header against this binary: the
// embedded spec must parse, and the memory-image digest the spec produces
// here must equal the one recorded in the header. A disagreement means the
// replay would boot a different initial state than the recording saw, so
// it is reported up front as a typed *trace.MismatchError instead of a
// divergence deep into the run.
func VerifyTraceMeta(meta trace.Meta) (samples.Spec, error) {
	spec, err := samples.UnmarshalSpec(meta.SpecWire)
	if err != nil {
		return samples.Spec{}, fmt.Errorf("trace %s: embedded spec: %w", meta.Scenario, err)
	}
	if img := samples.MemImageDigest(spec); meta.MemImage != img {
		return samples.Spec{}, &trace.MismatchError{Field: "memory-image digest", Want: meta.MemImage, Got: img}
	}
	return spec, nil
}

// ReplayTraceContext decodes a trace, verifies its identity digests
// against this binary, and replays it with the given analysis plugins
// attached — analysis without live guest execution. Decode failures are
// typed (*trace.CorruptError, *trace.LegacyFormatError), identity drift is
// a *trace.MismatchError, and a replay that does not reproduce the
// recording returns a *record.DivergenceError like any other replay.
func ReplayTraceContext(ctx context.Context, data []byte, plugins Plugins) (*Result, error) {
	meta, log, err := trace.DecodeBytes(data)
	if err != nil {
		return nil, err
	}
	spec, err := VerifyTraceMeta(meta)
	if err != nil {
		return nil, err
	}
	return ReplayContext(ctx, spec, log, plugins, nil)
}
