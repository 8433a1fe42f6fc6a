package scenario

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"faros/internal/core"
	"faros/internal/samples"
	"faros/internal/trace"
)

// TestTraceReplayMatchesLiveCorpus is the fidelity property behind the
// replay farm: for every attack and benign sample, analyzing the encoded
// trace must produce identical findings and engine counters to replaying
// the in-memory log directly — the wire format adds nothing and loses
// nothing.
func TestTraceReplayMatchesLiveCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus")
	}
	specs := append([]samples.Spec{}, samples.Attacks()...)
	specs = append(specs, samples.BenignPrograms()...)
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			log, _, err := RecordContext(context.Background(), spec, nil)
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			data, digest, err := EncodeTrace(spec, log)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if digest != trace.Digest(data) {
				t.Fatalf("digest %s != content digest", digest)
			}
			plugins := Plugins{Faros: &core.Config{}}
			live, err := ReplayContext(context.Background(), spec, log, plugins, nil)
			if err != nil {
				t.Fatalf("live replay: %v", err)
			}
			fromTrace, err := ReplayTraceContext(context.Background(), data, plugins)
			if err != nil {
				t.Fatalf("trace replay: %v", err)
			}
			if live.Summary.Instructions != fromTrace.Summary.Instructions {
				t.Fatalf("instructions: live %d, trace %d",
					live.Summary.Instructions, fromTrace.Summary.Instructions)
			}
			// Findings whole: rule, addresses, disassembly, provenance ids
			// and graphs.
			if !reflect.DeepEqual(live.Findings(), fromTrace.Findings()) {
				t.Errorf("findings diverge:\nlive:  %+v\ntrace: %+v", live.Findings(), fromTrace.Findings())
			}
			if s1, s2 := live.Faros.Stats(), fromTrace.Faros.Stats(); s1 != s2 {
				t.Errorf("engine stats diverge:\nlive:  %+v\ntrace: %+v", s1, s2)
			}
		})
	}
}

// TestRecordTraceWorkflow: the one-call record path yields a decodable,
// verifiable trace whose replay flags the attack.
func TestRecordTraceWorkflow(t *testing.T) {
	spec := samples.ReflectiveDLLInject()
	data, digest, rec, err := RecordTrace(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if digest != trace.Digest(data) || rec.Summary.Instructions == 0 {
		t.Fatalf("digest=%s instr=%d", digest, rec.Summary.Instructions)
	}
	meta, _, err := trace.DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Scenario != spec.Name || meta.FinalInstr != rec.Summary.Instructions {
		t.Fatalf("meta: %+v", meta)
	}
	res, err := ReplayTraceContext(context.Background(), data, Plugins{Faros: &core.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flagged() {
		t.Fatal("attack not flagged when replayed from its trace")
	}
}

// TestReplayTraceMemImageMismatch: a trace recorded against a different
// memory image is rejected up front with a typed error, not replayed into
// silent divergence.
func TestReplayTraceMemImageMismatch(t *testing.T) {
	spec := samples.ReflectiveDLLInject()
	log, _, err := RecordContext(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := traceMeta(spec)
	if err != nil {
		t.Fatal(err)
	}
	meta.MemImage = trace.Digest([]byte("someone else's image"))
	data, _, err := trace.EncodeLog(meta, log)
	if err != nil {
		t.Fatal(err)
	}
	var mm *trace.MismatchError
	if _, err := ReplayTraceContext(context.Background(), data, Plugins{Faros: &core.Config{}}); !errors.As(err, &mm) {
		t.Fatalf("err = %v, want *trace.MismatchError", err)
	}
	if mm.Field != "memory-image digest" {
		t.Fatalf("mismatch field %q", mm.Field)
	}
}

// TestReplayTraceCorrupt: damage surfaces as *trace.CorruptError through
// the replay entry point too.
func TestReplayTraceCorrupt(t *testing.T) {
	spec := samples.ReflectiveDLLInject()
	log, _, err := RecordContext(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := EncodeTrace(spec, log)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	var ce *trace.CorruptError
	if _, err := ReplayTraceContext(context.Background(), data, Plugins{Faros: &core.Config{}}); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *trace.CorruptError", err)
	}
}

// TestMemImageDigestSensitivity: the digest pins both the seed filesystem
// and the program set.
func TestMemImageDigestSensitivity(t *testing.T) {
	spec := samples.ReflectiveDLLInject()
	base := samples.MemImageDigest(spec)
	if base != samples.MemImageDigest(spec) {
		t.Fatal("digest not deterministic")
	}
	mod := spec
	mod.Programs = append([]samples.Program{}, spec.Programs...)
	mod.Programs[0].Bytes = append([]byte{0x90}, mod.Programs[0].Bytes...)
	if samples.MemImageDigest(mod) == base {
		t.Fatal("digest ignores program bytes")
	}
}
