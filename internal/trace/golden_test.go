package trace_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"faros/internal/record"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/trace"
)

// goldenTrace is one pinned recording: a name and its encoded bytes.
type goldenTrace struct {
	name string
	data []byte
}

// goldenTraces encodes the recordings whose content addresses
// testdata/digests.golden pins: the codec tests' multi-chunk log, the
// empty log, and a live recording of every attack scenario.
func goldenTraces(tb testing.TB) []goldenTrace {
	tb.Helper()
	spec := samples.ReflectiveDLLInject()
	wire, err := samples.MarshalSpec(spec)
	if err != nil {
		tb.Fatalf("MarshalSpec: %v", err)
	}
	meta := trace.Meta{
		SpecWire: wire,
		SpecHash: trace.Digest(wire),
		MemImage: samples.MemImageDigest(spec),
	}
	var out []goldenTrace
	for _, c := range []struct {
		name string
		log  *record.Log
	}{
		{"codec/events", &record.Log{Scenario: spec.Name, FinalInstr: 123456, Events: trace.SampleEvents()}},
		{"codec/empty", &record.Log{Scenario: spec.Name}},
	} {
		data, _, err := trace.EncodeLog(meta, c.log)
		if err != nil {
			tb.Fatalf("%s: EncodeLog: %v", c.name, err)
		}
		out = append(out, goldenTrace{c.name, data})
	}
	for _, spec := range samples.Attacks() {
		data, _, _, err := scenario.RecordTrace(context.Background(), spec, nil)
		if err != nil {
			tb.Fatalf("%s: RecordTrace: %v", spec.Name, err)
		}
		out = append(out, goldenTrace{"record/" + spec.Name, data})
	}
	return out
}

// TestTraceDigestGolden pins the v1 wire format byte for byte: a trace's
// digest is its content address in the trace store and the result cache,
// so any change to the encoding would orphan every stored recording.
func TestTraceDigestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/digests.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, g := range goldenTraces(t) {
		fmt.Fprintf(&got, "%s %d %s\n", g.name, len(g.data), trace.Digest(g.data))
	}
	if got.String() != string(want) {
		t.Fatalf("trace encoding changed; the v1 wire format must stay byte-identical\ngot:\n%swant:\n%s", got.String(), want)
	}
}
