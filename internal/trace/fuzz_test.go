package trace_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"faros/internal/record"
	"faros/internal/trace"
)

// FuzzTraceDecode holds the decoder to its contract on inputs nobody
// wrote: DecodeBytes and ReadMeta never panic, every rejection is typed,
// and an accepted trace re-encodes through EncodeLog to one that decodes
// to the same header and events.
func FuzzTraceDecode(f *testing.F) {
	for _, g := range goldenTraces(f) {
		f.Add(g.data)
	}
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(struct {
		Scenario   string
		Events     []record.Event
		FinalInstr uint64
	}{Scenario: "ancient", Events: trace.SampleEvents()[:2], FinalInstr: 42}); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	f.Add([]byte("certainly not a trace"))
	f.Add([]byte("FTRC\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := trace.ReadMeta(data); err != nil {
			requireTyped(t, "ReadMeta", err)
		}
		meta, log, err := trace.DecodeBytes(data)
		if err != nil {
			requireTyped(t, "DecodeBytes", err)
			return
		}
		again, _, err := trace.EncodeLog(meta, log)
		if err != nil {
			t.Fatalf("re-encode of an accepted trace: %v", err)
		}
		meta2, log2, err := trace.DecodeBytes(again)
		if err != nil {
			t.Fatalf("decode of the re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(meta, meta2) {
			t.Fatalf("meta changed across re-encode:\n%+v\n%+v", meta, meta2)
		}
		if !reflect.DeepEqual(log, log2) {
			t.Fatalf("events changed across re-encode")
		}
	})
}

// requireTyped fails unless err is one of the decoder's typed rejections.
func requireTyped(t *testing.T, what string, err error) {
	t.Helper()
	var ce *trace.CorruptError
	var le *trace.LegacyFormatError
	if !errors.As(err, &ce) && !errors.As(err, &le) {
		t.Fatalf("%s: untyped rejection %T: %v", what, err, err)
	}
}
