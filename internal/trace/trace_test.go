package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"faros/internal/record"
	"faros/internal/samples"
)

// testMeta builds a header around a real spec's wire form so round trips
// exercise the embedded-spec path end to end.
func testMeta(t *testing.T) Meta {
	t.Helper()
	spec := samples.ReflectiveDLLInject()
	wire, err := samples.MarshalSpec(spec)
	if err != nil {
		t.Fatalf("MarshalSpec: %v", err)
	}
	return Meta{
		Scenario: spec.Name,
		SpecWire: wire,
		SpecHash: Digest(wire),
		MemImage: samples.MemImageDigest(spec),
	}
}

// testEvents returns a log with varied field shapes: empty data, large
// data (multiple chunks), max-range varints.
func testEvents() []record.Event {
	big := make([]byte, 3*chunkBytes/2)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return []record.Event{
		{At: 0, Kind: record.EvKeyboard, Data: []byte("hi")},
		{At: 1, Kind: record.EvPacketIn, Flow: 3, Seq: 9, Sum: 0xDEADBEEF, Data: []byte{0}},
		{At: 1 << 40, Kind: record.EvAudio, Flow: ^uint32(0), Seq: ^uint32(0), Sum: ^uint32(0), Data: big},
		{At: 5, Kind: record.EvFlowClose, Flow: 3},
		{At: ^uint64(0), Kind: record.EvShutdown},
	}
}

// encode encodes events under meta's header through EncodeLog.
func encode(t *testing.T, meta Meta, events []record.Event) []byte {
	t.Helper()
	data, digest, err := EncodeLog(meta, &record.Log{Scenario: meta.Scenario, FinalInstr: meta.FinalInstr, Events: events})
	if err != nil {
		t.Fatalf("EncodeLog: %v", err)
	}
	if digest != Digest(data) {
		t.Fatalf("EncodeLog digest %s != content digest %s", digest, Digest(data))
	}
	return data
}

func TestCodecRoundTrip(t *testing.T) {
	meta := testMeta(t)
	meta.FinalInstr = 123456
	events := testEvents()
	data := encode(t, meta, events)

	got, log, err := DecodeBytes(data)
	if err != nil {
		t.Fatalf("DecodeBytes: %v", err)
	}
	if got.Scenario != meta.Scenario || got.SpecHash != meta.SpecHash ||
		got.MemImage != meta.MemImage || got.FinalInstr != meta.FinalInstr {
		t.Fatalf("meta round trip: got %+v", got)
	}
	if !bytes.Equal(got.SpecWire, meta.SpecWire) {
		t.Fatal("spec wire did not round trip")
	}
	if got.Events != uint64(len(events)) {
		t.Fatalf("event count %d, want %d", got.Events, len(events))
	}
	if len(log.Events) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(log.Events), len(events))
	}
	for i := range events {
		if !reflect.DeepEqual(normalize(events[i]), normalize(log.Events[i])) {
			t.Fatalf("event %d: got %+v want %+v", i, log.Events[i], events[i])
		}
	}
	if log.Scenario != meta.Scenario || log.FinalInstr != meta.FinalInstr {
		t.Fatalf("log header: %q %d", log.Scenario, log.FinalInstr)
	}
}

// normalize maps empty and nil data to the same shape for comparison.
func normalize(ev record.Event) record.Event {
	if len(ev.Data) == 0 {
		ev.Data = nil
	}
	return ev
}

func TestCodecEmptyLog(t *testing.T) {
	got, log, err := DecodeBytes(encode(t, testMeta(t), nil))
	if err != nil {
		t.Fatalf("DecodeBytes empty: %v", err)
	}
	if got.Events != 0 || len(log.Events) != 0 {
		t.Fatalf("empty log decoded to %d events", len(log.Events))
	}
}

func TestEncodeRejectsBadSpecHash(t *testing.T) {
	meta := testMeta(t)
	meta.SpecHash = Digest([]byte("not the spec"))
	var ce *CorruptError
	if _, _, err := EncodeLog(meta, &record.Log{}); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

// TestEncodeRejectsWhatDecodeRejects: EncodeLog refuses a log whose
// scenario name exceeds the decoder's limit instead of writing a trace
// nothing can read; a name at the limit round-trips.
func TestEncodeRejectsWhatDecodeRejects(t *testing.T) {
	meta := testMeta(t)
	if data, _, err := EncodeLog(meta, &record.Log{Scenario: strings.Repeat("n", 5000)}); err == nil {
		_, _, derr := DecodeBytes(data)
		t.Fatalf("EncodeLog accepted a 5000-byte name; DecodeBytes: %v", derr)
	}
	name := strings.Repeat("n", maxNameBytes)
	data, _, err := EncodeLog(meta, &record.Log{Scenario: name})
	if err != nil {
		t.Fatalf("EncodeLog at the name limit: %v", err)
	}
	if got, _, err := DecodeBytes(data); err != nil || got.Scenario != name {
		t.Fatalf("DecodeBytes at the name limit: %v", err)
	}
}

// TestTruncationAlwaysDetected: every proper prefix of a valid trace must
// fail to decode — no truncation point yields a silently shorter log.
func TestTruncationAlwaysDetected(t *testing.T) {
	data := encode(t, testMeta(t), testEvents())
	step := 1
	if len(data) > 4096 {
		step = len(data) / 4096 // sample large traces; always include 0
	}
	for n := 0; n < len(data); n += step {
		if _, _, err := DecodeBytes(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(data))
		}
	}
}

// TestBitFlipAlwaysDetected: flipping any single bit must surface as an
// error (typed *CorruptError unless the flip lands in the uncompressed
// header copy of the spec wire, where validation rejects it either way).
// Positions are drawn from the same seeded generator the chaos package
// uses, so failures reproduce from the seed.
func TestBitFlipAlwaysDetected(t *testing.T) {
	data := encode(t, testMeta(t), testEvents())
	state := uint64(0xFA205_7)
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := 0; i < 256; i++ {
		pos := int(next() % uint64(len(data)))
		bit := byte(1) << (next() % 8)
		bad := append([]byte(nil), data...)
		bad[pos] ^= bit
		if _, _, err := DecodeBytes(bad); err == nil {
			t.Fatalf("bit flip at byte %d (mask %#x) decoded cleanly", pos, bit)
		}
	}
}

func TestLegacyGobRecognized(t *testing.T) {
	// The retired encoding: gob over the old record.Log shape.
	old := struct {
		Scenario   string
		Events     []record.Event
		FinalInstr uint64
	}{Scenario: "ancient", Events: testEvents(), FinalInstr: 42}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var le *LegacyFormatError
	if _, _, err := DecodeBytes(buf.Bytes()); !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LegacyFormatError", err)
	}
	// Arbitrary garbage is corruption, not a legacy blob.
	var ce *CorruptError
	if _, _, err := DecodeBytes([]byte("certainly not a trace")); !errors.As(err, &ce) {
		t.Fatalf("garbage err = %v, want *CorruptError", err)
	}
}

func TestReadMetaHeaderOnly(t *testing.T) {
	meta := testMeta(t)
	meta.FinalInstr = 7
	got, err := ReadMeta(encode(t, meta, testEvents()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != meta.Scenario || got.FinalInstr != 7 || got.Events != uint64(len(testEvents())) {
		t.Fatalf("ReadMeta: %+v", got)
	}
}

// TestTrailingBytesRejected: a recording has one encoding, so one content
// address. Bytes after the trailer would give the same recording a second
// digest, so the decoder and the store reject them as corruption.
func TestTrailingBytesRejected(t *testing.T) {
	data := append(encode(t, testMeta(t), testEvents()), 0)
	var ce *CorruptError
	if _, _, err := DecodeBytes(data); !errors.As(err, &ce) {
		t.Fatalf("DecodeBytes err = %v, want *CorruptError", err)
	}
	s, err := OpenStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Put(data); !errors.As(err, &ce) {
		t.Fatalf("Put err = %v, want *CorruptError", err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after a rejected Put, want 0", s.Len())
	}
}

// TestDeclaredCountReservesNoMemory: the header's event count is not
// trusted for allocation before the stream honours it, so a small blob
// declaring 2^64 events costs kilobytes to reject, not 48 MiB.
func TestDeclaredCountReservesNoMemory(t *testing.T) {
	data := encode(t, testMeta(t), nil)
	count := len(data) - sha256.Size - 1 - 8 // before the end marker and trailer
	binary.BigEndian.PutUint64(data[count:], ^uint64(0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeBytes(data)
	runtime.ReadMemStats(&after)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rejecting a %d-byte trace allocated %d bytes", len(data), n)
	}
}
