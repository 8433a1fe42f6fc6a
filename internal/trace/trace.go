// Package trace defines the wire format for recorded executions: a
// versioned, compressed encoding of internal/record event logs
// plus everything needed to re-run the analysis without the original
// process — the scenario's canonical spec wire form, its hash, a digest of
// the initial guest memory/filesystem image, and the instruction-count
// bound the replay must hit. A trace is the unit the replay farm queues,
// stores, and shards on: record once, analyze under as many engine
// configurations as you like.
//
// File layout, version 1 (integers big-endian, lengths uvarint):
//
//	offset 0: magic "FTRC" (4 bytes)
//	offset 4: format version (1 byte)
//	header:   uvarint len + scenario name
//	          uvarint len + spec wire form (samples.MarshalSpec JSON)
//	          32 bytes  SHA-256 of the spec wire form
//	          32 bytes  memory-image digest (samples.MemImageDigest)
//	          8 bytes   final instruction count (the replay bound)
//	          8 bytes   event count
//	body:     chunks of [uvarint compressed-length][flate-compressed events];
//	          a zero compressed-length ends the stream
//	trailer:  32 bytes SHA-256 of every preceding byte
//
// Each event inside a decompressed chunk is encoded as uvarint At, one
// byte Kind, uvarint Flow, uvarint Seq, uvarint Sum, uvarint data length,
// data bytes. The encoder cuts a chunk once it holds ~64 KiB of raw
// events.
//
// The codec works on byte slices: every caller holds the whole trace
// (EncodeLog returns it, the trace store keeps it, POST /traces reads the
// whole body). EncodeLog encodes, DecodeBytes verifies and decodes, and
// ReadMeta parses the header alone.
//
// Integrity: the header's spec hash must match the embedded spec wire
// bytes, the declared event count must match the stream, the trailing
// checksum covers the entire file, and nothing may follow it — any
// truncation, bit flip or appended byte surfaces as a *CorruptError
// instead of a silently diverging replay or a second address for the same
// recording. The trace digest (SHA-256 of the complete encoded file) is
// the content address the trace store and the (trace, config) result
// cache key off.
package trace

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"

	"faros/internal/record"
)

const (
	magic   = "FTRC"
	version = 1

	// chunkBytes is the raw (uncompressed) size at which the encoder cuts
	// a chunk.
	chunkBytes = 64 * 1024

	// The decoder's bounds. EncodeLog enforces them too, so it never writes
	// a trace the decoder rejects.
	//
	// maxNameBytes bounds the scenario name.
	maxNameBytes = 4096
	// maxEventBytes bounds the spec wire, a chunk (compressed and
	// decompressed) and one event's payload, so a corrupt length prefix
	// cannot ask for gigabytes.
	maxEventBytes = 64 << 20
)

// Meta is the trace header: everything about the recorded run except the
// event stream itself.
type Meta struct {
	// Scenario is the recorded scenario's name.
	Scenario string `json:"scenario"`
	// SpecWire is the scenario's canonical wire form (samples.MarshalSpec),
	// embedded so a trace is self-contained: the replay side materializes
	// the exact spec that was recorded.
	SpecWire []byte `json:"-"`
	// SpecHash is the lowercase-hex SHA-256 of SpecWire — the same identity
	// samples.SpecHash produces, verifiable without parsing the spec.
	SpecHash string `json:"spec_hash"`
	// MemImage is the lowercase-hex digest of the initial guest
	// memory/filesystem image (seed files + spec programs,
	// samples.MemImageDigest). A replay host whose baked-in image differs
	// from the recorder's would diverge; the digest turns that into a
	// typed up-front error.
	MemImage string `json:"mem_image"`
	// FinalInstr is the instruction count the recording retired — the
	// bound a faithful replay must hit exactly.
	FinalInstr uint64 `json:"final_instr"`
	// Events is the number of events in the stream.
	Events uint64 `json:"events"`
}

// CorruptError reports a trace that failed structural or checksum
// verification: truncation, bad framing, bit rot, or a declared count the
// stream does not honor.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string { return "trace: corrupt: " + e.Reason }

// LegacyFormatError reports a blob in the pre-trace gob log encoding. Old
// recordings carry no spec or image digest, so they cannot be verified or
// replayed as traces — re-record them.
type LegacyFormatError struct{}

func (e *LegacyFormatError) Error() string {
	return "trace: legacy gob recording (no spec hash or image digest); re-record with this version"
}

// MismatchError reports a trace whose identity does not match the job it
// was submitted against: the spec hash differs from the job's spec, or the
// memory-image digest differs from the image this binary would boot. It is
// typed so farosd can answer 4xx at submission instead of letting the
// replay silently diverge.
type MismatchError struct {
	Field string // "spec hash" or "memory-image digest"
	Want  string // the trace's value
	Got   string // the job's / this binary's value
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("trace: %s mismatch: trace has %s, job has %s", e.Field, e.Want, e.Got)
}

// Digest returns the lowercase-hex SHA-256 of a complete encoded trace —
// its content address.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validate checks a header's internal consistency.
func (m Meta) validate() error {
	if sum := Digest(m.SpecWire); m.SpecHash != "" && m.SpecHash != sum {
		return &CorruptError{Reason: fmt.Sprintf("spec hash %s does not match embedded spec wire (%s)", m.SpecHash, sum)}
	}
	if len(m.MemImage) != 0 {
		if _, err := hex.DecodeString(m.MemImage); err != nil || len(m.MemImage) != 2*sha256.Size {
			return &CorruptError{Reason: "memory-image digest is not a 32-byte hex string"}
		}
	}
	return nil
}

// EncodeLog encodes a recorded log under the given header, returning the
// serialized trace and its content digest. The scenario name, final
// instruction count and event count come from the log, not from meta. A
// log the decoder's bounds would reject is an error: a name over
// maxNameBytes, or a spec wire or chunk over maxEventBytes.
func EncodeLog(meta Meta, log *record.Log) ([]byte, string, error) {
	if err := meta.validate(); err != nil {
		return nil, "", err
	}
	if err := overLimit("scenario name", len(log.Scenario), maxNameBytes); err != nil {
		return nil, "", err
	}
	if err := overLimit("spec wire", len(meta.SpecWire), maxEventBytes); err != nil {
		return nil, "", err
	}
	out := append([]byte(magic), version)
	out = appendBlob(out, []byte(log.Scenario))
	out = appendBlob(out, meta.SpecWire)
	specSum := sha256.Sum256(meta.SpecWire)
	out = append(out, specSum[:]...)
	memSum := make([]byte, sha256.Size)
	if meta.MemImage != "" {
		memSum, _ = hex.DecodeString(meta.MemImage)
	}
	out = append(out, memSum...)
	out = binary.BigEndian.AppendUint64(out, log.FinalInstr)
	out = binary.BigEndian.AppendUint64(out, uint64(len(log.Events)))

	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.BestSpeed) // fails only on a bad level
	var raw []byte
	for i, ev := range log.Events {
		raw = binary.AppendUvarint(raw, ev.At)
		raw = append(raw, byte(ev.Kind))
		raw = binary.AppendUvarint(raw, uint64(ev.Flow))
		raw = binary.AppendUvarint(raw, uint64(ev.Seq))
		raw = binary.AppendUvarint(raw, uint64(ev.Sum))
		raw = binary.AppendUvarint(raw, uint64(len(ev.Data)))
		raw = append(raw, ev.Data...)
		if len(raw) >= chunkBytes || i == len(log.Events)-1 {
			if err := overLimit("chunk", len(raw), maxEventBytes); err != nil {
				return nil, "", err
			}
			// flate reports only its writer's errors, and a bytes.Buffer has none.
			comp.Reset()
			fw.Reset(&comp)
			fw.Write(raw)
			fw.Close()
			if err := overLimit("compressed chunk", comp.Len(), maxEventBytes); err != nil {
				return nil, "", err
			}
			out = appendBlob(out, comp.Bytes())
			raw = raw[:0]
		}
	}
	out = append(out, 0) // end-of-stream marker
	sum := sha256.Sum256(out)
	out = append(out, sum[:]...)
	return out, Digest(out), nil
}

// overLimit reports an encoder input of n bytes over the decoder's limit.
func overLimit(what string, n, limit int) error {
	if n > limit {
		return fmt.Errorf("trace: encode: %s length %d exceeds limit %d", what, n, limit)
	}
	return nil
}

// appendBlob appends a uvarint length prefix and the bytes it counts.
func appendBlob(out, b []byte) []byte {
	return append(binary.AppendUvarint(out, uint64(len(b))), b...)
}

// decoder walks an encoded trace front to back.
type decoder struct {
	data []byte
	pos  int
}

// uvarint reads one length or count.
func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	switch {
	case n == 0:
		return 0, &CorruptError{Reason: what + ": unexpected EOF"}
	case n < 0:
		return 0, &CorruptError{Reason: what + ": uvarint overflows"}
	}
	d.pos += n
	return v, nil
}

// bytes returns the next n bytes.
func (d *decoder) bytes(what string, n uint64) ([]byte, error) {
	if n > uint64(len(d.data)-d.pos) {
		return nil, &CorruptError{Reason: "short read on " + what}
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// blob reads a length-prefixed byte string of at most limit bytes.
func (d *decoder) blob(what string, limit uint64) ([]byte, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, &CorruptError{Reason: fmt.Sprintf("%s length %d exceeds limit %d", what, n, limit)}
	}
	return d.bytes(what, n)
}

// header parses and validates the magic, version and header fields.
func (d *decoder) header() (Meta, error) {
	head, err := d.bytes("magic", 5)
	if err != nil {
		return Meta{}, err
	}
	if string(head[:4]) != magic {
		return Meta{}, &CorruptError{Reason: fmt.Sprintf("bad magic %q", head[:4])}
	}
	if head[4] != version {
		return Meta{}, &CorruptError{Reason: fmt.Sprintf("unknown trace version %d", head[4])}
	}
	var m Meta
	name, err := d.blob("scenario name", maxNameBytes)
	if err != nil {
		return Meta{}, err
	}
	m.Scenario = string(name)
	wire, err := d.blob("spec wire", maxEventBytes)
	if err != nil {
		return Meta{}, err
	}
	m.SpecWire = append([]byte(nil), wire...)
	sums, err := d.bytes("header digests", 2*sha256.Size+16)
	if err != nil {
		return Meta{}, err
	}
	m.SpecHash = hex.EncodeToString(sums[:sha256.Size])
	m.MemImage = hex.EncodeToString(sums[sha256.Size : 2*sha256.Size])
	m.FinalInstr = binary.BigEndian.Uint64(sums[2*sha256.Size:])
	m.Events = binary.BigEndian.Uint64(sums[2*sha256.Size+8:])
	if err := m.validate(); err != nil {
		return Meta{}, err
	}
	return m, nil
}

// DecodeBytes decodes a complete trace, verifying the declared event
// count and the whole-file checksum, and requiring the checksum to be the
// last 32 bytes: a recording has exactly one encoding on the wire, so one
// content address. A blob in the pre-trace gob encoding is reported as a
// typed *LegacyFormatError instead of generic corruption.
func DecodeBytes(data []byte) (Meta, *record.Log, error) {
	if len(data) < 5 || string(data[:4]) != magic {
		if looksLikeGobLog(data) {
			return Meta{}, nil, &LegacyFormatError{}
		}
	}
	d := &decoder{data: data}
	meta, err := d.header()
	if err != nil {
		return Meta{}, nil, err
	}
	log := &record.Log{Scenario: meta.Scenario, FinalInstr: meta.FinalInstr}
	if meta.Events > 0 {
		// The declared count is only a hint until the stream honours it:
		// bound the preallocation by the input size too, so a tiny blob
		// claiming 2^64 events cannot reserve megabytes.
		log.Events = make([]record.Event, 0, min(meta.Events, uint64(len(data)), 1<<20))
	}
	for {
		comp, err := d.blob("chunk", maxEventBytes)
		if err != nil {
			return Meta{}, nil, err
		}
		if len(comp) == 0 {
			break // end marker
		}
		raw, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(comp)), maxEventBytes+1))
		if err != nil {
			return Meta{}, nil, &CorruptError{Reason: "decompress chunk: " + err.Error()}
		}
		if len(raw) > maxEventBytes {
			return Meta{}, nil, &CorruptError{Reason: "decompressed chunk exceeds limit"}
		}
		for len(raw) > 0 {
			if uint64(len(log.Events)) == meta.Events {
				return Meta{}, nil, &CorruptError{Reason: "stream carries more events than the header declares"}
			}
			var ev record.Event
			if ev, raw, err = decodeEvent(raw); err != nil {
				return Meta{}, nil, err
			}
			log.Events = append(log.Events, ev)
		}
	}
	if got := uint64(len(log.Events)); got != meta.Events {
		return Meta{}, nil, &CorruptError{Reason: fmt.Sprintf("stream ended with %d of %d declared events missing", meta.Events-got, meta.Events)}
	}
	switch rest := len(data) - d.pos; {
	case rest < sha256.Size:
		return Meta{}, nil, &CorruptError{Reason: "short read on trailing checksum"}
	case rest > sha256.Size:
		return Meta{}, nil, &CorruptError{Reason: fmt.Sprintf("%d trailing bytes after the checksum", rest-sha256.Size)}
	}
	if sum := sha256.Sum256(data[:d.pos]); !bytes.Equal(sum[:], data[d.pos:]) {
		return Meta{}, nil, &CorruptError{Reason: "whole-file checksum mismatch"}
	}
	return meta, log, nil
}

// ReadMeta parses just the header — enough to index a stored trace without
// decompressing its event stream. It performs no checksum verification.
func ReadMeta(data []byte) (Meta, error) {
	return (&decoder{data: data}).header()
}

// decodeEvent parses one event from the front of a decompressed chunk.
func decodeEvent(buf []byte) (record.Event, []byte, error) {
	var ev record.Event
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, &CorruptError{Reason: "event " + what + ": bad uvarint"}
		}
		buf = buf[n:]
		return v, nil
	}
	at, err := next("at")
	if err != nil {
		return ev, nil, err
	}
	ev.At = at
	if len(buf) == 0 {
		return ev, nil, &CorruptError{Reason: "event truncated at kind"}
	}
	ev.Kind = record.EventKind(buf[0])
	buf = buf[1:]
	flow, err := next("flow")
	if err != nil {
		return ev, nil, err
	}
	ev.Flow = uint32(flow)
	seq, err := next("seq")
	if err != nil {
		return ev, nil, err
	}
	ev.Seq = uint32(seq)
	sum, err := next("sum")
	if err != nil {
		return ev, nil, err
	}
	ev.Sum = uint32(sum)
	dlen, err := next("data length")
	if err != nil {
		return ev, nil, err
	}
	if dlen > maxEventBytes || dlen > uint64(len(buf)) {
		return ev, nil, &CorruptError{Reason: fmt.Sprintf("event data length %d exceeds chunk remainder %d", dlen, len(buf))}
	}
	if dlen > 0 {
		ev.Data = append([]byte(nil), buf[:dlen]...)
		buf = buf[dlen:]
	}
	return ev, buf, nil
}

// legacyLog mirrors the retired gob encoding of record.Log (the decode
// shim for old blobs: recognized, named, rejected).
type legacyLog struct {
	Scenario   string
	Events     []record.Event
	FinalInstr uint64
}

// looksLikeGobLog reports whether data decodes as the retired gob log
// format.
func looksLikeGobLog(data []byte) bool {
	var l legacyLog
	return gob.NewDecoder(bytes.NewReader(data)).Decode(&l) == nil
}
