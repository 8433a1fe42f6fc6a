// Package trace defines the wire format for recorded executions: a
// versioned, compressed, streamable encoding of internal/record event logs
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
// data bytes. Chunks are bounded (~64 KiB of raw events), so both Writer
// and Reader stream multi-MB traces without ever buffering the whole file.
//
// Integrity: the header's spec hash must match the embedded spec wire
// bytes, the declared event count must match the stream, and the trailing
// checksum covers the entire file — any truncation or bit flip surfaces as
// a *CorruptError instead of a silently diverging replay. The trace digest
// (SHA-256 of the complete encoded file) is the content address the trace
// store and the (trace, config) result cache key off.
package trace

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"

	"faros/internal/record"
)

const (
	magic   = "FTRC"
	version = 1

	// chunkBytes is the raw (uncompressed) size at which the writer cuts a
	// chunk. Bounded chunks are what make the format streamable.
	chunkBytes = 64 * 1024

	// maxEventBytes bounds one event's payload at decode time so a corrupt
	// length prefix cannot ask for gigabytes.
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

// hashWriter tees every written byte into a running SHA-256.
type hashWriter struct {
	w   io.Writer
	h   hash.Hash
	all hash.Hash // digest of the complete file, trailer included
}

func (hw *hashWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	hw.h.Write(p[:n])
	hw.all.Write(p[:n])
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return n, err
}

// Writer streams a trace to an io.Writer: header first, then events
// appended one at a time, compressed in bounded chunks, with the trailing
// checksum written at Close. Multi-MB traces never sit in memory whole.
type Writer struct {
	hw       *hashWriter
	raw      bytes.Buffer
	scratch  []byte
	declared uint64
	count    uint64
	closed   bool
	digest   string
	err      error
}

// NewWriter writes the header and returns a streaming writer. meta.Events
// must declare the exact number of events that will be appended (the
// header precedes the stream, and the format is append-only); meta.SpecHash
// is filled from meta.SpecWire when empty.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if meta.SpecHash == "" {
		meta.SpecHash = Digest(meta.SpecWire)
	}
	if err := meta.validate(); err != nil {
		return nil, err
	}
	hw := &hashWriter{w: w, h: sha256.New(), all: sha256.New()}
	tw := &Writer{hw: hw, declared: meta.Events}
	var hdr bytes.Buffer
	hdr.WriteString(magic)
	hdr.WriteByte(version)
	putUvarintString := func(s []byte) {
		var tmp [binary.MaxVarintLen64]byte
		hdr.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(s)))])
		hdr.Write(s)
	}
	putUvarintString([]byte(meta.Scenario))
	putUvarintString(meta.SpecWire)
	specSum, _ := hex.DecodeString(meta.SpecHash)
	hdr.Write(specSum)
	memSum := make([]byte, sha256.Size)
	if meta.MemImage != "" {
		memSum, _ = hex.DecodeString(meta.MemImage)
	}
	hdr.Write(memSum)
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], meta.FinalInstr)
	hdr.Write(be[:])
	binary.BigEndian.PutUint64(be[:], meta.Events)
	hdr.Write(be[:])
	if _, err := hw.Write(hdr.Bytes()); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return tw, nil
}

// Append encodes one event into the pending chunk, flushing it when it
// reaches the chunk bound.
func (w *Writer) Append(ev record.Event) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: append after Close")
	}
	w.scratch = w.scratch[:0]
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { w.scratch = append(w.scratch, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	put(ev.At)
	w.scratch = append(w.scratch, byte(ev.Kind))
	put(uint64(ev.Flow))
	put(uint64(ev.Seq))
	put(uint64(ev.Sum))
	put(uint64(len(ev.Data)))
	w.raw.Write(w.scratch)
	w.raw.Write(ev.Data)
	w.count++
	if w.raw.Len() >= chunkBytes {
		w.err = w.flushChunk()
	}
	return w.err
}

// flushChunk compresses and emits the pending raw buffer as one chunk.
func (w *Writer) flushChunk() error {
	if w.raw.Len() == 0 {
		return nil
	}
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		return fmt.Errorf("trace: flate: %w", err)
	}
	if _, err := fw.Write(w.raw.Bytes()); err != nil {
		return fmt.Errorf("trace: compress chunk: %w", err)
	}
	if err := fw.Close(); err != nil {
		return fmt.Errorf("trace: compress chunk: %w", err)
	}
	var tmp [binary.MaxVarintLen64]byte
	if _, err := w.hw.Write(tmp[:binary.PutUvarint(tmp[:], uint64(comp.Len()))]); err != nil {
		return fmt.Errorf("trace: write chunk: %w", err)
	}
	if _, err := w.hw.Write(comp.Bytes()); err != nil {
		return fmt.Errorf("trace: write chunk: %w", err)
	}
	w.raw.Reset()
	return nil
}

// Close flushes the final chunk, writes the end marker and the trailing
// checksum, and seals the trace. It fails if the appended event count does
// not match the header's declaration.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if w.count != w.declared {
		w.err = fmt.Errorf("trace: header declares %d events, %d appended", w.declared, w.count)
		return w.err
	}
	if err := w.flushChunk(); err != nil {
		w.err = err
		return err
	}
	if _, err := w.hw.Write([]byte{0}); err != nil { // end-of-stream marker
		w.err = fmt.Errorf("trace: write end marker: %w", err)
		return w.err
	}
	sum := w.hw.h.Sum(nil)
	if _, err := w.hw.Write(sum); err != nil {
		w.err = fmt.Errorf("trace: write checksum: %w", err)
		return w.err
	}
	w.digest = hex.EncodeToString(w.hw.all.Sum(nil))
	return nil
}

// Digest returns the content address of the finished trace (valid after a
// successful Close).
func (w *Writer) Digest() string { return w.digest }

// hashReader tees every consumed byte into running SHA-256s and counts
// them; the trailer read bypasses the checksum hash but not the content
// digest.
type hashReader struct {
	r   io.Reader
	h   hash.Hash
	all hash.Hash
}

func (hr *hashReader) readFull(p []byte, hashed bool) error {
	if _, err := io.ReadFull(hr.r, p); err != nil {
		return err
	}
	if hashed {
		hr.h.Write(p)
	}
	hr.all.Write(p)
	return nil
}

func (hr *hashReader) readByte(hashed bool) (byte, error) {
	var b [1]byte
	if err := hr.readFull(b[:], hashed); err != nil {
		return 0, err
	}
	return b[0], nil
}

func (hr *hashReader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := hr.readByte(true)
		if err != nil {
			return 0, err
		}
		if i == binary.MaxVarintLen64 {
			return 0, errors.New("uvarint overflows")
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errors.New("uvarint overflows")
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// Reader streams a trace from an io.Reader. The header is parsed at
// construction; events come one at a time from Next. Only one chunk is
// buffered at a time.
type Reader struct {
	hr        *hashReader
	meta      Meta
	chunk     []byte // decompressed events not yet consumed
	remaining uint64
	done      bool
	digest    string
}

// NewReader parses and verifies the trace header. Framing damage anywhere
// after this point surfaces from Next as a *CorruptError.
func NewReader(r io.Reader) (*Reader, error) {
	hr := &hashReader{r: r, h: sha256.New(), all: sha256.New()}
	head := make([]byte, 5)
	if err := hr.readFull(head, true); err != nil {
		return nil, &CorruptError{Reason: "short read on magic: " + err.Error()}
	}
	if string(head[:4]) != magic {
		return nil, &CorruptError{Reason: fmt.Sprintf("bad magic %q", head[:4])}
	}
	if head[4] != version {
		return nil, &CorruptError{Reason: fmt.Sprintf("unknown trace version %d", head[4])}
	}
	tr := &Reader{hr: hr}
	readBlob := func(what string, limit uint64) ([]byte, error) {
		n, err := hr.readUvarint()
		if err != nil {
			return nil, &CorruptError{Reason: what + " length: " + err.Error()}
		}
		if n > limit {
			return nil, &CorruptError{Reason: fmt.Sprintf("%s length %d exceeds limit %d", what, n, limit)}
		}
		buf := make([]byte, n)
		if err := hr.readFull(buf, true); err != nil {
			return nil, &CorruptError{Reason: "short read on " + what + ": " + err.Error()}
		}
		return buf, nil
	}
	name, err := readBlob("scenario name", 4096)
	if err != nil {
		return nil, err
	}
	tr.meta.Scenario = string(name)
	if tr.meta.SpecWire, err = readBlob("spec wire", maxEventBytes); err != nil {
		return nil, err
	}
	sums := make([]byte, 2*sha256.Size+16)
	if err := hr.readFull(sums, true); err != nil {
		return nil, &CorruptError{Reason: "short read on header digests: " + err.Error()}
	}
	tr.meta.SpecHash = hex.EncodeToString(sums[:sha256.Size])
	tr.meta.MemImage = hex.EncodeToString(sums[sha256.Size : 2*sha256.Size])
	tr.meta.FinalInstr = binary.BigEndian.Uint64(sums[2*sha256.Size:])
	tr.meta.Events = binary.BigEndian.Uint64(sums[2*sha256.Size+8:])
	tr.remaining = tr.meta.Events
	if err := tr.meta.validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Digest returns the trace's content address (valid after Next returned
// io.EOF, i.e. after the whole file was consumed and verified).
func (r *Reader) Digest() string { return r.digest }

// Next returns the next event. io.EOF is returned only after the
// end-of-stream marker, the declared event count, and the whole-file
// checksum have all verified; any damage yields a *CorruptError instead.
func (r *Reader) Next() (record.Event, error) {
	for len(r.chunk) == 0 {
		if r.done {
			return record.Event{}, io.EOF
		}
		n, err := r.hr.readUvarint()
		if err != nil {
			return record.Event{}, &CorruptError{Reason: "chunk length: " + err.Error()}
		}
		if n == 0 {
			// End marker: verify count, then the trailing checksum.
			if r.remaining != 0 {
				return record.Event{}, &CorruptError{Reason: fmt.Sprintf("stream ended with %d of %d declared events missing", r.remaining, r.meta.Events)}
			}
			want := r.hr.h.Sum(nil)
			got := make([]byte, sha256.Size)
			if err := r.hr.readFull(got, false); err != nil {
				return record.Event{}, &CorruptError{Reason: "short read on trailing checksum: " + err.Error()}
			}
			if !bytes.Equal(want, got) {
				return record.Event{}, &CorruptError{Reason: "whole-file checksum mismatch"}
			}
			r.done = true
			r.digest = hex.EncodeToString(r.hr.all.Sum(nil))
			return record.Event{}, io.EOF
		}
		if n > maxEventBytes {
			return record.Event{}, &CorruptError{Reason: fmt.Sprintf("chunk length %d exceeds limit", n)}
		}
		comp := make([]byte, n)
		if err := r.hr.readFull(comp, true); err != nil {
			return record.Event{}, &CorruptError{Reason: "short read on chunk: " + err.Error()}
		}
		fr := flate.NewReader(bytes.NewReader(comp))
		raw, err := io.ReadAll(io.LimitReader(fr, maxEventBytes+1))
		if err != nil {
			return record.Event{}, &CorruptError{Reason: "decompress chunk: " + err.Error()}
		}
		if len(raw) > maxEventBytes {
			return record.Event{}, &CorruptError{Reason: "decompressed chunk exceeds limit"}
		}
		r.chunk = raw
	}
	if r.remaining == 0 {
		return record.Event{}, &CorruptError{Reason: "stream carries more events than the header declares"}
	}
	ev, rest, err := decodeEvent(r.chunk)
	if err != nil {
		return record.Event{}, err
	}
	r.chunk = rest
	r.remaining--
	return ev, nil
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

// Encode writes a complete trace for the events and returns its content
// digest.
func Encode(w io.Writer, meta Meta, events []record.Event) (string, error) {
	meta.Events = uint64(len(events))
	tw, err := NewWriter(w, meta)
	if err != nil {
		return "", err
	}
	for _, ev := range events {
		if err := tw.Append(ev); err != nil {
			return "", err
		}
	}
	if err := tw.Close(); err != nil {
		return "", err
	}
	return tw.Digest(), nil
}

// EncodeLog encodes a recorded log under the given header, returning the
// serialized trace and its content digest. meta.Scenario, FinalInstr, and
// Events are taken from the log.
func EncodeLog(meta Meta, log *record.Log) ([]byte, string, error) {
	meta.Scenario = log.Scenario
	meta.FinalInstr = log.FinalInstr
	var buf bytes.Buffer
	digest, err := Encode(&buf, meta, log.Events)
	if err != nil {
		return nil, "", err
	}
	return buf.Bytes(), digest, nil
}

// Decode streams a trace to completion, verifying the declared event count
// and the whole-file checksum before returning the reconstructed log.
func Decode(r io.Reader) (Meta, *record.Log, error) {
	tr, err := NewReader(r)
	if err != nil {
		return Meta{}, nil, err
	}
	log := &record.Log{Scenario: tr.meta.Scenario, FinalInstr: tr.meta.FinalInstr}
	if tr.meta.Events > 0 {
		log.Events = make([]record.Event, 0, min(tr.meta.Events, 1<<20))
	}
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return tr.meta, log, nil
		}
		if err != nil {
			return Meta{}, nil, err
		}
		log.Events = append(log.Events, ev)
	}
}

// DecodeBytes is Decode over a byte slice, with one addition: a blob in
// the pre-trace gob encoding is recognized and reported as a typed
// *LegacyFormatError instead of generic corruption.
func DecodeBytes(data []byte) (Meta, *record.Log, error) {
	if len(data) < 5 || string(data[:4]) != magic {
		if looksLikeGobLog(data) {
			return Meta{}, nil, &LegacyFormatError{}
		}
	}
	return Decode(bytes.NewReader(data))
}

// ReadMeta parses just the header — enough to index a stored trace without
// decompressing its event stream. It performs no checksum verification.
func ReadMeta(r io.Reader) (Meta, error) {
	tr, err := NewReader(r)
	if err != nil {
		return Meta{}, err
	}
	return tr.meta, nil
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
