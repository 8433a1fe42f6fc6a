package samples

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"faros/internal/guest/gnet"
	"faros/internal/record"
)

// Spec wire format: a canonical, byte-stable serialization of a fully
// materialized Spec (programs as built bytes, endpoints as named scripts,
// scripted device events). Two uses:
//
//   - transport: farosd accepts serialized specs over HTTP, so a client can
//     submit a scenario the server binary does not have built in;
//   - identity: SpecHash is the SHA-256 of the canonical encoding, and the
//     pipeline result cache keys off it. Record/replay is byte-exact, so
//     two specs with equal hashes produce identical analysis results and a
//     cache hit is sound.
//
// Canonicality: encoding is pure Go structs through encoding/json (fixed
// field order), byte blobs are lowercase hex, and endpoint scripts are
// encoded by kind + parameters rather than by Go value, so
// marshal → unmarshal → marshal is byte-identical.
//
// The canonical wire form is exactly what MarshalSpec writes, and
// ParseCanonicalSpec recognises it without encoding/json:
//
//   - no whitespace; members in specWire field order, each struct's
//     omitempty members absent when zero and present otherwise;
//   - numbers as decimal without sign, leading zero, fraction or exponent,
//     within their field's range;
//   - byte blobs as even-length lowercase hex;
//   - strings of printable ASCII other than " \ < > &, which encoding/json
//     writes verbatim (it escapes every other byte);
//   - a non-empty name, and endpoint scripts of a known kind carrying only
//     that kind's parameters.
//
// For such bytes MarshalSpec(spec) equals the input, so SpecHash is the
// SHA-256 of the bytes as sent. Every other JSON encoding of a spec is
// UnmarshalSpec's to read.

type programWire struct {
	Path string `json:"path"`
	Code string `json:"code"` // hex of the built MZ32 image
}

// scriptWire names one of the built-in endpoint scripts plus its
// parameters. Out-of-tree gnet.Endpoint implementations are not encodable
// and make MarshalSpec fail (the pipeline then treats the job as
// uncacheable rather than risking an unsound hash).
type scriptWire struct {
	Kind    string `json:"kind"`
	Delay   uint64 `json:"delay,omitempty"`
	Payload string `json:"payload,omitempty"` // hex
	Banner  string `json:"banner,omitempty"`  // hex
	Reply   string `json:"reply,omitempty"`   // hex
}

type endpointWire struct {
	IP     string     `json:"ip"`
	Port   uint16     `json:"port"`
	Script scriptWire `json:"script"`
}

type eventWire struct {
	At   uint64 `json:"at"`
	Kind uint8  `json:"kind"`
	Flow uint32 `json:"flow,omitempty"`
	Data string `json:"data,omitempty"` // hex
	Seq  uint32 `json:"seq,omitempty"`
	Sum  uint32 `json:"sum,omitempty"`
}

type specWire struct {
	Name       string         `json:"name"`
	Programs   []programWire  `json:"programs,omitempty"`
	AutoStart  []string       `json:"autostart,omitempty"`
	Endpoints  []endpointWire `json:"endpoints,omitempty"`
	Events     []eventWire    `json:"events,omitempty"`
	MaxInstr   uint64         `json:"max_instr,omitempty"`
	ExpectRule string         `json:"expect_rule,omitempty"`
	ExpectFlag bool           `json:"expect_flag,omitempty"`
}

func encodeScript(ep gnet.Endpoint) (scriptWire, error) {
	switch e := ep.(type) {
	case oneShot:
		return scriptWire{Kind: "oneshot", Delay: e.delay, Payload: hex.EncodeToString(e.payload)}, nil
	case sink:
		return scriptWire{Kind: "sink"}, nil
	case chatterbox:
		return scriptWire{
			Kind:   "chatterbox",
			Delay:  e.delay,
			Banner: hex.EncodeToString(e.banner),
			Reply:  hex.EncodeToString(e.reply),
		}, nil
	case shellC2:
		return scriptWire{Kind: "shellc2"}, nil
	case corpusC2:
		return scriptWire{Kind: "corpusc2"}, nil
	}
	return scriptWire{}, fmt.Errorf("samples: endpoint type %T has no wire encoding", ep)
}

func decodeScript(w scriptWire) (gnet.Endpoint, error) {
	unhex := func(s string) ([]byte, error) {
		if s == "" {
			return nil, nil
		}
		return hex.DecodeString(s)
	}
	switch w.Kind {
	case "oneshot":
		payload, err := unhex(w.Payload)
		if err != nil {
			return nil, fmt.Errorf("samples: script payload: %w", err)
		}
		return oneShot{delay: w.Delay, payload: payload}, nil
	case "sink":
		return sink{}, nil
	case "chatterbox":
		banner, err := unhex(w.Banner)
		if err != nil {
			return nil, fmt.Errorf("samples: script banner: %w", err)
		}
		reply, err := unhex(w.Reply)
		if err != nil {
			return nil, fmt.Errorf("samples: script reply: %w", err)
		}
		return chatterbox{banner: banner, reply: reply, delay: w.Delay}, nil
	case "shellc2":
		return shellC2{}, nil
	case "corpusc2":
		return corpusC2{}, nil
	}
	return nil, fmt.Errorf("samples: unknown endpoint script kind %q", w.Kind)
}

// MarshalSpec serializes a materialized Spec to its canonical wire form.
// It fails on endpoint types without a wire encoding.
func MarshalSpec(s Spec) ([]byte, error) {
	w := specWire{
		Name:       s.Name,
		AutoStart:  s.AutoStart,
		MaxInstr:   s.MaxInstr,
		ExpectRule: s.ExpectRule,
		ExpectFlag: s.ExpectFlag,
	}
	for _, p := range s.Programs {
		w.Programs = append(w.Programs, programWire{Path: p.Path, Code: hex.EncodeToString(p.Bytes)})
	}
	for _, ep := range s.Endpoints {
		script, err := encodeScript(ep.Endpoint)
		if err != nil {
			return nil, fmt.Errorf("%w (spec %q)", err, s.Name)
		}
		w.Endpoints = append(w.Endpoints, endpointWire{IP: ep.Addr.IP, Port: ep.Addr.Port, Script: script})
	}
	for _, ev := range s.Events {
		w.Events = append(w.Events, eventWire{
			At: ev.At, Kind: uint8(ev.Kind), Flow: ev.Flow,
			Data: hex.EncodeToString(ev.Data), Seq: ev.Seq, Sum: ev.Sum,
		})
	}
	return json.Marshal(w)
}

// UnmarshalSpec parses any JSON encoding of a spec wire form (whitespace,
// member order and escapes are free, as encoding/json allows) back into a
// runnable Spec. Only a canonical input hashes to SpecHash of its own
// bytes.
func UnmarshalSpec(data []byte) (Spec, error) {
	var w specWire
	if err := json.Unmarshal(data, &w); err != nil {
		return Spec{}, fmt.Errorf("samples: spec wire: %w", err)
	}
	if w.Name == "" {
		return Spec{}, fmt.Errorf("samples: spec wire: missing name")
	}
	s := Spec{
		Name:       w.Name,
		AutoStart:  w.AutoStart,
		MaxInstr:   w.MaxInstr,
		ExpectRule: w.ExpectRule,
		ExpectFlag: w.ExpectFlag,
	}
	for _, p := range w.Programs {
		code, err := hex.DecodeString(p.Code)
		if err != nil {
			return Spec{}, fmt.Errorf("samples: program %s: %w", p.Path, err)
		}
		s.Programs = append(s.Programs, Program{Path: p.Path, Bytes: code})
	}
	for _, ep := range w.Endpoints {
		script, err := decodeScript(ep.Script)
		if err != nil {
			return Spec{}, err
		}
		s.Endpoints = append(s.Endpoints, EndpointSpec{
			Addr:     gnet.Addr{IP: ep.IP, Port: ep.Port},
			Endpoint: script,
		})
	}
	for _, ev := range w.Events {
		data, err := hex.DecodeString(ev.Data)
		if err != nil {
			return Spec{}, fmt.Errorf("samples: event data: %w", err)
		}
		s.Events = append(s.Events, record.Event{
			At: ev.At, Kind: record.EventKind(ev.Kind), Flow: ev.Flow,
			Data: data, Seq: ev.Seq, Sum: ev.Sum,
		})
	}
	return s, nil
}

// SpecHash returns the SHA-256 (hex) of the spec's canonical wire form —
// the identity the pipeline's result cache and dedup key off. The hash is
// stable across processes: it depends only on the spec's materialized
// content, never on memory layout or map order.
func SpecHash(s Spec) (string, error) {
	raw, err := MarshalSpec(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// ParseCanonicalSpec recognises a canonical wire form at the start of data
// (see the header) and returns the spec, its SpecHash and the wire form's
// length. It decides nothing else: ok is false for any input it does not
// recognise, valid or not, and the caller then runs UnmarshalSpec and
// SpecHash, whose errors are the ones to report. An accepted spec equals
// what UnmarshalSpec returns for the same bytes.
func ParseCanonicalSpec(data []byte) (s Spec, hash string, n int, ok bool) {
	r := canonReader{b: data, ok: true}
	r.want(`{"name":`)
	if s.Name = r.str(); s.Name == "" {
		return Spec{}, "", 0, false // UnmarshalSpec rejects it
	}
	r.list(`,"programs":[`, func() {
		r.want(`{"path":`)
		p := Program{Path: r.str()}
		r.want(`,"code":`)
		p.Bytes = r.hex()
		r.want(`}`)
		s.Programs = append(s.Programs, p)
	})
	r.list(`,"autostart":[`, func() { s.AutoStart = append(s.AutoStart, r.str()) })
	r.list(`,"endpoints":[`, func() {
		var ep EndpointSpec
		r.want(`{"ip":`)
		ep.Addr.IP = r.str()
		r.want(`,"port":`)
		ep.Addr.Port = uint16(r.uint(math.MaxUint16))
		r.want(`,"script":{"kind":`)
		ep.Endpoint = r.script()
		r.want(`}}`)
		s.Endpoints = append(s.Endpoints, ep)
	})
	r.list(`,"events":[`, func() {
		var ev record.Event
		r.want(`{"at":`)
		ev.At = r.uint(math.MaxUint64)
		r.want(`,"kind":`)
		ev.Kind = record.EventKind(r.uint(math.MaxUint8))
		ev.Flow = uint32(r.optUint(`,"flow":`, math.MaxUint32))
		if ev.Data = r.optHex(`,"data":`); ev.Data == nil {
			ev.Data = []byte{} // as hex.DecodeString("") returns
		}
		ev.Seq = uint32(r.optUint(`,"seq":`, math.MaxUint32))
		ev.Sum = uint32(r.optUint(`,"sum":`, math.MaxUint32))
		r.want(`}`)
		s.Events = append(s.Events, ev)
	})
	s.MaxInstr = r.optUint(`,"max_instr":`, math.MaxUint64)
	s.ExpectRule = r.optStr(`,"expect_rule":`)
	s.ExpectFlag = r.next(`,"expect_flag":true`)
	r.want(`}`)
	if !r.ok {
		return Spec{}, "", 0, false
	}
	sum := sha256.Sum256(data[:r.i])
	return s, hex.EncodeToString(sum[:]), r.i, true
}

// canonReader walks bytes that must match MarshalSpec's output exactly.
// The first mismatch clears ok; every later read then returns a zero value
// and consumes nothing.
type canonReader struct {
	b  []byte
	i  int
	ok bool
}

// next consumes lit if the input continues with it.
func (r *canonReader) next(lit string) bool {
	if r.ok && len(r.b)-r.i >= len(lit) && string(r.b[r.i:r.i+len(lit)]) == lit {
		r.i += len(lit)
		return true
	}
	return false
}

// want consumes lit or fails.
func (r *canonReader) want(lit string) {
	if !r.next(lit) {
		r.ok = false
	}
}

// quoted consumes a quoted string and returns its bytes unchecked.
func (r *canonReader) quoted() []byte {
	if !r.next(`"`) {
		r.ok = false
		return nil
	}
	j := bytes.IndexByte(r.b[r.i:], '"')
	if j < 0 {
		r.ok = false
		return nil
	}
	v := r.b[r.i : r.i+j]
	r.i += j + 1
	return v
}

// str consumes a string of bytes encoding/json writes unescaped:
// printable ASCII other than " \ < > &.
func (r *canonReader) str() string {
	v := r.quoted()
	for _, c := range v {
		if c < 0x20 || c >= 0x7f || c == '\\' || c == '<' || c == '>' || c == '&' {
			r.ok = false
			return ""
		}
	}
	return string(v)
}

// unhexLower maps a lowercase hex digit to its value, any other byte to
// 0xff.
var unhexLower = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for c := byte('0'); c <= '9'; c++ {
		t[c] = c - '0'
	}
	for c := byte('a'); c <= 'f'; c++ {
		t[c] = c - 'a' + 10
	}
	return t
}()

// hex consumes an even-length lowercase hex string and decodes it. An
// empty string decodes to a non-nil empty slice, as hex.DecodeString's.
func (r *canonReader) hex() []byte {
	src := r.quoted()
	if len(src)%2 != 0 {
		r.ok = false
	}
	if !r.ok {
		return nil
	}
	out := make([]byte, len(src)/2)
	for i := range out {
		hi, lo := unhexLower[src[2*i]], unhexLower[src[2*i+1]]
		if hi|lo > 0xf {
			r.ok = false
			return nil
		}
		out[i] = hi<<4 | lo
	}
	return out
}

// uint consumes a canonical decimal no larger than max.
func (r *canonReader) uint(max uint64) uint64 {
	j := r.i
	for j < len(r.b) && '0' <= r.b[j] && r.b[j] <= '9' {
		j++
	}
	v, err := strconv.ParseUint(string(r.b[r.i:j]), 10, 64)
	if !r.ok || err != nil || v > max || r.b[r.i] == '0' && j > r.i+1 {
		r.ok = false // not a number, out of range, or a leading zero
		return 0
	}
	r.i = j
	return v
}

// list reads the omitempty array member key (with its opening bracket),
// calling item once per element.
func (r *canonReader) list(key string, item func()) {
	if !r.next(key) {
		return
	}
	for r.ok {
		item()
		if !r.next(`,`) {
			break
		}
	}
	r.want(`]`)
}

// optStr reads the omitempty string member key, "" when absent.
func (r *canonReader) optStr(key string) string {
	if !r.next(key) {
		return ""
	}
	v := r.str()
	if v == "" {
		r.ok = false
	}
	return v
}

// optUint reads the omitempty number member key, 0 when absent.
func (r *canonReader) optUint(key string, max uint64) uint64 {
	if !r.next(key) {
		return 0
	}
	v := r.uint(max)
	if v == 0 {
		r.ok = false
	}
	return v
}

// optHex reads the omitempty blob member key, nil when absent.
func (r *canonReader) optHex(key string) []byte {
	if !r.next(key) {
		return nil
	}
	v := r.hex()
	if len(v) == 0 {
		r.ok = false
		return nil
	}
	return v
}

// script reads an endpoint script's kind and that kind's parameters, in
// scriptWire order, as decodeScript builds it.
func (r *canonReader) script() gnet.Endpoint {
	switch kind := r.quoted(); string(kind) {
	case "oneshot":
		return oneShot{delay: r.optUint(`,"delay":`, math.MaxUint64), payload: r.optHex(`,"payload":`)}
	case "sink":
		return sink{}
	case "chatterbox":
		e := chatterbox{delay: r.optUint(`,"delay":`, math.MaxUint64)}
		e.banner = r.optHex(`,"banner":`)
		e.reply = r.optHex(`,"reply":`)
		return e
	case "shellc2":
		return shellC2{}
	case "corpusc2":
		return corpusC2{}
	}
	r.ok = false
	return nil
}
