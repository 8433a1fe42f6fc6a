package samples

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"faros/internal/guest/gnet"
	"faros/internal/record"
)

// corpusSpecs enumerates every built-in corpus entry (the same set the
// faros facade exposes, plus the microbenchmark workloads).
func corpusSpecs() []Spec {
	specs := append([]Spec{}, Attacks()...)
	specs = append(specs, TransientReflective())
	specs = append(specs, EvasionScenarios()...)
	specs = append(specs, JITWorkloads()...)
	specs = append(specs, BenignPrograms()...)
	specs = append(specs, MalwareCorpus()...)
	specs = append(specs,
		Figure1Workload().Spec,
		Figure2Workload().Spec,
		OvertaintWorkload().Spec,
		Spinner(1000),
	)
	for _, w := range PerfWorkloads() {
		specs = append(specs, w.Spec)
	}
	return specs
}

// TestSpecWireRoundTrip is the property test: for every corpus entry,
// serialize → parse → serialize is byte-identical, and the re-parsed spec
// hashes to the same value.
func TestSpecWireRoundTrip(t *testing.T) {
	specs := corpusSpecs()
	if len(specs) < 130 {
		t.Fatalf("corpus enumeration looks truncated: %d specs", len(specs))
	}
	for _, spec := range specs {
		first, err := MarshalSpec(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", spec.Name, err)
		}
		parsed, err := UnmarshalSpec(first)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", spec.Name, err)
		}
		second, err := MarshalSpec(parsed)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", spec.Name, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: serialize→parse→serialize not byte-identical (%d vs %d bytes)",
				spec.Name, len(first), len(second))
		}
		h1, err := SpecHash(spec)
		if err != nil {
			t.Fatalf("%s: hash: %v", spec.Name, err)
		}
		h2, err := SpecHash(parsed)
		if err != nil {
			t.Fatalf("%s: re-hash: %v", spec.Name, err)
		}
		if h1 != h2 {
			t.Errorf("%s: hash changed across round trip: %s vs %s", spec.Name, h1, h2)
		}
	}
}

// TestSpecWireUnmarshalErrors rejects malformed wire forms.
func TestSpecWireUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"bad json", `{{{`},
		{"no name", `{"max_instr": 5}`},
		{"bad program hex", `{"name":"x","programs":[{"path":"a.exe","code":"zz"}]}`},
		{"unknown script", `{"name":"x","endpoints":[{"ip":"1.2.3.4","port":1,"script":{"kind":"mystery"}}]}`},
		{"bad event hex", `{"name":"x","events":[{"at":1,"kind":2,"data":"zz"}]}`},
	}
	for _, tc := range cases {
		if _, err := UnmarshalSpec([]byte(tc.raw)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSpecWireRejectsForeignEndpoint: endpoint types without a wire
// encoding must fail loudly (the pipeline treats such specs as
// uncacheable rather than hashing them unsoundly).
type foreignEndpoint struct{ sink }

func TestSpecWireRejectsForeignEndpoint(t *testing.T) {
	spec := Spec{
		Name:      "foreign",
		Endpoints: []EndpointSpec{{Addr: AttackerAddr, Endpoint: foreignEndpoint{}}},
	}
	if _, err := MarshalSpec(spec); err == nil {
		t.Fatal("foreign endpoint type accepted")
	}
	if _, err := SpecHash(spec); err == nil {
		t.Fatal("foreign endpoint type hashed")
	}
}

// goldenSpecHashes pins the spec hash of representative corpus entries.
// These constants were computed once and checked in: the test asserts the
// hash is stable across processes and over time. A legitimate change to a
// sample builder or payload will shift its hash — regenerate with
// `go test ./internal/samples -run TestSpecHashGolden -v -update-golden`
// guidance in the failure message.
var goldenSpecHashes = map[string]string{
	"reflective_dll_inject":   "2da7762e4d80d636b3850610a97794681c2363eb90f198bece7eda56c3341758",
	"reverse_tcp_dns":         "f5661e52d63b59481d9765898b0e66290be85779bd447f1d8bcdc424b5e1c2b1",
	"bypassuac_injection":     "7853522982343ddc57f8f4ce925ee7941b1e771f3a87d64470e4714f6d11e6f8",
	"process_hollowing":       "e1300969de69c6cd6c5795e9d85b20906df94957528db8d6de0a04de95f1aee2",
	"darkcomet":               "03cfad163cac7154af9f729c36bbc45e8cad8f90eccee452a20905eb32bc269f",
	"njrat":                   "10a9cfc869edc274efe18989ff73b9a6ffcff9651cb138e499261d9e14a030a8",
	"fig1_address_dependency": "a06ade88903403589249cecf7c50b296b4292486fc306900dfae23a7254b2b21",
}

func TestSpecHashGolden(t *testing.T) {
	specs := map[string]Spec{}
	for _, s := range Attacks() {
		specs[s.Name] = s
	}
	specs["fig1_address_dependency"] = Figure1Workload().Spec
	if len(goldenSpecHashes) == 0 {
		for name, s := range specs {
			h, err := SpecHash(s)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("golden %q: %q", name, h)
		}
		t.Fatal("goldenSpecHashes is empty — paste the logged hashes in")
	}
	for name, want := range goldenSpecHashes {
		spec, ok := specs[name]
		if !ok {
			t.Fatalf("golden entry %q has no spec", name)
		}
		got, err := SpecHash(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: hash = %s, want %s (if the sample changed intentionally, update the golden)", name, got, want)
		}
	}
}

// checkCanonical is the ParseCanonicalSpec oracle: whatever it accepts,
// UnmarshalSpec must accept too, with an equal Spec, and SpecHash of that
// Spec must be the hash ParseCanonicalSpec took from the bytes.
func checkCanonical(t *testing.T, data []byte) (n int, ok bool) {
	t.Helper()
	spec, hash, n, ok := ParseCanonicalSpec(data)
	if !ok {
		return 0, false
	}
	if n <= 0 || n > len(data) {
		t.Fatalf("%q: accepted length %d", data, n)
	}
	ref, err := UnmarshalSpec(data[:n])
	if err != nil {
		t.Fatalf("%q: accepted, UnmarshalSpec rejects it: %v", data[:n], err)
	}
	if !reflect.DeepEqual(spec, ref) {
		t.Fatalf("%q: parsed %+v, UnmarshalSpec %+v", data[:n], spec, ref)
	}
	if want, err := SpecHash(ref); err != nil || hash != want {
		t.Fatalf("%q: hash %s, SpecHash %s (%v)", data[:n], hash, want, err)
	}
	return n, true
}

// everyField is a spec that sets every wire member, each endpoint script
// kind with and without its parameters, and the numeric extremes.
func everyField() Spec {
	return Spec{
		Name:      "every_field",
		Programs:  []Program{{Path: "a.exe", Bytes: []byte{0x4d, 0x5a, 0xff}}, {Path: "empty.exe"}},
		AutoStart: []string{"a.exe", ""},
		Endpoints: []EndpointSpec{
			{Addr: gnet.Addr{IP: "10.0.0.1"}, Endpoint: oneShot{delay: 7, payload: []byte{1, 2}}},
			{Addr: gnet.Addr{IP: "10.0.0.2", Port: 65535}, Endpoint: oneShot{}},
			{Addr: gnet.Addr{IP: "10.0.0.3", Port: 1}, Endpoint: sink{}},
			{Addr: gnet.Addr{IP: "10.0.0.4", Port: 2}, Endpoint: chatterbox{banner: []byte("hi"), reply: []byte{0}, delay: math.MaxUint64}},
			{Addr: gnet.Addr{IP: "10.0.0.5", Port: 3}, Endpoint: chatterbox{reply: []byte("r")}},
			{Addr: gnet.Addr{IP: "10.0.0.6", Port: 4}, Endpoint: shellC2{}},
			{Addr: gnet.Addr{IP: "10.0.0.7", Port: 5}, Endpoint: corpusC2{}},
		},
		Events: []record.Event{
			{},
			{At: math.MaxUint64, Kind: math.MaxUint8, Flow: math.MaxUint32, Data: []byte("x"), Seq: 1, Sum: math.MaxUint32},
		},
		MaxInstr:   1,
		ExpectRule: "rule ~!@#$%^*()_+`-={}|[]:;',.?/",
		ExpectFlag: true,
	}
}

// TestParseCanonicalSpecAcceptsMarshalSpec: every corpus wire form, and
// one that sets every member, is recognised whole, and the recogniser
// stops at the wire form's end when bytes follow it.
func TestParseCanonicalSpecAcceptsMarshalSpec(t *testing.T) {
	for _, spec := range append(corpusSpecs(), everyField()) {
		wire, err := MarshalSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, data := range [][]byte{wire, append(append([]byte{}, wire...), `,"wait":true}`...)} {
			if n, ok := checkCanonical(t, data); !ok || n != len(wire) {
				t.Fatalf("%s: accepted %t, length %d, want the %d-byte wire form", spec.Name, ok, n, len(wire))
			}
		}
	}
}

// TestParseCanonicalSpecDefers: encodings MarshalSpec never writes are
// left to UnmarshalSpec, valid JSON or not.
func TestParseCanonicalSpecDefers(t *testing.T) {
	ep := func(script string) string {
		return `{"name":"x","endpoints":[{"ip":"1.2.3.4","port":1,"script":{"kind":` + script + `}}]}`
	}
	ev := func(event string) string { return `{"name":"x","events":[{"at":1,"kind":2` + event + `}]}` }
	for _, raw := range []string{
		` {"name":"x"}`,
		`{"name": "x"}`,
		`{"name":""}`,
		`{"name":"a\u0062"}`,
		`{"name":"a<b"}`,
		`{"name":"a>b"}`,
		`{"name":"a&b"}`,
		`{"name":"é"}`,
		`{"name":"x","name":"x"}`,
		`{"NAME":"x"}`,
		`{"name":"x","unknown":1}`,
		`{"name":"x"`,
		`{"name":"x","max_instr":0}`,
		`{"name":"x","max_instr":05}`,
		`{"name":"x","max_instr":18446744073709551616}`,
		`{"name":"x","max_instr":1e3}`,
		`{"name":"x","max_instr":-1}`,
		`{"name":"x","max_instr":5,"programs":[{"path":"a","code":""}]}`,
		`{"name":"x","programs":[]}`,
		`{"name":"x","programs":null}`,
		`{"name":"x","programs":[{"path":"a","code":"0A"}]}`,
		`{"name":"x","programs":[{"path":"a","code":"0"}]}`,
		`{"name":"x","programs":[{"code":"","path":"a"}]}`,
		`{"name":"x","autostart":[]}`,
		`{"name":"x","expect_rule":""}`,
		`{"name":"x","expect_flag":false}`,
		ep(`"sink","delay":5`),
		ep(`"oneshot","delay":0`),
		ep(`"oneshot","payload":""`),
		ep(`"oneshot","banner":"ab"`),
		ep(`"chatterbox","reply":"ab","banner":"cd"`),
		ep(`"mystery"`),
		`{"name":"x","endpoints":[{"ip":"1.2.3.4","port":65536,"script":{"kind":"sink"}}]}`,
		`{"name":"x","events":[{"at":01,"kind":2}]}`,
		ev(`,"flow":0`),
		ev(`,"data":""`),
		ev(`,"seq":4294967296`),
		ev(`,"sum":1,"seq":1`),
	} {
		if _, _, _, ok := ParseCanonicalSpec([]byte(raw)); ok {
			t.Errorf("%s: accepted", raw)
		}
	}
	if _, ok := checkCanonical(t, []byte(`{"name":"x"}`)); !ok {
		t.Error(`{"name":"x"}: not accepted`)
	}
}

// FuzzSpecWire holds ParseCanonicalSpec to UnmarshalSpec and SpecHash on
// arbitrary bytes, starting from the corpus wire forms.
func FuzzSpecWire(f *testing.F) {
	for _, spec := range append(corpusSpecs(), everyField()) {
		wire, err := MarshalSpec(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkCanonical(t, data) })
}
