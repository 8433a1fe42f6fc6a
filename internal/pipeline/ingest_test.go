package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"faros"
	"faros/internal/samples"
)

// wireForms returns the canonical wire form of every registry scenario
// plus the Table V applications: the specs a cold by-spec submission
// carries.
func wireForms(tb testing.TB) [][]byte {
	tb.Helper()
	var specs []samples.Spec
	for _, name := range faros.ScenarioNames() {
		spec, _ := faros.Scenario(name)
		specs = append(specs, spec)
	}
	for _, w := range samples.PerfWorkloads() {
		specs = append(specs, w.Spec)
	}
	var out [][]byte
	for _, spec := range specs {
		wire, err := samples.MarshalSpec(spec)
		if err != nil {
			tb.Fatalf("MarshalSpec(%s): %v", spec.Name, err)
		}
		out = append(out, wire)
	}
	if len(out) != 139 {
		tb.Fatalf("%d wire forms, want 139", len(out))
	}
	return out
}

// specBody is a by-spec detect submission as a client writes it.
func specBody(wire []byte) []byte {
	return []byte(`{"spec":` + string(wire) + `,"wait":true}`)
}

// forwardedBody is the body a cluster node forwards: json.Marshal of the
// request, here with every member the one-pass reading knows but
// scenario and trace.
func forwardedBody(wire []byte) []byte {
	body, _ := json.Marshal(AnalyzeRequest{Spec: wire, Mode: "live", TimeoutMS: 1500, Wait: true, NoCache: true})
	return body
}

// replaceFirst replaces the first match of the member prefix key and the
// string value after it with key+value; the input is returned unchanged
// when key is absent.
func replaceFirst(wire []byte, key, value string) []byte {
	i := bytes.Index(wire, []byte(key))
	if i < 0 {
		return wire
	}
	start := i + len(key)
	end := start + bytes.IndexByte(wire[start:], '"')
	return []byte(string(wire[:i]) + key + value + string(wire[end:]))
}

// variants are encodings of a wire form's submission that the one-pass
// reading must leave to the reference path: valid JSON for the same or a
// neighbouring spec, malformed specs, and envelope changes.
func variants(wire []byte) map[string][]byte {
	w := string(wire)
	var indented bytes.Buffer
	_ = json.Indent(&indented, wire, "", "  ")
	var members map[string]json.RawMessage
	_ = json.Unmarshal(wire, &members)
	sorted, _ := json.Marshal(members) // keys in alphabetical order
	upper := wire
	if i := bytes.Index(wire, []byte(`"code":"`)); i >= 0 {
		j := i + len(`"code":"`)
		k := j + bytes.IndexByte(wire[j:], '"')
		upper = []byte(w[:j] + strings.ToUpper(w[j:k]) + w[k:])
	}
	delay0 := wire
	if i := bytes.Index(wire, []byte(`"script":{"kind":"`)); i >= 0 {
		j := i + len(`"script":{"kind":"`)
		k := j + bytes.IndexByte(wire[j:], '"') + 1
		delay0 = []byte(w[:k] + `,"delay":0` + w[k:])
	}
	name := `{"name":"`
	out := map[string][]byte{
		"canonical":           specBody(wire),
		"forwarded":           forwardedBody(wire),
		"envelope whitespace": []byte(`{ "spec": ` + w + `, "wait": true }`),
		"spec whitespace":     specBody(indented.Bytes()),
		"envelope reordered":  []byte(`{"wait":true,"spec":` + w + `}`),
		"spec reordered":      specBody(sorted),
		"uppercase hex":       specBody(upper),
		"delay 0":             specBody(delay0),
		"empty name":          specBody(replaceFirst(wire, name, "")),
		"duplicate name":      specBody([]byte(`{"name":"decoy",` + w[1:])),
		"duplicate spec":      []byte(`{"spec":{"name":"decoy"},"spec":` + w + `,"wait":true}`),
		"NAME":                specBody([]byte(`{"NAME":` + w[len(`{"name":`):])),
		"angle in name":       specBody([]byte(name + "a<b" + w[len(name):])),
		"escaped name":        specBody([]byte(name + `\u0061` + w[len(name):])),
		"unknown kind":        specBody(replaceFirst(wire, `"script":{"kind":"`, "mystery")),
		"wait false":          []byte(`{"spec":` + w + `,"wait":false}`),
		"trailing newline":    append(specBody(wire), '\n'),
		"trailing bytes":      append(specBody(wire), "garbage"...),
		"scenario and spec":   []byte(`{"scenario":"njrat","spec":` + w + `,"wait":true}`),
		"config":              []byte(`{"spec":` + w + `,"config":{"StrictExecCheck":true},"wait":true}`),
	}
	for name, body := range out {
		if name != "canonical" && bytes.Equal(body, out["canonical"]) {
			delete(out, name) // the spec has nothing the variant changes
		}
	}
	return out
}

// TestAnalyzeIngestMatchesReference serves every submission twice, once
// through the one-pass handler and once through a handler that decodes
// every body with the reference path, and requires the same status, error
// text and job hash. The reference handler is the pre-one-pass
// behaviour: encoding/json, then UnmarshalSpec, then SpecHash.
func TestAnalyzeIngestMatchesReference(t *testing.T) {
	cfg := ServerConfig{Resolve: faros.Scenario}
	serve := func(decode func([]byte) (AnalyzeRequest, *decodedSpec, error)) func([]byte) string {
		p := mustNew(t, Config{Workers: 2, Runner: blockingRunner(closedChan())})
		t.Cleanup(p.Close)
		h := newHandler(p, cfg, decode)
		return func(body []byte) string {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
			var v struct {
				Error string `json:"error"`
				Hash  string `json:"hash"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatalf("response to %.80q: %v", body, err)
			}
			return fmt.Sprintf("status %d, error %q, hash %q", rec.Code, v.Error, v.Hash)
		}
	}
	fast, ref := serve(decodeAnalyze), serve(decodeAnalyzeReference)
	check := func(name string, body []byte) string {
		t.Helper()
		got, want := fast(body), ref(body)
		if got != want {
			t.Errorf("%s: one pass answered %s, reference %s", name, got, want)
		}
		return got
	}
	// Whitespace after the body's value is part of a JSON text; anything
	// else is not, and both paths refuse it.
	variantStatus := map[string]int{"trailing newline": http.StatusOK, "trailing bytes": http.StatusBadRequest}

	payloadHex := "0108000000000000030201000000000003020500000000e07f190105000000000000"
	for name, body := range map[string]string{
		"scenario_file": `{"scenario_file":{"name":"hex_attack","self_inject":true,"payload_hex":"` + payloadHex + `"},"mode":"live","wait":true}`,
		"by name":       `{"scenario":"njrat","wait":true}`,
		"unknown name":  `{"scenario":"no_such_scenario","wait":true}`,
		"trace":         `{"trace":"0123","wait":true}`,
		"empty object":  `{}`,
		"empty body":    ``,
		"null":          `null`,
		"truncated":     `{"spec":{"name":"x"`,
		"bad timeout":   `{"scenario":"njrat","timeout_ms":1e3}`,
		"leading zero":  `{"scenario":"njrat","timeout_ms":05,"wait":true}`,
		"bad mode":      `{"scenario":"njrat","mode":"sideways"}`,
	} {
		check(name, []byte(body))
	}
	one := 0
	for _, wire := range wireForms(t) {
		for name, body := range variants(wire) {
			if _, _, ok := parseCanonicalAnalyze(body); ok {
				one++
				if name != "canonical" && name != "forwarded" && name != "scenario and spec" {
					t.Errorf("%s variant of %.40s was read in one pass", name, wire)
				}
			}
			got := check(name, body)
			if status, ok := variantStatus[name]; ok && !strings.HasPrefix(got, fmt.Sprintf("status %d,", status)) {
				t.Errorf("%s variant of %.40s: %s, want status %d", name, wire, got, status)
			}
		}
	}
	if one != 3*139 {
		t.Errorf("%d bodies read in one pass, want each of the 139 canonical submissions as sent, as forwarded and with a scenario too", one)
	}
}

// TestAnalyzeBodyLimit: a body one byte over maxAnalyzeBody is refused
// with a JSON 413 before any decoding; one at the limit is served.
func TestAnalyzeBodyLimit(t *testing.T) {
	p := mustNew(t, Config{Workers: 1, Runner: blockingRunner(closedChan())})
	defer p.Close()
	h := NewHandler(p, ServerConfig{Resolve: faros.Scenario})
	base := `{"scenario":"njrat","wait":true}`
	for _, size := range []int{maxAnalyzeBody, maxAnalyzeBody + 1} {
		body := base + strings.Repeat(" ", size-len(base))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(body)))
		var v struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("%d-byte body: response %q: %v", size, rec.Body.Bytes(), err)
		}
		want := http.StatusOK
		if size > maxAnalyzeBody {
			want = http.StatusRequestEntityTooLarge
		}
		if rec.Code != want {
			t.Errorf("%d-byte body: status %d (%s), want %d", size, rec.Code, v.Error, want)
		}
		if want == http.StatusRequestEntityTooLarge && !strings.Contains(v.Error, "larger than") {
			t.Errorf("413 error %q does not name the limit", v.Error)
		}
	}
}

// FuzzAnalyzeBody is the one-pass oracle: whenever a body is read in one
// pass, the reference decoder accepts it with an equal request, and
// UnmarshalSpec and SpecHash give the spec and hash the pass took from
// its bytes. The seeds are the registry submissions as sent and as
// forwarded.
func FuzzAnalyzeBody(f *testing.F) {
	for _, wire := range wireForms(f) {
		f.Add(specBody(wire))
		f.Add(forwardedBody(wire))
	}
	f.Add([]byte(`{"scenario":"njrat","trace":"ab","mode":"detect","timeout_ms":250,"wait":true,"no_cache":true}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, pre, ok := parseCanonicalAnalyze(body)
		if !ok {
			return
		}
		ref, _, err := decodeAnalyzeReference(body)
		if err != nil {
			t.Fatalf("one pass accepted %q, reference rejects it: %v", body, err)
		}
		if !reflect.DeepEqual(req, ref) {
			t.Fatalf("one pass read %q as %+v, reference as %+v", body, req, ref)
		}
		if (pre != nil) != (len(req.Spec) > 0) {
			t.Fatalf("one pass of %q: spec %q but decoded spec %v", body, req.Spec, pre)
		}
		if pre == nil {
			return
		}
		spec, err := samples.UnmarshalSpec(ref.Spec)
		if err != nil {
			t.Fatalf("one pass accepted spec %q, UnmarshalSpec rejects it: %v", ref.Spec, err)
		}
		if !reflect.DeepEqual(pre.spec, spec) {
			t.Fatalf("one pass of %q: spec %+v, UnmarshalSpec %+v", ref.Spec, pre.spec, spec)
		}
		if hash, _ := samples.SpecHash(spec); hash != pre.hash {
			t.Fatalf("one pass of %q: hash %s, SpecHash %s", ref.Spec, pre.hash, hash)
		}
	})
}

// BenchmarkAnalyzeIngest times a by-spec body's way to a pool Request:
// decode, build the spec, hash it. One op is one of the 139 registry
// submissions, in turn; fast is the handler's path, reference the
// encoding/json path it falls back to.
func BenchmarkAnalyzeIngest(b *testing.B) {
	var bodies [][]byte
	for _, wire := range wireForms(b) {
		bodies = append(bodies, specBody(wire))
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) (AnalyzeRequest, *decodedSpec, error)
	}{{"fast", decodeAnalyze}, {"reference", decodeAnalyzeReference}} {
		b.Run(bc.name, func(b *testing.B) {
			specs := &specResolver{named: make(map[string]string)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, pre, err := bc.decode(bodies[i%len(bodies)])
				if err == nil {
					_, err = specs.request(req, pre)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
