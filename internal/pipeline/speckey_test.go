package pipeline

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"faros"
	"faros/internal/core"
	"faros/internal/samples"
	"faros/internal/triage"
)

// TestNamedKeyMatchesSpecKey: the handler hashes a named scenario once and
// carries that hash to the pool, so a by-name request must settle under
// exactly the key a by-spec request of the same spec gets. For every
// registry name, the by-spec POST of samples.MarshalSpec(spec) is a cache
// hit on the by-name result, and a second by-name round (memo warm) still
// lands on the key derived from samples.SpecHash.
func TestNamedKeyMatchesSpecKey(t *testing.T) {
	p := mustNew(t, Config{Workers: 2, Triage: triage.Default()})
	defer p.Close()
	h := NewHandler(p, ServerConfig{Resolve: faros.Scenario})
	post := func(body string) JobView {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(body)))
		var view JobView
		if err := json.NewDecoder(rec.Body).Decode(&view); err != nil {
			t.Fatalf("POST /analyze %s: %v", body, err)
		}
		if rec.Code != http.StatusOK || view.State != StateDone {
			t.Fatalf("POST /analyze %s = %d, state %s: %s", body, rec.Code, view.State, view.Error)
		}
		return view
	}
	names := faros.ScenarioNames()
	want := make(map[string]string, len(names))
	for round := 1; round <= 2; round++ {
		for _, name := range names {
			spec, _ := faros.Scenario(name)
			if round == 1 {
				want[name] = cacheKey(Request{Spec: spec, Mode: ModeDetect}, p.policyHash())
			}
			byName := post(`{"scenario":"` + name + `","wait":true}`)
			if byName.Hash == "" || byName.Hash != want[name] {
				t.Fatalf("round %d: %s by name settled under %q, want the SpecHash key %q",
					round, name, byName.Hash, want[name])
			}
			if round == 2 {
				if !byName.CacheHit {
					t.Errorf("round 2: %s by name missed the cache", name)
				}
				continue
			}
			wire, err := samples.MarshalSpec(spec)
			if err != nil {
				t.Fatalf("MarshalSpec(%s): %v", name, err)
			}
			bySpec := post(`{"spec":` + string(wire) + `,"wait":true}`)
			if bySpec.Hash != byName.Hash {
				t.Errorf("%s: by-spec hash %s, by-name hash %s", name, bySpec.Hash, byName.Hash)
			}
			if !bySpec.CacheHit {
				t.Errorf("%s: by-spec resubmission of a by-name result missed the cache", name)
			}
		}
	}
}

// TestNamedHashMemoConcurrent sends by-name requests for a few names from
// several goroutines at once through one handler, so -race sees the memo
// filled and read concurrently; every request still settles under its
// spec's key.
func TestNamedHashMemoConcurrent(t *testing.T) {
	release := make(chan struct{})
	close(release)
	p := mustNew(t, Config{Workers: 2, Runner: blockingRunner(release)})
	defer p.Close()
	h := NewHandler(p, ServerConfig{Resolve: faros.Scenario})
	names := faros.ScenarioNames()[:4]
	want := make(map[string]string, len(names))
	for _, name := range names {
		spec, _ := faros.Scenario(name)
		want[name] = cacheKey(Request{Spec: spec}, "")
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 * len(names) {
				name := names[(g+i)%len(names)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze",
					strings.NewReader(`{"scenario":"`+name+`","wait":true}`)))
				var view JobView
				if err := json.NewDecoder(rec.Body).Decode(&view); err != nil || view.Hash != want[name] {
					t.Errorf("%s: hash %q (decode error %v), want %s", name, view.Hash, err, want[name])
				}
			}
		}()
	}
	wg.Wait()
}

// TestCarriedSpecHashKeys: a request carrying its spec hash gets the same
// cache key and shard key as one that leaves the pool to hash the spec,
// in every mode the key distinguishes, and the carried hash is what both
// keys read.
func TestCarriedSpecHashKeys(t *testing.T) {
	spec := samples.Attacks()[0]
	hash, err := samples.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	policy := triage.Default().Hash()
	for _, tc := range []struct {
		name   string
		req    Request
		policy string
	}{
		{"detect", Request{Spec: spec, Mode: ModeDetect}, ""},
		{"detect default mode", Request{Spec: spec}, ""},
		{"live", Request{Spec: spec, Mode: ModeLive,
			Config: core.Config{ListCap: 7, StrictExecCheck: true, DisableNetflowRule: true}}, ""},
		{"detect triaged", Request{Spec: spec, Mode: ModeDetect}, policy},
		{"live triaged", Request{Spec: spec, Mode: ModeLive, Config: core.Config{NoProcessTags: true}}, policy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			carried := tc.req
			carried.specHash = hash
			key := cacheKey(tc.req, tc.policy)
			if key == "" {
				t.Fatal("uncacheable without a carried hash")
			}
			if got := cacheKey(carried, tc.policy); got != key {
				t.Errorf("cacheKey with carried hash = %s, want %s", got, key)
			}
			if got, want := ShardKey(carried), ShardKey(tc.req); got != want || got != hash {
				t.Errorf("ShardKey with carried hash = %s, without = %s, want %s", got, want, hash)
			}
			bogus := tc.req
			bogus.specHash = strings.Repeat("0", len(hash))
			if cacheKey(bogus, tc.policy) == key || ShardKey(bogus) == hash {
				t.Error("keys ignore the carried hash")
			}
		})
	}
}
