package faros_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"faros"
	"faros/internal/pipeline"
	"faros/internal/samples"
	"faros/internal/scenario"
)

var sinkSpec faros.Spec

// TestScenarioLookupAllocationBound keeps the by-name path from quietly
// going back to rebuilding the namespace, which costs ~15k allocations per
// resolve. A lookup through a Scenarios() copy costs ~140, which the
// cache-hit bound alone would miss; the zero bound on Scenario catches it.
// The byte bound keeps the spec hash off the cache-hit path: re-encoding
// and hashing njrat's spec on every request would add ~14 KB to the
// ~14 KB a hit allocates.
func TestScenarioLookupAllocationBound(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		sinkSpec, _ = faros.Scenario("njrat")
	}); n != 0 {
		t.Errorf("Scenario(\"njrat\") allocates %.0f times, want 0", n)
	}

	post := cacheHitByName(t)
	const maxAllocs = 500
	n := testing.AllocsPerRun(50, func() { post() })
	t.Logf("cache-hit POST /analyze by name: %.0f allocations", n)
	if n > maxAllocs {
		t.Errorf("cache-hit POST /analyze by name allocates %.0f times, want <= %d", n, maxAllocs)
	}
	if raceEnabled {
		t.Log("no byte bound under -race: sync.Pool drops a random quarter of puts")
		return
	}
	const maxBytes = 20_000
	bytes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			post()
		}
	}).AllocedBytesPerOp()
	t.Logf("cache-hit POST /analyze by name: %d bytes allocated", bytes)
	if bytes > maxBytes {
		t.Errorf("cache-hit POST /analyze by name allocates %d bytes, want <= %d", bytes, maxBytes)
	}
}

// cacheHitByName serves njrat by name through pipeline.NewHandler once, so
// that every call of the returned post is a cache hit, and checks that the
// second request hits.
func cacheHitByName(tb testing.TB) (post func() *httptest.ResponseRecorder) {
	tb.Helper()
	p, err := pipeline.New(pipeline.Config{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(p.Close)
	h := pipeline.NewHandler(p, pipeline.ServerConfig{Resolve: faros.Scenario})
	const body = `{"scenario":"njrat","wait":true}`
	post = func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK {
		tb.Fatalf("priming POST /analyze = %d: %s", rec.Code, rec.Body)
	}
	if rec := post(); !strings.Contains(rec.Body.String(), `"cache_hit":true`) {
		tb.Fatalf("second POST /analyze is not a cache hit: %s", rec.Body)
	}
	return post
}

// TestSharedRegistrySafety runs every registry spec twice at once over the
// shared specs; under -race it checks that no run writes into a spec, and
// the hashes check that no spec changed. If this fails, Scenario must hand
// out clones instead of shared specs.
func TestSharedRegistrySafety(t *testing.T) {
	names := faros.ScenarioNames()
	before := make(map[string]string, len(names))
	for _, name := range names {
		spec, ok := faros.Scenario(name)
		if !ok {
			t.Fatalf("Scenario(%q) not found", name)
		}
		h, err := samples.SpecHash(spec)
		if err != nil {
			t.Fatalf("SpecHash(%s): %v", name, err)
		}
		before[name] = h
	}

	// A few specs at a time keep memory small; both runs of a spec are
	// always in flight together.
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for _, name := range names {
		spec, _ := faros.Scenario(name)
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			var pair sync.WaitGroup
			for range 2 {
				pair.Add(1)
				go func() {
					defer pair.Done()
					res, err := scenario.DetectContext(context.Background(), spec, nil)
					if err != nil {
						t.Errorf("DetectContext(%s): %v", spec.Name, err)
					} else if res.Flagged() != spec.ExpectFlag {
						t.Errorf("%s: flagged = %v, want %v", spec.Name, res.Flagged(), spec.ExpectFlag)
					}
				}()
			}
			pair.Wait()
		}()
	}
	wg.Wait()

	for _, name := range names {
		spec, _ := faros.Scenario(name)
		h, err := samples.SpecHash(spec)
		if err != nil {
			t.Fatalf("SpecHash(%s): %v", name, err)
		}
		if h != before[name] {
			t.Errorf("%s: spec hash changed across runs: %s -> %s", name, before[name], h)
		}
	}

	// Scenarios and ScenarioNames hand out copies: editing one result
	// changes neither the registry nor the next call's result.
	m := faros.Scenarios()
	delete(m, "njrat")
	if _, ok := faros.Scenario("njrat"); !ok {
		t.Error("deleting from a Scenarios() result removed the scenario from the registry")
	}
	if _, ok := faros.Scenarios()["njrat"]; !ok {
		t.Error("deleting from a Scenarios() result changed the next Scenarios() result")
	}
	got := faros.ScenarioNames()
	slices.Reverse(got)
	if again := faros.ScenarioNames(); !slices.Equal(again, names) {
		t.Error("reordering a ScenarioNames() result changed the next ScenarioNames() result")
	}
}
