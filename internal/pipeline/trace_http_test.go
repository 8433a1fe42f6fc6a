package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"faros/internal/pipeline"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/trace"
)

// newTraceServer boots a server whose pool carries a trace store.
func newTraceServer(t *testing.T) (*httptest.Server, *pipeline.Pool, *trace.Store) {
	t.Helper()
	ts, err := trace.OpenStore(trace.StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	srv, p := newTestServer(t, pipeline.Config{Workers: 2, Traces: ts})
	return srv, p, ts
}

// recordedTrace records the attack once per process and reuses the bytes.
var recordedTrace struct {
	once   sync.Once
	data   []byte
	digest string
	err    error
}

func attackTrace(t *testing.T) ([]byte, string) {
	t.Helper()
	r := &recordedTrace
	r.once.Do(func() {
		r.data, r.digest, _, r.err = scenario.RecordTrace(
			context.Background(), samples.ReflectiveDLLInject(), nil)
	})
	if r.err != nil {
		t.Fatalf("record trace: %v", r.err)
	}
	return r.data, r.digest
}

func postTrace(t *testing.T, srv *httptest.Server, data []byte) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /traces response: %v", err)
	}
	return resp, body
}

// TestTraceLifecycleHTTP walks the replay farm's whole surface: upload,
// dedup, listing, raw retrieval, analysis under two configs with the
// composite (trace digest, config) cache key, and findings identical to a
// detect-mode run of the same scenario.
func TestTraceLifecycleHTTP(t *testing.T) {
	srv, p, ts := newTraceServer(t)
	data, digest := attackTrace(t)

	// Upload, then dedup re-upload.
	resp, body := postTrace(t, srv, data)
	if resp.StatusCode != http.StatusCreated || body["digest"] != digest || body["created"] != true {
		t.Fatalf("upload: status %d body %v", resp.StatusCode, body)
	}
	resp, body = postTrace(t, srv, data)
	if resp.StatusCode != http.StatusOK || body["created"] != false {
		t.Fatalf("re-upload: status %d body %v", resp.StatusCode, body)
	}
	if ts.Len() != 1 {
		t.Fatalf("store holds %d traces, want 1", ts.Len())
	}

	// Listing and raw retrieval round-trip the exact bytes.
	lresp, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Traces []trace.Info `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(listing.Traces) != 1 || listing.Traces[0].Digest != digest ||
		listing.Traces[0].Scenario != "reflective_dll_inject" {
		t.Fatalf("GET /traces: %+v", listing)
	}
	rresp, err := http.Get(srv.URL + "/traces/" + digest + "?raw=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if !bytes.Equal(raw, data) {
		t.Fatalf("?raw=1 returned %d bytes, want the %d uploaded", len(raw), len(data))
	}

	// Analysis-only replay flags the attack with the same findings as a
	// detect-mode run of the same scenario.
	resp, view := postAnalyze(t, srv, fmt.Sprintf(`{"trace": %q, "wait": true}`, digest))
	if resp.StatusCode != http.StatusOK || view.State != pipeline.StateDone || view.Result == nil {
		t.Fatalf("trace analyze: status %d view %+v", resp.StatusCode, view)
	}
	if !view.Result.Flagged || view.CacheHit {
		t.Fatalf("trace analyze: flagged=%v cacheHit=%v", view.Result.Flagged, view.CacheHit)
	}
	_, live := postAnalyze(t, srv, `{"scenario": "reflective_dll_inject", "wait": true}`)
	if live.Result == nil {
		t.Fatalf("live analyze: %+v", live)
	}
	traceKeys, liveKeys := map[string]bool{}, map[string]bool{}
	for _, f := range view.Result.Findings {
		traceKeys[findingKey(f)] = true
	}
	for _, f := range live.Result.Findings {
		liveKeys[findingKey(f)] = true
	}
	if len(traceKeys) == 0 || len(traceKeys) != len(liveKeys) {
		t.Fatalf("findings diverge: trace %v, live %v", traceKeys, liveKeys)
	}
	for k := range liveKeys {
		if !traceKeys[k] {
			t.Fatalf("live finding %q missing from trace replay", k)
		}
	}

	// Same digest + same config = cache hit; different config = new work.
	_, again := postAnalyze(t, srv, fmt.Sprintf(`{"trace": %q, "wait": true}`, digest))
	if !again.CacheHit {
		t.Fatal("identical trace resubmission missed the cache")
	}
	_, strict := postAnalyze(t, srv,
		fmt.Sprintf(`{"trace": %q, "config": {"StrictExecCheck": true}, "wait": true}`, digest))
	if strict.CacheHit || strict.State != pipeline.StateDone {
		t.Fatalf("different config must be a cache miss: %+v", strict)
	}
	_, strictAgain := postAnalyze(t, srv,
		fmt.Sprintf(`{"trace": %q, "config": {"StrictExecCheck": true}, "wait": true}`, digest))
	if !strictAgain.CacheHit {
		t.Fatal("repeated (digest, config) pair missed the cache")
	}

	// Cross-verification: naming the matching spec passes, a different
	// scenario is a typed 409.
	resp, _ = postAnalyze(t, srv, fmt.Sprintf(
		`{"trace": %q, "scenario": "reflective_dll_inject", "wait": true}`, digest))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matching cross-check: status %d", resp.StatusCode)
	}
	resp, _ = postAnalyze(t, srv, fmt.Sprintf(
		`{"trace": %q, "scenario": "process_hollowing", "wait": true}`, digest))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("spec mismatch: status %d, want 409", resp.StatusCode)
	}

	// Replay + mismatch counters are visible on /metrics.
	st := p.Stats()
	if st.Trace.Ingested != 1 || st.Trace.Bytes != uint64(len(data)) {
		t.Fatalf("ingest counters: %+v", st.Trace)
	}
	if st.Trace.Replays < 2 || st.Trace.DigestMismatch != 1 {
		t.Fatalf("replay/mismatch counters: %+v", st.Trace)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"faros_trace_ingested_total 1",
		fmt.Sprintf("faros_trace_bytes_total %d", len(data)),
		"faros_trace_digest_mismatch_total 1",
		"faros_trace_entries 1",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTraceAnalyzeErrors covers the typed 4xx surface of the selector.
func TestTraceAnalyzeErrors(t *testing.T) {
	srv, _, _ := newTraceServer(t)

	// Unknown digest → 404.
	resp, _ := postAnalyze(t, srv, fmt.Sprintf(`{"trace": %q}`, strings.Repeat("ab", 32)))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: status %d, want 404", resp.StatusCode)
	}
	// mode "trace" without a selector → 400.
	resp, _ = postAnalyze(t, srv, `{"mode": "trace", "scenario": "njrat"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("selectorless trace mode: status %d, want 400", resp.StatusCode)
	}
	// A trace selector with a contradictory mode → 400.
	resp, _ = postAnalyze(t, srv, fmt.Sprintf(`{"trace": %q, "mode": "live"}`, strings.Repeat("ab", 32)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace+live: status %d, want 400", resp.StatusCode)
	}
	// Corrupt upload → 400, nothing stored.
	resp, body := postTrace(t, srv, []byte("not a trace at all"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload: status %d body %v, want 400", resp.StatusCode, body)
	}

	// A server with no trace store refuses uploads and selectors cleanly.
	bare, _ := newTestServer(t, pipeline.Config{Workers: 1})
	data, digest := attackTrace(t)
	if resp, _ := postTrace(t, bare, data); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("storeless upload: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postAnalyze(t, bare, fmt.Sprintf(`{"trace": %q}`, digest))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("storeless selector: status %d, want 400", resp.StatusCode)
	}
}

// TestTraceUploadTrailingBytes: an upload with bytes after the trace's
// trailer is the same recording under a second digest, so it gets 400 and
// stores nothing.
func TestTraceUploadTrailingBytes(t *testing.T) {
	srv, _, ts := newTraceServer(t)
	data, _ := attackTrace(t)
	resp, body := postTrace(t, srv, append(append([]byte(nil), data...), 0, 0))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing bytes: status %d body %v, want 400", resp.StatusCode, body)
	}
	if ts.Len() != 0 {
		t.Fatalf("trace store Len = %d after a rejected upload, want 0", ts.Len())
	}
}

// TestTraceConcurrentUploadDedup races identical uploads through the full
// HTTP path: exactly one 201, one stored entry, one ingest count (-race
// guards the store and metrics paths).
func TestTraceConcurrentUploadDedup(t *testing.T) {
	srv, p, ts := newTraceServer(t)
	data, digest := attackTrace(t)

	const n = 12
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postTrace(t, srv, data)
			statuses[i] = resp.StatusCode
			if body["digest"] != digest {
				t.Errorf("upload %d: digest %v", i, body["digest"])
			}
		}(i)
	}
	wg.Wait()
	created := 0
	for _, st := range statuses {
		switch st {
		case http.StatusCreated:
			created++
		case http.StatusOK:
		default:
			t.Fatalf("unexpected status %d", st)
		}
	}
	if created != 1 {
		t.Fatalf("%d uploads answered 201, want exactly 1", created)
	}
	if ts.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", ts.Len())
	}
	if st := p.Stats(); st.Trace.Ingested != 1 || st.Trace.Bytes != uint64(len(data)) {
		t.Fatalf("ingest counted %d times (%d bytes)", st.Trace.Ingested, st.Trace.Bytes)
	}
}
