package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"faros"
	"faros/internal/pipeline"
	"faros/internal/samples"
	"faros/internal/scenario"
)

func newTestServer(t *testing.T, cfg pipeline.Config) (*httptest.Server, *pipeline.Pool) {
	t.Helper()
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(p.Close)
	srv := httptest.NewServer(pipeline.NewHandler(p, pipeline.ServerConfig{
		Resolve: faros.Scenario,
		Names:   faros.ScenarioNames,
	}))
	t.Cleanup(srv.Close)
	return srv, p
}

func postAnalyze(t *testing.T, srv *httptest.Server, body string) (*http.Response, pipeline.JobView) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Waited jobs answer with the job view at every status (a deadline
	// failure is a 504 whose body still carries state and error); error
	// statuses from the handler itself are {"error": ...} objects, which
	// decode into an empty view harmlessly.
	var view pipeline.JobView
	_ = json.NewDecoder(resp.Body).Decode(&view)
	return resp, view
}

// findingKey flattens a finding for set comparison.
func findingKey(f pipeline.Finding) string {
	return fmt.Sprintf("%s|%s|%d|%s", f.Rule, f.Process, f.PID, f.API)
}

// TestServerEndToEnd is the acceptance test: the six-attack corpus
// submitted concurrently through a 4-worker pool over HTTP matches serial
// faros.Analyze findings; an identical re-submission is a cache hit
// visible on /metrics; and a job that exceeds its deadline is cancelled
// without stalling the other workers.
func TestServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus e2e")
	}
	srv, _ := newTestServer(t, pipeline.Config{Workers: 4})
	attacks := faros.Attacks()
	if len(attacks) != 6 {
		t.Fatalf("attack corpus has %d entries, want 6", len(attacks))
	}

	// Kick off the wedged job first so it occupies a worker while the
	// corpus drains through the remaining three.
	wedgedWire, err := samples.MarshalSpec(samples.Spinner(1 << 40))
	if err != nil {
		t.Fatal(err)
	}
	type wedgedReply struct {
		status int
		view   pipeline.JobView
	}
	wedgedCh := make(chan wedgedReply, 1)
	go func() {
		resp, view := postAnalyze(t, srv, fmt.Sprintf(
			`{"spec": %s, "mode": "live", "timeout_ms": 500, "wait": true}`, wedgedWire))
		wedgedCh <- wedgedReply{resp.StatusCode, view}
	}()

	// Concurrent corpus submission (wait=true blocks each request until
	// its job settles).
	views := make([]pipeline.JobView, len(attacks))
	var wg sync.WaitGroup
	for i, spec := range attacks {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			resp, view := postAnalyze(t, srv, fmt.Sprintf(`{"scenario": %q, "wait": true}`, name))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d", name, resp.StatusCode)
			}
			views[i] = view
		}(i, spec.Name)
	}
	wg.Wait()

	// Serial baseline: the facade's analyst workflow, one at a time.
	for i, spec := range attacks {
		view := views[i]
		if view.State != pipeline.StateDone || view.Result == nil {
			t.Fatalf("%s: job %+v", spec.Name, view)
		}
		serial, err := faros.Analyze(spec)
		if err != nil {
			t.Fatalf("%s: serial analyze: %v", spec.Name, err)
		}
		if view.Result.Flagged != serial.Faros.Flagged() {
			t.Errorf("%s: pool flagged=%v, serial flagged=%v",
				spec.Name, view.Result.Flagged, serial.Faros.Flagged())
		}
		poolSet := map[string]bool{}
		for _, f := range view.Result.Findings {
			poolSet[findingKey(f)] = true
		}
		serialSet := map[string]bool{}
		for _, f := range serial.Faros.Findings() {
			serialSet[findingKey(pipeline.Finding{
				Rule: f.Rule, Process: f.ProcName, PID: f.PID, API: f.ResolvedAPI,
			})] = true
		}
		if !reflect.DeepEqual(poolSet, serialSet) {
			t.Errorf("%s: findings diverge\n pool:   %v\n serial: %v", spec.Name, poolSet, serialSet)
		}
		if view.Result.Instructions != serial.Summary.Instructions {
			t.Errorf("%s: pool ran %d instructions, serial %d (determinism broken?)",
				spec.Name, view.Result.Instructions, serial.Summary.Instructions)
		}
	}

	// Identical re-submission: served from cache.
	resp, rerun := postAnalyze(t, srv,
		fmt.Sprintf(`{"scenario": %q, "wait": true}`, attacks[0].Name))
	if resp.StatusCode != http.StatusOK || !rerun.CacheHit {
		t.Errorf("re-submission: status %d, cacheHit=%v", resp.StatusCode, rerun.CacheHit)
	}

	// The cached result is also addressable by its hash.
	res, err := http.Get(srv.URL + "/results/" + rerun.Hash)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("GET /results/%s: status %d", rerun.Hash, res.StatusCode)
	}

	// The wedged job fails with a deadline error mapped to 504, its body
	// still carrying the job view; the corpus above already proved the
	// other workers kept completing meanwhile.
	select {
	case wedged := <-wedgedCh:
		if wedged.status != http.StatusGatewayTimeout {
			t.Errorf("wedged job status = %d, want 504", wedged.status)
		}
		if wedged.view.State != pipeline.StateFailed || !strings.Contains(wedged.view.Error, "deadline exceeded") {
			t.Errorf("wedged job: state=%s error=%q", wedged.view.State, wedged.view.Error)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wedged job never settled")
	}

	// /metrics reflects all of it.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	metricsText := buf.String()
	for _, want := range []string{
		"faros_cache_hits_total 1",
		"faros_jobs_done_total 6",
		"faros_jobs_deadline_total 1",
		"faros_workers 4",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(metricsText, `faros_findings_total{rule=`) {
		t.Error("/metrics has no per-rule findings")
	}
}

// TestServerAsyncLifecycle: submit without wait, poll /jobs/{id} to
// completion.
func TestServerAsyncLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, pipeline.Config{Workers: 2})
	wire, err := samples.MarshalSpec(samples.Figure1Workload().Spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, view := postAnalyze(t, srv, fmt.Sprintf(`{"spec": %s, "mode": "live"}`, wire))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var polled pipeline.JobView
		if err := json.NewDecoder(r.Body).Decode(&polled); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if polled.State == pipeline.StateDone {
			if polled.Result == nil || polled.Result.Scenario != "fig1_address_dependency" {
				t.Fatalf("result = %+v", polled.Result)
			}
			break
		}
		if polled.State == pipeline.StateFailed || polled.State == pipeline.StateCanceled {
			t.Fatalf("job ended %s: %s", polled.State, polled.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", polled.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerScenarioFileSubmission: an inline bring-your-own-shellcode
// description runs end to end; payload_asm is rejected because it names a
// server-side file.
func TestServerScenarioFileSubmission(t *testing.T) {
	srv, _ := newTestServer(t, pipeline.Config{Workers: 2})
	// Hand-encoded FAROS-32 payload (same bytes as the scenariofile loader
	// test): NOP, MOV EBX 0, MOV EDI StubBase, CALL EDI.
	payloadHex := "01 08 00 00 00 00 00 00 03 02 01 00 00 00 00 00 03 02 05 00 00 00 e0 7f 19 01 05 00 00 00 00 00"
	resp, view := postAnalyze(t, srv, fmt.Sprintf(`{
		"scenario_file": {"name": "hex_attack", "self_inject": true, "payload_hex": %q},
		"mode": "live", "wait": true
	}`, payloadHex))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario_file submit: status %d", resp.StatusCode)
	}
	if view.State != pipeline.StateDone {
		t.Fatalf("job = %+v", view)
	}

	resp, _ = postAnalyze(t, srv, `{
		"scenario_file": {"name": "x", "victim": "v.exe", "payload_asm": "/etc/payload.s"}
	}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("payload_asm over HTTP: status %d, want 400", resp.StatusCode)
	}
}

// TestServerRequestValidation covers the 4xx surface.
func TestServerRequestValidation(t *testing.T) {
	srv, _ := newTestServer(t, pipeline.Config{Workers: 1})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"no selector", `{}`, http.StatusBadRequest},
		{"two selectors", `{"scenario": "njrat", "spec": {"name": "x"}}`, http.StatusBadRequest},
		{"unknown scenario", `{"scenario": "nope"}`, http.StatusNotFound},
		{"bad body", `{{{`, http.StatusBadRequest},
		{"bad mode", `{"scenario": "njrat", "mode": "warp"}`, http.StatusBadRequest},
		{"bad spec wire", `{"spec": {"max_instr": 3}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, _ := postAnalyze(t, srv, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	if resp, err := http.Get(srv.URL + "/jobs/j999999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %v %d", err, resp.StatusCode)
	}
	if resp, err := http.Get(srv.URL + "/results/feedface"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result: %v %d", err, resp.StatusCode)
	}
}

// TestServerNamespace: /scenarios and /healthz.
func TestServerNamespace(t *testing.T) {
	srv, _ := newTestServer(t, pipeline.Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Scenarios []string `json:"scenarios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Scenarios) < 100 {
		t.Errorf("namespace has %d entries, want the full corpus", len(body.Scenarios))
	}
	found := false
	for _, n := range body.Scenarios {
		if n == "reflective_dll_inject" {
			found = true
		}
	}
	if !found {
		t.Error("reflective_dll_inject missing from /scenarios")
	}

	h, err := http.Get(srv.URL + "/healthz")
	if err != nil || h.StatusCode != http.StatusOK {
		t.Errorf("healthz: %v %d", err, h.StatusCode)
	}
}

// TestServerJobRetentionExpiry: GET /jobs/{id} answers from the retention
// ring after a job settles, and 404s once retention age expires it.
func TestServerJobRetentionExpiry(t *testing.T) {
	srv, _ := newTestServer(t, pipeline.Config{
		Workers: 1, JobRetention: 8, JobRetentionAge: 100 * time.Millisecond,
	})
	wire, err := samples.MarshalSpec(samples.Spinner(1000))
	if err != nil {
		t.Fatal(err)
	}
	resp, view := postAnalyze(t, srv, fmt.Sprintf(`{"spec": %s, "mode": "live", "wait": true}`, wire))
	if resp.StatusCode != http.StatusOK || view.State != pipeline.StateDone {
		t.Fatalf("submit: status %d view %+v", resp.StatusCode, view)
	}

	// Settled → still visible from retention.
	r, err := http.Get(srv.URL + "/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s right after settle: status %d", view.ID, r.StatusCode)
	}

	time.Sleep(300 * time.Millisecond)
	r, err = http.Get(srv.URL + "/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("GET /jobs/%s after retention expiry: status %d, want 404", view.ID, r.StatusCode)
	}
}

// TestServerCancelEndpoint: POST /jobs/{id}/cancel detaches the waiter;
// cancelling a settled job is 409, an unknown one 404.
func TestServerCancelEndpoint(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocking := func(ctx context.Context, req pipeline.Request) (*scenario.Result, error) {
		select {
		case <-release:
			return &scenario.Result{Name: req.Spec.Name}, nil
		case <-ctx.Done():
			return nil, &scenario.CancelError{Scenario: req.Spec.Name, Instructions: 1}
		}
	}
	srv, _ := newTestServer(t, pipeline.Config{Workers: 1, Runner: blocking})

	wire, err := samples.MarshalSpec(samples.Spinner(1 << 30))
	if err != nil {
		t.Fatal(err)
	}
	resp, view := postAnalyze(t, srv, fmt.Sprintf(`{"spec": %s, "mode": "live"}`, wire))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	r, err := http.Post(srv.URL+"/jobs/"+view.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var canceled pipeline.JobView
	if err := json.NewDecoder(r.Body).Decode(&canceled); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK || canceled.State != pipeline.StateCanceled {
		t.Fatalf("cancel: status %d state %s", r.StatusCode, canceled.State)
	}

	// Second cancel: the job has settled, so 409.
	r, err = http.Post(srv.URL+"/jobs/"+view.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel: status %d, want 409", r.StatusCode)
	}

	r, err = http.Post(srv.URL+"/jobs/j999999/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d, want 404", r.StatusCode)
	}
}

// TestServerDegradedNotCached: a degraded result is visible to the waiter
// but never enters the cache; /metrics exposes the skip counter and the
// retention gauge.
func TestServerDegradedNotCached(t *testing.T) {
	degraded := func(ctx context.Context, req pipeline.Request) (*scenario.Result, error) {
		return &scenario.Result{Name: req.Spec.Name, Err: errors.New("recovered plugin panic: boom")}, nil
	}
	srv, _ := newTestServer(t, pipeline.Config{Workers: 1, Runner: degraded})

	wire, err := samples.MarshalSpec(samples.Spinner(1000))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"spec": %s, "mode": "live", "wait": true}`, wire)
	_, first := postAnalyze(t, srv, body)
	if first.State != pipeline.StateDone || first.Result == nil || first.Result.Degraded == "" {
		t.Fatalf("first run: %+v", first)
	}
	_, second := postAnalyze(t, srv, body)
	if second.CacheHit {
		t.Error("degraded result served from cache over HTTP")
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	metricsText := buf.String()
	for _, want := range []string{
		"faros_cache_skipped_degraded_total 2",
		"faros_jobs_retained 2",
		"faros_cache_hits_total 0",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
