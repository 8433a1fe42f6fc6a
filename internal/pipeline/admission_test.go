package pipeline_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"faros/internal/pipeline"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// newAdmissionServer builds a handler with admission control over an
// injected runner; specs are submitted by wire form, so no registry is
// needed.
func newAdmissionServer(t *testing.T, cfg pipeline.Config, adm pipeline.AdmissionConfig) (*httptest.Server, *pipeline.Pool) {
	t.Helper()
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(p.Close)
	srv := httptest.NewServer(pipeline.NewHandler(p, pipeline.ServerConfig{Admission: &adm}))
	t.Cleanup(srv.Close)
	return srv, p
}

func specBody(t *testing.T, spec samples.Spec, wait bool) string {
	t.Helper()
	wire, err := samples.MarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"spec": %s, "mode": "live", "wait": %v}`, wire, wait)
}

// stubRunner answers instantly without running a guest.
func stubRunner(ctx context.Context, req pipeline.Request) (*scenario.Result, error) {
	return &scenario.Result{Name: req.Spec.Name}, nil
}

// TestRateLimitRejection: with a one-token bucket, the second immediate
// request from the same client is rejected 429 with a Retry-After hint,
// and the rejection is counted on /metrics.
func TestRateLimitRejection(t *testing.T) {
	srv, _ := newAdmissionServer(t,
		pipeline.Config{Workers: 1, Runner: stubRunner},
		pipeline.AdmissionConfig{RatePerSec: 0.001, Burst: 1})

	resp, _ := postAnalyze(t, srv, specBody(t, samples.Spinner(1000), true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp.StatusCode)
	}
	resp2, _ := postAnalyze(t, srv, specBody(t, samples.Spinner(2000), true))
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp2.StatusCode)
	}
	ra := resp2.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}

	metrics, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	body, err := io.ReadAll(metrics.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "faros_admission_rate_limited_total 1") {
		t.Fatalf("metrics missing rate-limit counter:\n%s", body)
	}
}

// TestShedThenRecover: with the queue saturated, fresh work sheds with
// 429 while cached results keep serving; once the queue drains, fresh
// work is accepted again.
func TestShedThenRecover(t *testing.T) {
	warm := samples.Spinner(1000)
	release := make(chan struct{})
	runner := func(ctx context.Context, req pipeline.Request) (*scenario.Result, error) {
		if req.Spec.MaxInstr != warm.MaxInstr {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &scenario.Result{Name: req.Spec.Name}, nil
	}
	srv, p := newAdmissionServer(t,
		pipeline.Config{Workers: 1, QueueDepth: 1, Runner: runner},
		pipeline.AdmissionConfig{ShedThreshold: 0.9})

	// Pre-warm the cache while there is capacity.
	if resp, view := postAnalyze(t, srv, specBody(t, warm, true)); resp.StatusCode != http.StatusOK || view.Result == nil {
		t.Fatalf("warm-up failed: status %d", resp.StatusCode)
	}

	// Saturate: one job on the worker, one in the queue.
	if resp, _ := postAnalyze(t, srv, specBody(t, samples.Spinner(2000), false)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker A: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return p.Stats().Running == 1 })
	if resp, _ := postAnalyze(t, srv, specBody(t, samples.Spinner(3000), false)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker B: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return p.QueueSaturation() >= 0.9 })

	// Fresh work sheds…
	resp, _ := postAnalyze(t, srv, specBody(t, samples.Spinner(4000), false))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fresh work while saturated: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	// …but cached results still serve, flagged as hits.
	hitResp, hitView := postAnalyze(t, srv, specBody(t, warm, true))
	if hitResp.StatusCode != http.StatusOK || !hitView.CacheHit {
		t.Fatalf("cached result while shedding: status %d, cache_hit %v", hitResp.StatusCode, hitView.CacheHit)
	}
	// /readyz reports not-ready while shedding.
	if status, rd := getReadyz(t, srv); status != http.StatusServiceUnavailable || !rd.Shedding {
		t.Fatalf("/readyz while shedding: status %d, body %+v", status, rd)
	}

	// Recover: drain the queue and fresh work is accepted again.
	close(release)
	waitFor(t, func() bool { return p.QueueSaturation() == 0 && p.Stats().Running == 0 })
	if status, rd := getReadyz(t, srv); status != http.StatusOK || !rd.Ready {
		t.Fatalf("/readyz after recovery: status %d, body %+v", status, rd)
	}
	resp2, view := postAnalyze(t, srv, specBody(t, samples.Spinner(4000), true))
	if resp2.StatusCode != http.StatusOK || view.State != pipeline.StateDone {
		t.Fatalf("fresh work after recovery: status %d, state %s", resp2.StatusCode, view.State)
	}
}

// TestReadyzDrain: a draining pool is not ready but stays alive on
// /healthz — the drain is invisible to the liveness probe.
func TestReadyzDrain(t *testing.T) {
	srv, p := newAdmissionServer(t,
		pipeline.Config{Workers: 1, Runner: stubRunner},
		pipeline.AdmissionConfig{})
	if status, rd := getReadyz(t, srv); status != http.StatusOK || !rd.Ready || rd.Store != "disabled" {
		t.Fatalf("/readyz fresh: status %d, body %+v", status, rd)
	}
	p.BeginDrain()
	if status, rd := getReadyz(t, srv); status != http.StatusServiceUnavailable || !rd.Draining {
		t.Fatalf("/readyz draining: status %d, body %+v", status, rd)
	}
	health, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain: status %d, want 200", health.StatusCode)
	}
}

// TestSustainedLoadBoundedQueue hammers a saturated server with fresh
// work: every submission answers promptly (202 or 429 — never a hang or
// a 5xx), the queue never exceeds its depth, and cached results keep
// serving throughout.
func TestSustainedLoadBoundedQueue(t *testing.T) {
	warm := samples.Spinner(1000)
	release := make(chan struct{})
	runner := func(ctx context.Context, req pipeline.Request) (*scenario.Result, error) {
		if req.Spec.MaxInstr != warm.MaxInstr {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &scenario.Result{Name: req.Spec.Name}, nil
	}
	const depth = 2
	srv, p := newAdmissionServer(t,
		pipeline.Config{Workers: 1, QueueDepth: depth, Runner: runner},
		pipeline.AdmissionConfig{ShedThreshold: 0.9})
	defer close(release)

	if resp, _ := postAnalyze(t, srv, specBody(t, warm, true)); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d", resp.StatusCode)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var body string
			if i%4 == 0 {
				body = specBody(t, warm, true) // cached: must always serve
			} else {
				body = specBody(t, samples.Spinner(uint64(10000+i)), false)
			}
			resp, view := postAnalyze(t, srv, body)
			mu.Lock()
			statuses[resp.StatusCode]++
			mu.Unlock()
			if i%4 == 0 && (resp.StatusCode != http.StatusOK || !view.CacheHit) {
				t.Errorf("cached request %d: status %d, cache_hit %v", i, resp.StatusCode, view.CacheHit)
			}
			if sat := p.QueueSaturation(); sat > 1 {
				t.Errorf("queue saturation %v exceeded 1", sat)
			}
		}(i)
	}
	wg.Wait()
	for code := range statuses {
		if code != http.StatusOK && code != http.StatusAccepted && code != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d under load (got %v)", code, statuses)
		}
	}
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no submissions shed under sustained load: %v", statuses)
	}
	if statuses[http.StatusOK] < 8 {
		t.Fatalf("cached results did not keep serving: %v", statuses)
	}
}

func getReadyz(t *testing.T, srv *httptest.Server) (int, pipeline.Readiness) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rd pipeline.Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, rd
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
