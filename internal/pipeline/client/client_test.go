package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faros/internal/pipeline"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// newTestClient wires a client to a server with an injected sleep that
// records requested delays instead of waiting.
func newTestClient(t *testing.T, url string, cfg Config) (*Client, *[]time.Duration) {
	t.Helper()
	var mu sync.Mutex
	slept := &[]time.Duration{}
	cfg.BaseURL = url
	cfg.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*slept = append(*slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, slept
}

func okView(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(pipeline.JobView{ID: "j1", State: pipeline.StateDone})
}

// TestRetryAfterHonored: a 429 carrying Retry-After overrides the
// computed backoff exactly.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "shed"})
			return
		}
		okView(w)
	}))
	defer srv.Close()

	c, slept := newTestClient(t, srv.URL, Config{})
	view, err := c.Analyze(context.Background(), pipeline.AnalyzeRequest{Scenario: "x", Wait: true})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if view.State != pipeline.StateDone {
		t.Fatalf("view = %+v", view)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if len(*slept) != 2 || (*slept)[0] != 7*time.Second || (*slept)[1] != 7*time.Second {
		t.Fatalf("sleeps = %v, want [7s 7s]", *slept)
	}
}

// TestBackoffGrowsWithJitter: without Retry-After the delays follow the
// doubling schedule, jittered into [delay/2, delay), and the stream is
// deterministic for a fixed Seed.
func TestBackoffGrowsWithJitter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	run := func() []time.Duration {
		c, slept := newTestClient(t, srv.URL, Config{
			MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Seed: 42,
		})
		if _, err := c.Analyze(context.Background(), pipeline.AnalyzeRequest{Scenario: "x"}); err == nil {
			t.Fatal("Analyze succeeded against a 503-only server")
		}
		return *slept
	}
	slept := run()
	if len(slept) != 4 {
		t.Fatalf("%d sleeps, want 4", len(slept))
	}
	for i, d := range slept {
		want := 100 * time.Millisecond << i
		if want > time.Second {
			want = time.Second
		}
		if d < want/2 || d >= want {
			t.Fatalf("sleep %d = %v, want in [%v, %v)", i, d, want/2, want)
		}
	}
	for i, d := range run() {
		if d != slept[i] {
			t.Fatalf("jitter not deterministic for fixed seed: %v vs %v", d, slept[i])
		}
	}
}

// TestNonRetryableFailsFast: a 400 is the caller's bug; no retries, a
// typed StatusError.
func TestNonRetryableFailsFast(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "exactly one of scenario, scenario_file, spec must be set"})
	}))
	defer srv.Close()

	c, slept := newTestClient(t, srv.URL, Config{})
	_, err := c.Analyze(context.Background(), pipeline.AnalyzeRequest{})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError{400}", err)
	}
	if calls.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("calls=%d sleeps=%d, want 1 and 0", calls.Load(), len(*slept))
	}
}

// TestContextCancelDuringBackoff: cancellation is observed inside the
// backoff sleep, not just between attempts.
func TestContextCancelDuringBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	c, err := New(Config{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Analyze(ctx, pipeline.AnalyzeRequest{Scenario: "x"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v, backoff sleep ignored the context", elapsed)
	}
}

// TestGiveUpAfterMaxAttempts: persistent back-pressure eventually
// surfaces, wrapping the last transient failure.
func TestGiveUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv.URL, Config{MaxAttempts: 3})
	_, err := c.Analyze(context.Background(), pipeline.AnalyzeRequest{Scenario: "x"})
	if err == nil || calls.Load() != 3 {
		t.Fatalf("err=%v calls=%d, want failure after 3", err, calls.Load())
	}
}

// TestSweepCompletesUnderOverload is the acceptance test: a farosd with a
// one-deep queue sheds most of a 12-spec concurrent sweep with 429, and
// the retrying client still completes every submission — idempotently, by
// spec hash — once capacity frees up.
func TestSweepCompletesUnderOverload(t *testing.T) {
	gate := make(chan struct{}, 1)
	runner := func(ctx context.Context, req pipeline.Request) (*scenario.Result, error) {
		select {
		case gate <- struct{}{}: // serialize; simulate slow guests
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-gate }()
		time.Sleep(time.Millisecond)
		return &scenario.Result{Name: req.Spec.Name}, nil
	}
	p, err := pipeline.New(pipeline.Config{Workers: 2, QueueDepth: 1, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(pipeline.NewHandler(p, pipeline.ServerConfig{
		Admission: &pipeline.AdmissionConfig{ShedThreshold: 0.9},
	}))
	defer srv.Close()

	// Real sleeps, scaled down so shed retries actually wait for capacity.
	c, err := New(Config{BaseURL: srv.URL, MaxAttempts: 20, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Retry-After:1s would dominate the test; trim it via the transport
	// by stripping the header. The backoff path alone must converge.
	c.http = &http.Client{Transport: stripRetryAfter{http.DefaultTransport}}

	var wg sync.WaitGroup
	errs := make([]error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wire, err := samples.MarshalSpec(samples.Spinner(uint64(1000 + i)))
			if err != nil {
				errs[i] = err
				return
			}
			view, err := c.Analyze(context.Background(),
				pipeline.AnalyzeRequest{Spec: wire, Mode: "live", Wait: true})
			if err == nil && view.State != pipeline.StateDone {
				err = fmt.Errorf("state %s", view.State)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("spec %d: %v", i, err)
		}
	}
	if shed := p.Stats().AdmissionShed; shed == 0 {
		t.Log("note: no submissions shed this run (timing-dependent); sweep still exercised the retry path")
	}
}

type stripRetryAfter struct{ inner http.RoundTripper }

func (s stripRetryAfter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := s.inner.RoundTrip(r)
	if resp != nil {
		resp.Header.Del("Retry-After")
	}
	return resp, err
}

// TestScenarios round-trips the namespace listing.
func TestScenarios(t *testing.T) {
	p, err := pipeline.New(pipeline.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(pipeline.NewHandler(p, pipeline.ServerConfig{
		Names: func() []string { return []string{"a", "b"} },
	}))
	defer srv.Close()
	c, err := New(Config{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	names, err := c.Scenarios(context.Background())
	if err != nil || len(names) != 2 {
		t.Fatalf("Scenarios = %v, %v", names, err)
	}
}

// TestHeadersAppliedEveryRequest: configured headers (the cluster's hop
// guard) ride on every request, including retries and raw uploads.
func TestHeadersAppliedEveryRequest(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get(pipeline.ForwardedHeader); got != "node-a" {
			t.Errorf("%s %s: hop header %q, want node-a", r.Method, r.URL.Path, got)
		}
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		switch r.URL.Path {
		case "/traces":
			if ct := r.Header.Get("Content-Type"); ct != "application/octet-stream" {
				t.Errorf("trace upload content type %q", ct)
			}
			json.NewEncoder(w).Encode(map[string]any{"digest": "d1", "created": true})
		default:
			okView(w)
		}
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv.URL, Config{Headers: http.Header{pipeline.ForwardedHeader: []string{"node-a"}}})
	if _, err := c.Job(context.Background(), "j1"); err != nil {
		t.Fatal(err) // first call 503s then retries; header must ride both
	}
	digest, created, err := c.PutTrace(context.Background(), []byte("raw-trace"))
	if err != nil || digest != "d1" || !created {
		t.Fatalf("PutTrace = %q %v %v", digest, created, err)
	}
}

// TestResultNotFound: GET /results/{hash} misses surface as a typed
// *StatusError so the cluster walk can keep trying replicas.
func TestResultNotFound(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "no cached result"})
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv.URL, Config{})
	_, err := c.Result(context.Background(), "beef")
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("want StatusError{404}, got %v", err)
	}
}

// TestBackoffSchedulePinned pins the client's first eight retry delays
// for its default seed and for a fixed one (100ms doubling to 5s).
func TestBackoffSchedulePinned(t *testing.T) {
	for seed, want := range map[uint64][8]time.Duration{
		0:  {95056031, 173315084, 372915344, 564624295, 1341055577, 2320473025, 3227160468, 3096295868},
		42: {55275413, 126892291, 262763858, 658255764, 1341963250, 2462989062, 2777624925, 4487775908},
	} {
		c, err := New(Config{BaseURL: "http://x", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for n, w := range want {
			if d := c.backoff.Delay(n); d != w {
				t.Errorf("seed %d: delay %d = %d, want %d", seed, n, d, w)
			}
		}
	}
}
