// Package client is the retrying farosd HTTP client: jittered exponential
// backoff for transient failures (connection errors, 429 back-pressure,
// 503 drain), honoring the server's Retry-After hint when one is given.
//
// Retrying a submission is safe by construction: jobs are identified by
// the deterministic spec hash, so a retried POST /analyze either hits the
// result cache/persistent store, coalesces onto the still-running job, or
// re-runs the same deterministic analysis — never duplicated, divergent
// work. That idempotency is what lets farosbench sweeps hammer an
// overloaded farosd and still converge: shed submissions come back with
// 429 + Retry-After, the client backs off, and the sweep completes once
// capacity frees up.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"faros/internal/pipeline"
)

// Config tunes a Client.
type Config struct {
	// BaseURL is the farosd root, e.g. "http://127.0.0.1:7373". Required.
	BaseURL string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds tries per call, first attempt included
	// (default 8).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms); each retry
	// doubles it, capped at MaxDelay (default 5s). The actual sleep is
	// jittered uniformly over [delay/2, delay) so a fleet of clients
	// rejected together does not retry together. A server Retry-After
	// overrides the computed backoff.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed makes the jitter stream deterministic (0 = fixed default
	// seed; determinism matters more than uniqueness here, and the
	// half-delay floor keeps even identical streams spread out).
	Seed uint64
	// Headers is applied to every request. The cluster forwarder sets
	// the X-Faros-Forwarded hop guard here so every call through a
	// peer-directed client carries it.
	Headers http.Header

	// sleep overrides the backoff sleep (tests observe delays through
	// it). The default waits on a timer or the context.
	sleep func(ctx context.Context, d time.Duration) error
}

// Client is a farosd API client. Safe for concurrent use.
type Client struct {
	cfg     Config
	http    *http.Client
	backoff *Backoff
}

// StatusError is a non-retryable server rejection (4xx other than 429).
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("farosd: %d: %s", e.Status, e.Msg)
}

// New builds a client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 100 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0xFA405C11E47
	}
	if cfg.sleep == nil {
		cfg.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	return &Client{cfg: cfg, http: cfg.HTTP, backoff: NewBackoff(cfg.BaseDelay, cfg.MaxDelay, seed)}, nil
}

// Backoff is a seeded, jittered exponential backoff: retry step n
// (0-based) waits base·2ⁿ capped at limit, spread uniformly over [d/2, d)
// so a fleet rejected together does not retry together. The jitter is a
// splitmix64 stream (the same tiny PRNG internal/faults uses —
// deterministic, no global rand state). Safe for concurrent use.
type Backoff struct {
	base, limit time.Duration

	mu sync.Mutex
	st uint64
}

// NewBackoff returns a backoff whose jitter stream starts at seed.
func NewBackoff(base, limit time.Duration, seed uint64) *Backoff {
	return &Backoff{base: base, limit: limit, st: seed}
}

// Delay returns the jittered delay for retry step n (0-based).
func (b *Backoff) Delay(n int) time.Duration {
	d := b.base
	for i := 0; i < n && d < b.limit; i++ {
		d *= 2
	}
	return b.Jitter(min(d, b.limit))
}

// Jitter spreads d uniformly over [d/2, d).
func (b *Backoff) Jitter(d time.Duration) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(b.next()%uint64(half))
}

// next is one splitmix64 draw.
func (b *Backoff) next() uint64 {
	b.mu.Lock()
	b.st += 0x9E3779B97F4A7C15
	z := b.st
	b.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// retryAfter parses a Retry-After header: delay-seconds or an HTTP date.
// ok=false when absent or unparseable.
func retryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// retryableStatus reports whether a status is back-pressure the client
// should wait out rather than a rejection of the request itself.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one request with the retry loop. body is re-sent verbatim on
// every attempt. The response body bytes are returned for 2xx statuses.
// A 201 (trace created) and 200 (trace dedup) are both success here.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	return c.doTyped(ctx, method, path, body, "application/json")
}

func (c *Client) doTyped(ctx context.Context, method, path string, body []byte, contentType string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay, ok := retryDelay(lastErr)
			if !ok {
				delay = c.backoff.Delay(attempt - 1)
			}
			if err := c.cfg.sleep(ctx, delay); err != nil {
				return nil, err
			}
		}
		var reader io.Reader
		if body != nil {
			reader = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, reader)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", contentType)
		}
		for k, vs := range c.cfg.Headers {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := c.http.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = &transientError{msg: err.Error()}
			continue
		}
		respBody, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			if readErr != nil {
				lastErr = &transientError{msg: readErr.Error()}
				continue
			}
			return respBody, nil
		}
		msg := serverError(respBody)
		if retryableStatus(resp.StatusCode) {
			te := &transientError{status: resp.StatusCode, msg: msg}
			if d, ok := retryAfter(resp); ok {
				te.retryAfter = d
				te.hasRetryAfter = true
			}
			lastErr = te
			continue
		}
		return nil, &StatusError{Status: resp.StatusCode, Msg: msg}
	}
	return nil, fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// transientError is a retryable failure (network error or back-pressure
// status), carrying the server's Retry-After when it sent one.
type transientError struct {
	status        int
	msg           string
	retryAfter    time.Duration
	hasRetryAfter bool
}

func (e *transientError) Error() string {
	if e.status != 0 {
		return fmt.Sprintf("farosd: %d: %s", e.status, e.msg)
	}
	return e.msg
}

// retryDelay extracts a server-mandated delay from the previous failure.
func retryDelay(err error) (time.Duration, bool) {
	var te *transientError
	if errors.As(err, &te) && te.hasRetryAfter {
		return te.retryAfter, true
	}
	return 0, false
}

// serverError extracts the {"error": "..."} body, falling back to the raw
// bytes.
func serverError(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// Analyze submits one job via POST /analyze, retrying through
// back-pressure. Set req.Wait to block server-side until the job settles.
func (c *Client) Analyze(ctx context.Context, req pipeline.AnalyzeRequest) (*pipeline.JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	respBody, err := c.do(ctx, http.MethodPost, "/analyze", body)
	if err != nil {
		return nil, err
	}
	var view pipeline.JobView
	if err := json.Unmarshal(respBody, &view); err != nil {
		return nil, fmt.Errorf("client: decoding job view: %w", err)
	}
	return &view, nil
}

// Job fetches a job's current view.
func (c *Client) Job(ctx context.Context, id string) (*pipeline.JobView, error) {
	respBody, err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	var view pipeline.JobView
	if err := json.Unmarshal(respBody, &view); err != nil {
		return nil, fmt.Errorf("client: decoding job view: %w", err)
	}
	return &view, nil
}

// Result fetches a cached or stored result by its cache key. A miss
// surfaces as a *StatusError with Status 404.
func (c *Client) Result(ctx context.Context, hash string) (*pipeline.Result, error) {
	respBody, err := c.do(ctx, http.MethodGet, "/results/"+hash, nil)
	if err != nil {
		return nil, err
	}
	var res pipeline.Result
	if err := json.Unmarshal(respBody, &res); err != nil {
		return nil, fmt.Errorf("client: decoding result: %w", err)
	}
	return &res, nil
}

// PutTrace uploads an encoded trace (the internal/trace wire format) via
// POST /traces, retrying through back-pressure. Uploads are idempotent
// by content digest: created=false means the server already stored an
// identical trace.
func (c *Client) PutTrace(ctx context.Context, data []byte) (digest string, created bool, err error) {
	respBody, err := c.doTyped(ctx, http.MethodPost, "/traces", data, "application/octet-stream")
	if err != nil {
		return "", false, err
	}
	var out struct {
		Digest  string `json:"digest"`
		Created bool   `json:"created"`
	}
	if err := json.Unmarshal(respBody, &out); err != nil {
		return "", false, fmt.Errorf("client: decoding trace upload: %w", err)
	}
	return out.Digest, out.Created, nil
}

// Scenarios lists the server's scenario namespace.
func (c *Client) Scenarios(ctx context.Context) ([]string, error) {
	respBody, err := c.do(ctx, http.MethodGet, "/scenarios", nil)
	if err != nil {
		return nil, err
	}
	var out struct {
		Scenarios []string `json:"scenarios"`
	}
	if err := json.Unmarshal(respBody, &out); err != nil {
		return nil, fmt.Errorf("client: decoding scenarios: %w", err)
	}
	return out.Scenarios, nil
}
