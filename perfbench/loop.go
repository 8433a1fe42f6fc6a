package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// jobView is the part of farosd's JobView the benchmark checks and times.
type jobView struct {
	Hash      string      `json:"hash"`
	State     string      `json:"state"`
	CacheHit  bool        `json:"cache_hit"`
	Submitted time.Time   `json:"submitted"`
	Started   time.Time   `json:"started"`
	Finished  time.Time   `json:"finished"`
	Error     string      `json:"error"`
	Result    *resultView `json:"result"`
}

// resultView is the part of farosd's Result the verdict check reads.
type resultView struct {
	Hash     string `json:"hash"`
	Flagged  bool   `json:"flagged"`
	Findings []struct {
		Rule string `json:"rule"`
	} `json:"findings"`
}

// provView is the part of a provenance graph the read check inspects.
type provView struct {
	Nodes []json.RawMessage `json:"nodes"`
}

// sample is the client-side record of one request.
type sample struct {
	kind kind
	rtt  time.Duration
	err  error
	// hasView is set for /analyze responses; the fields below it come
	// from the returned JobView.
	hasView  bool
	executed bool // the job ran (Started is set), as opposed to a cache hit
	queue    time.Duration
	run      time.Duration
	span     time.Duration // Finished - Submitted on the answering node
	// forwarded is set when the ring assigns the request to a node other
	// than the entry node.
	forwarded bool
}

// checkVerdict compares a settled result with the spec's expectation.
func checkVerdict(req request, res *resultView) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Flagged != req.expectFlag {
		return fmt.Errorf("flagged=%t, spec expects %t", res.Flagged, req.expectFlag)
	}
	if req.expectRule != "" {
		for _, f := range res.Findings {
			if f.Rule == req.expectRule {
				return nil
			}
		}
		return fmt.Errorf("rule %s expected, not among the findings", req.expectRule)
	}
	return nil
}

// client issues generated requests to one entry node.
type client struct {
	hc  *http.Client
	url string
	// hashes maps a warmed scenario name to its result cache key.
	hashes map[string]string
	// forwarded reports whether the ring sends a shard key to another node
	// (nil outside cluster mode).
	forwarded func(shard string) bool
}

// do sends one request, checks the answer, and returns its sample.
func (c *client) do(ctx context.Context, req request) sample {
	s := sample{kind: req.kind}
	t0 := time.Now()
	var status int
	var body []byte
	var err error
	switch req.kind {
	case kindResult, kindProv:
		path := "/results/" + c.hashes[req.target]
		if req.kind == kindProv {
			path += "/prov"
		}
		status, body, err = get(ctx, c.hc, c.url+path)
	default:
		status, body, err = post(ctx, c.hc, c.url+"/analyze", "application/json", req.body)
	}
	s.rtt = time.Since(t0)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	if err == nil {
		err = c.check(req, body, &s)
	}
	if err != nil {
		s.err = fmt.Errorf("%s %s: %w", req.kind, req.target, err)
	}
	return s
}

// check validates a 200 answer and fills the sample's server-side spans.
func (c *client) check(req request, body []byte, s *sample) error {
	switch req.kind {
	case kindResult:
		var res resultView
		if err := json.Unmarshal(body, &res); err != nil {
			return err
		}
		if want := c.hashes[req.target]; res.Hash != want {
			return fmt.Errorf("read hash %s, asked for %s", res.Hash, want)
		}
		return checkVerdict(req, &res)
	case kindProv:
		var g provView
		if err := json.Unmarshal(body, &g); err != nil {
			return err
		}
		if (len(g.Nodes) > 0) != req.expectFlag {
			return fmt.Errorf("provenance graph has %d nodes, spec expects flagged=%t", len(g.Nodes), req.expectFlag)
		}
		return nil
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	if v.State != "done" {
		return fmt.Errorf("job %s: %s", v.State, v.Error)
	}
	s.hasView = true
	s.span = v.Finished.Sub(v.Submitted)
	if !v.Started.IsZero() {
		s.executed = true
		s.queue = v.Started.Sub(v.Submitted)
		s.run = v.Finished.Sub(v.Started)
	}
	if c.forwarded != nil && req.shard != "" {
		s.forwarded = c.forwarded(req.shard)
	}
	if req.kind == kindNamed && !v.CacheHit {
		return fmt.Errorf("warmed scenario missed the cache")
	}
	if req.kind == kindCold && v.CacheHit {
		return fmt.Errorf("never-seen spec hit the cache")
	}
	return checkVerdict(req, v.Result)
}

// phaseResult is one closed-loop phase's client-side record.
type phaseResult struct {
	samples []sample
	wall    time.Duration
}

// runPhase sends the first n requests of pl closed-loop from conns
// concurrent clients, each taking the next index as it frees up.
func runPhase(ctx context.Context, c *client, pl plan, n, conns int) phaseResult {
	var next atomic.Int64
	out := make([][]sample, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				out[w] = append(out[w], c.do(ctx, pl.at(i)))
			}
		}(w)
	}
	wg.Wait()
	pr := phaseResult{wall: time.Since(start)}
	for _, s := range out {
		pr.samples = append(pr.samples, s...)
	}
	return pr
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// failures summarizes up to three sample errors.
func failures(ss []sample) (int, string) {
	n := 0
	var msgs []string
	for _, s := range ss {
		if s.err != nil {
			n++
			if len(msgs) < 3 {
				msgs = append(msgs, s.err.Error())
			}
		}
	}
	return n, strings.Join(msgs, "; ")
}
