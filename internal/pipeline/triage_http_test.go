package pipeline_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"faros/internal/pipeline"
	"faros/internal/samples"
	"faros/internal/trace"
	"faros/internal/triage"
)

// submitAndWait runs one live job to completion on a pool.
func submitAndWait(t *testing.T, p *pipeline.Pool, req pipeline.Request) pipeline.JobView {
	t.Helper()
	job, err := p.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	view, err := p.Wait(ctx, job)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return view
}

// TestTriageScoringEndToEnd is the tentpole acceptance path: a pool with
// the default policy scores the reflective DLL injection high, stamps
// every finding with its matched policy rule, and the job's event timeline
// carries the submitted → flagged → done stages.
func TestTriageScoringEndToEnd(t *testing.T) {
	p, err := pipeline.New(pipeline.Config{Workers: 2, Triage: triage.Default()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	job, err := p.Submit(pipeline.Request{Spec: samples.ReflectiveDLLInject(), Mode: pipeline.ModeLive})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	view, err := p.Wait(ctx, job)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if view.State != pipeline.StateDone || view.Result == nil {
		t.Fatalf("job settled %s (result %v)", view.State, view.Result)
	}
	res := view.Result
	if res.Risk != "high" {
		t.Fatalf("aggregate risk = %q, want high (policy %s)", res.Risk, res.RiskPolicy)
	}
	if res.RiskPolicy != triage.Default().Hash() {
		t.Fatalf("risk_policy = %q, want default policy hash %q", res.RiskPolicy, triage.Default().Hash())
	}
	if !res.Flagged || len(res.Findings) == 0 {
		t.Fatal("attack did not flag")
	}
	for _, f := range res.Findings {
		if f.Risk == "" || f.RiskRule == "" {
			t.Fatalf("finding %s missing risk stamp: risk=%q rule=%q", f.Rule, f.Risk, f.RiskRule)
		}
	}

	events, ok := p.JobEvents(job.ID)
	if !ok {
		t.Fatalf("no timeline for job %s", job.ID)
	}
	var sawSubmitted, sawFlaggedHigh, sawDone bool
	for _, e := range events {
		switch e.Type {
		case triage.EventSubmitted:
			sawSubmitted = true
		case triage.EventFlagged:
			if e.Risk == "high" && e.RiskRule != "" {
				sawFlaggedHigh = true
			}
		case triage.EventDone:
			sawDone = true
			if e.Risk != "high" {
				t.Errorf("done event risk = %q, want high", e.Risk)
			}
		}
	}
	if !sawSubmitted || !sawFlaggedHigh || !sawDone {
		t.Fatalf("timeline missing stages: submitted=%v flagged(high)=%v done=%v in %+v",
			sawSubmitted, sawFlaggedHigh, sawDone, events)
	}

	stats := p.Stats()
	if !stats.TriageEnabled || stats.TriagePolicy == "" {
		t.Fatalf("stats do not report triage: enabled=%v policy=%q", stats.TriageEnabled, stats.TriagePolicy)
	}
	if stats.ResultsByRisk["high"] == 0 {
		t.Fatalf("stats.ResultsByRisk = %v, want high counted", stats.ResultsByRisk)
	}
}

// TestFindingsBitIdenticalWithTriageDisabled pins the "strictly a view"
// guarantee: scoring annotates findings, it never perturbs them. The same
// scenario run with and without a policy yields byte-identical results
// once the three annotation fields are cleared — and with triage
// disabled those fields never appear on the wire at all.
func TestFindingsBitIdenticalWithTriageDisabled(t *testing.T) {
	bare, err := pipeline.New(pipeline.Config{Workers: 1})
	if err != nil {
		t.Fatalf("New(bare): %v", err)
	}
	defer bare.Close()
	scored, err := pipeline.New(pipeline.Config{Workers: 1, Triage: triage.Default()})
	if err != nil {
		t.Fatalf("New(scored): %v", err)
	}
	defer scored.Close()

	req := pipeline.Request{Spec: samples.ReflectiveDLLInject(), Mode: pipeline.ModeLive}
	plainView := submitAndWait(t, bare, req)
	riskView := submitAndWait(t, scored, req)
	plain, risk := plainView.Result, riskView.Result
	if plain == nil || risk == nil {
		t.Fatal("missing results")
	}

	// Disabled: no risk fields anywhere, JSON included.
	if plain.Risk != "" || plain.RiskPolicy != "" {
		t.Fatalf("triage-disabled result carries risk %q policy %q", plain.Risk, plain.RiskPolicy)
	}
	wire, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(wire), "risk") {
		t.Fatalf("triage-disabled wire encoding mentions risk: %s", wire)
	}

	// Strip the annotations from the scored copy; everything else must
	// match the unscored run exactly.
	clone := *risk
	clone.Risk, clone.RiskPolicy = "", ""
	clone.Findings = append([]pipeline.Finding(nil), risk.Findings...)
	for i := range clone.Findings {
		clone.Findings[i].Risk, clone.Findings[i].RiskRule = "", ""
	}
	clone.WallTime, plain.WallTime = 0, 0 // wall time is not deterministic
	clone.Hash, plain.Hash = "", ""       // cache keys differ by design (policy hash)
	if !reflect.DeepEqual(&clone, plain) {
		t.Fatalf("findings differ with triage enabled:\nscored: %+v\nplain:  %+v", clone, plain)
	}
}

// TestTraceRescoredUnderTwoPolicies is the record-once, score-many
// acceptance: one stored trace analyzed by two pools holding different
// policies produces two distinct cache identities and two distinct
// aggregate scores, because the policy hash is folded into the cache key.
func TestTraceRescoredUnderTwoPolicies(t *testing.T) {
	ts, err := trace.OpenStore(trace.StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	data, digest := attackTrace(t)
	if _, _, err := ts.Put(data); err != nil {
		t.Fatalf("store trace: %v", err)
	}

	strictJSON := []byte(`{
		"name": "strict",
		"default_score": "medium",
		"rules": [{"name": "everything-hot", "score": "high", "match": {"min_chain_len": 1}}]
	}`)
	strict, err := triage.Parse(strictJSON)
	if err != nil {
		t.Fatalf("parse strict policy: %v", err)
	}
	lax, err := triage.Parse([]byte(`{"name": "lax", "default_score": "low", "rules": []}`))
	if err != nil {
		t.Fatalf("parse lax policy: %v", err)
	}
	if strict.Hash() == lax.Hash() {
		t.Fatal("distinct policies share a hash")
	}

	req := pipeline.Request{Mode: pipeline.ModeTrace, TraceDigest: digest}
	views := make(map[string]pipeline.JobView)
	for name, pol := range map[string]*triage.Policy{"strict": strict, "lax": lax} {
		p, err := pipeline.New(pipeline.Config{Workers: 1, Traces: ts, Triage: pol})
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		view := submitAndWait(t, p, req)
		if view.State != pipeline.StateDone || view.Result == nil {
			t.Fatalf("%s replay settled %s", name, view.State)
		}
		// The re-scored result must be a fresh cached entry under this
		// policy's composite key, answerable without re-running.
		if cached, ok := p.CachedJob(req); !ok {
			t.Fatalf("%s: replay result not cached", name)
		} else if cv, _ := p.View(cached.ID); !cv.CacheHit {
			t.Fatalf("%s: re-submission was not a cache hit", name)
		}
		views[name] = view
		p.Close()
	}

	s, l := views["strict"].Result, views["lax"].Result
	if views["strict"].Hash == views["lax"].Hash {
		t.Fatalf("same cache key %q under two policies", views["strict"].Hash)
	}
	if s.RiskPolicy == l.RiskPolicy {
		t.Fatal("results report the same policy hash")
	}
	if s.Risk != "high" || l.Risk != "low" {
		t.Fatalf("strict risk=%q (want high), lax risk=%q (want low)", s.Risk, l.Risk)
	}
	// Same trace, same findings — only the scores moved.
	if len(s.Findings) != len(l.Findings) {
		t.Fatalf("finding counts differ: strict %d, lax %d", len(s.Findings), len(l.Findings))
	}
	for i := range s.Findings {
		if s.Findings[i].Rule != l.Findings[i].Rule {
			t.Fatalf("finding %d rule differs: %q vs %q", i, s.Findings[i].Rule, l.Findings[i].Rule)
		}
	}
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readFrames consumes SSE frames until accept returns true or the stream
// ends, sending each complete frame to the caller.
func readFrames(t *testing.T, body *bufio.Reader, accept func(sseFrame) bool) bool {
	t.Helper()
	var cur sseFrame
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			return false
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				if accept(cur) {
					return true
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ":"):
			// comment (stream-open banner / heartbeat)
		case strings.HasPrefix(line, "id: "):
			cur.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		}
	}
}

// TestEventStreamSSE is the live-stream acceptance: an HTTP subscriber on
// GET /events sees a job transition and a scored finding for an attack
// submitted while the stream is open.
func TestEventStreamSSE(t *testing.T) {
	srv, _ := newTestServer(t, pipeline.Config{Workers: 2, Triage: triage.Default()})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sreq, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatalf("open event stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("stream: status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	// Submit the attack only after the subscription is live.
	wire, err := samples.MarshalSpec(samples.ReflectiveDLLInject())
	if err != nil {
		t.Fatal(err)
	}
	areq := fmt.Sprintf(`{"spec": %s, "mode": "live", "wait": true}`, wire)
	post, view := postAnalyze(t, srv, areq)
	if post.StatusCode != http.StatusOK || view.State != pipeline.StateDone {
		t.Fatalf("analyze: status %d state %s", post.StatusCode, view.State)
	}

	var sawTransition, sawScoredFinding bool
	ok := readFrames(t, bufio.NewReader(resp.Body), func(f sseFrame) bool {
		var e triage.Event
		if err := json.Unmarshal([]byte(f.data), &e); err != nil {
			t.Fatalf("frame %q: bad data %q: %v", f.event, f.data, err)
		}
		if f.id == "" || fmt.Sprint(e.Seq) != f.id {
			t.Fatalf("frame id %q does not match event seq %d", f.id, e.Seq)
		}
		switch f.event {
		case triage.EventSubmitted, triage.EventDone:
			if e.Job == view.ID {
				sawTransition = true
			}
		case triage.EventFlagged:
			if e.Job == view.ID && e.Risk == "high" && e.RiskRule != "" {
				sawScoredFinding = true
			}
		}
		return sawTransition && sawScoredFinding
	})
	if !ok {
		t.Fatalf("stream closed early: transition=%v scored finding=%v", sawTransition, sawScoredFinding)
	}
}

// TestJobEventsEndpoint covers the timeline's HTTP surface: a completed
// job's timeline is fetchable at /jobs/{id}/events, and unknown jobs 404.
func TestJobEventsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, pipeline.Config{Workers: 1, Triage: triage.Default()})
	wire, err := samples.MarshalSpec(samples.ReflectiveDLLInject())
	if err != nil {
		t.Fatal(err)
	}
	_, view := postAnalyze(t, srv, fmt.Sprintf(`{"spec": %s, "mode": "live", "wait": true}`, wire))
	if view.State != pipeline.StateDone {
		t.Fatalf("job settled %s", view.State)
	}

	resp, err := http.Get(srv.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/{id}/events: status %d", resp.StatusCode)
	}
	var body struct {
		Job    string         `json:"job"`
		Events []triage.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Job != view.ID || len(body.Events) < 3 {
		t.Fatalf("timeline: job %q, %d events (want ≥3: submitted, flagged, done)", body.Job, len(body.Events))
	}
	for i := 1; i < len(body.Events); i++ {
		if body.Events[i].Seq <= body.Events[i-1].Seq {
			t.Fatalf("timeline out of order at %d: %+v", i, body.Events)
		}
	}

	missing, err := http.Get(srv.URL + "/jobs/no-such-job/events")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: status %d, want 404", missing.StatusCode)
	}
}
