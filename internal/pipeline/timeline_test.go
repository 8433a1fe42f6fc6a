package pipeline

import (
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

	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/triage"
)

// timelineServer serves p over HTTP for the GET /jobs/{id}/events checks.
func timelineServer(t *testing.T, p *Pool, adm *AdmissionConfig) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(p, ServerConfig{Admission: adm}))
	t.Cleanup(srv.Close)
	return srv
}

// httpEvents fetches one job's timeline over HTTP; ok=false on a 404.
func httpEvents(t *testing.T, srv *httptest.Server, id string) ([]triage.Event, bool) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotFound:
		return nil, false
	case http.StatusOK:
	default:
		t.Fatalf("GET /jobs/%s/events: status %d", id, resp.StatusCode)
	}
	var body struct {
		Job    string         `json:"job"`
		Events []triage.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Job != id {
		t.Fatalf("timeline for %s answered as job %q", id, body.Job)
	}
	return body.Events, true
}

// timelineTypes renders a timeline as "seq:type" steps.
func timelineTypes(evs []triage.Event) string {
	steps := make([]string, len(evs))
	for i, e := range evs {
		steps[i] = fmt.Sprintf("%d:%s", e.Seq, e.Type)
	}
	return strings.Join(steps, " ")
}

// TestTimelineUnchanged pins every job's timeline — types, order and hub
// sequence numbers — over one request sequence that covers a flagged run,
// a cache hit, a coalesced waiter, a cancel, two degraded runs and a
// deadline failure. Each timeline reads the same through JobEvents and
// GET /jobs/{id}/events.
func TestTimelineUnchanged(t *testing.T) {
	release := make(chan struct{})
	live := defaultRunner(nil)
	runner := func(ctx context.Context, req Request) (*scenario.Result, error) {
		switch req.Spec.Name {
		case "degraded":
			res := stubResult(req.Spec.Name)
			res.Err = errors.New("recovered plugin panic: boom")
			return res, nil
		case "wedged":
			return blockingRunner(nil)(ctx, req)
		case "held", "canceled":
			return blockingRunner(release)(ctx, req)
		}
		return live(ctx, req)
	}
	p := mustNew(t, Config{Workers: 1, Triage: triage.Default(), Runner: runner})
	defer p.Close()
	srv := timelineServer(t, p, nil)
	named := func(name string, n uint64) samples.Spec {
		spec := samples.Spinner(n)
		spec.Name = name
		return spec
	}
	var jobs []*Job
	submit := func(spec samples.Spec, timeout time.Duration) *Job {
		job, err := p.Submit(Request{Spec: spec, Mode: ModeLive, Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
		return job
	}

	waitState(t, p, submit(samples.ReflectiveDLLInject(), 0), StateDone)
	waitState(t, p, submit(samples.ReflectiveDLLInject(), 0), StateDone)
	first := submit(named("held", 1000), 0)
	waitRunning(t, p, first)
	second := submit(named("held", 1000), 0)
	p.Cancel(submit(named("canceled", 2000), 0).ID)
	close(release)
	waitState(t, p, first, StateDone)
	waitState(t, p, second, StateDone)
	waitState(t, p, submit(named("degraded", 3000), 0), StateDone)
	waitState(t, p, submit(named("degraded", 3000), 0), StateDone)
	waitState(t, p, submit(named("wedged", 4000), 20*time.Millisecond), StateFailed)

	want := []string{
		"1:submitted 2:flagged 3:flagged 4:flagged 5:flagged 6:flagged 7:flagged 8:done",
		"9:cache_hit",
		"10:submitted 14:done",
		"11:coalesced 15:done",
		"12:submitted 13:canceled",
		"16:submitted 17:degraded 18:done",
		"19:submitted 20:degraded 21:done",
		"22:submitted 23:failed",
	}
	for i, job := range jobs {
		evs, ok := p.JobEvents(job.ID)
		if !ok {
			t.Fatalf("job %d (%s): no timeline", i, job.ID)
		}
		if got := timelineTypes(evs); got != want[i] {
			t.Errorf("job %d (%s) timeline = %q, want %q", i, job.ID, got, want[i])
		}
		for _, e := range evs {
			if e.Job != job.ID || e.Scenario != job.Scenario || e.Hash != job.Hash {
				t.Errorf("job %s: event %d stamped job=%s scenario=%s hash=%.12s",
					job.ID, e.Seq, e.Job, e.Scenario, e.Hash)
			}
		}
		over, ok := httpEvents(t, srv, job.ID)
		if !ok || timelineTypes(over) != want[i] {
			t.Errorf("job %s over HTTP = %q (ok=%v), want %q", job.ID, timelineTypes(over), ok, want[i])
		}
	}
}

// TestTimelineAppendOrderAndCopy: a timeline reads in append order, and
// each read is a copy the caller may mutate without touching the job.
func TestTimelineAppendOrderAndCopy(t *testing.T) {
	p := mustNew(t, Config{Workers: 1, Runner: blockingRunner(closedChan())})
	defer p.Close()
	srv := timelineServer(t, p, nil)
	job, err := p.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, job, StateDone)

	evs, ok := p.JobEvents(job.ID)
	if !ok || len(evs) != 2 || evs[0].Type != triage.EventSubmitted || evs[1].Type != triage.EventDone {
		t.Fatalf("timeline = %+v (ok=%v), want submitted then done", evs, ok)
	}
	evs[0].Type = "mutated"
	again, _ := p.JobEvents(job.ID)
	if again[0].Type != triage.EventSubmitted {
		t.Fatal("JobEvents returned a live reference to the timeline")
	}
	if over, ok := httpEvents(t, srv, job.ID); !ok || timelineTypes(over) != timelineTypes(again) {
		t.Fatalf("HTTP timeline %q (ok=%v) differs from JobEvents %q", timelineTypes(over), ok, timelineTypes(again))
	}
	if _, ok := p.JobEvents("no-such-job"); ok {
		t.Fatal("unknown job has a timeline")
	}
	if _, ok := httpEvents(t, srv, "no-such-job"); ok {
		t.Fatal("unknown job has a timeline over HTTP")
	}
}

// TestTimelineJoblessEventsNotStored: a rate-limited or shed submission
// creates no job, so its event streams to subscribers but lands on no
// timeline.
func TestTimelineJoblessEventsNotStored(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	p := mustNew(t, Config{Workers: 1, QueueDepth: 1, Runner: blockingRunner(release)})
	defer p.Close()
	limited := timelineServer(t, p, &AdmissionConfig{RatePerSec: 0.001, Burst: 1, ShedThreshold: -1})
	shedding := timelineServer(t, p, &AdmissionConfig{})
	sub := p.Subscribe(16)
	defer sub.Close()
	post := func(srv *httptest.Server, n uint64) (int, string) {
		t.Helper()
		wire, err := samples.MarshalSpec(samples.Spinner(n))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/analyze", "application/json",
			strings.NewReader(fmt.Sprintf(`{"spec": %s, "mode": "live"}`, wire)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var view JobView
		_ = json.NewDecoder(resp.Body).Decode(&view)
		return resp.StatusCode, view.ID
	}

	running, err := p.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p, running)
	status, queued := post(limited, 2000)
	if status != http.StatusAccepted {
		t.Fatalf("first submission: status %d", status)
	}
	if status, _ := post(limited, 3000); status != http.StatusTooManyRequests {
		t.Fatalf("over the rate limit: status %d, want 429", status)
	}
	if status, _ := post(shedding, 4000); status != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, want 429", status)
	}

	var jobless []string
	for len(sub.Events()) > 0 {
		if e := <-sub.Events(); e.Job == "" {
			jobless = append(jobless, e.Type)
		}
	}
	if want := []string{triage.EventRateLimited, triage.EventShed}; !reflect.DeepEqual(jobless, want) {
		t.Fatalf("jobless events streamed = %v, want %v", jobless, want)
	}
	if _, ok := p.JobEvents(""); ok {
		t.Fatal("a jobless event created a timeline")
	}
	for _, id := range []string{running.ID, queued} {
		evs, ok := p.JobEvents(id)
		if !ok || len(evs) != 1 || evs[0].Type != triage.EventSubmitted {
			t.Fatalf("job %s timeline = %q (ok=%v), want only submitted", id, timelineTypes(evs), ok)
		}
	}
}

// TestTimelineFetchIsPrefixOfNextFetch: timelines are append-only, so an
// earlier read is a prefix of a later one.
func TestTimelineFetchIsPrefixOfNextFetch(t *testing.T) {
	release := make(chan struct{})
	p := mustNew(t, Config{Workers: 1, Runner: blockingRunner(release)})
	defer p.Close()
	srv := timelineServer(t, p, nil)
	job, err := p.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := p.JobEvents(job.ID)
	firstHTTP, _ := httpEvents(t, srv, job.ID)
	close(release)
	waitState(t, p, job, StateDone)
	second, _ := p.JobEvents(job.ID)
	secondHTTP, _ := httpEvents(t, srv, job.ID)
	for _, pair := range [][2][]triage.Event{{first, second}, {firstHTTP, secondHTTP}} {
		before, after := pair[0], pair[1]
		if len(before) != 1 || len(after) != 2 {
			t.Fatalf("timeline grew %d -> %d events, want 1 -> 2", len(before), len(after))
		}
		if timelineTypes(after[:len(before)]) != timelineTypes(before) || !after[0].Time.Equal(before[0].Time) {
			t.Fatalf("append-only violated: %+v then %+v", before, after)
		}
	}
}

// TestTimelineLivesWithView: a timeline answers exactly while the job's
// view does, under the retention count bound and under its age bound, and
// eviction drops a whole timeline together with its view.
func TestTimelineLivesWithView(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		wait time.Duration
	}{
		{"count", Config{JobRetention: 2}, 0},
		{"age", Config{JobRetentionAge: 50 * time.Millisecond}, 150 * time.Millisecond},
		{"disabled", Config{JobRetention: -1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers = 1
			cfg.Runner = blockingRunner(closedChan())
			p := mustNew(t, cfg)
			defer p.Close()
			srv := timelineServer(t, p, nil)
			var ids []string
			for i := 0; i < 3; i++ {
				job, err := p.Submit(Request{Spec: samples.Spinner(uint64(1000 + i)), Mode: ModeLive})
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, p, job, StateDone)
				ids = append(ids, job.ID)
			}
			time.Sleep(tc.wait)
			live := 0
			for _, id := range ids {
				_, viewOK := p.View(id)
				evs, evOK := p.JobEvents(id)
				_, httpOK := httpEvents(t, srv, id)
				if viewOK != evOK || evOK != httpOK {
					t.Errorf("job %s: View ok=%v, JobEvents ok=%v, HTTP ok=%v", id, viewOK, evOK, httpOK)
				}
				if evOK {
					live++
					if timelineTypes(evs) == "" || evs[len(evs)-1].Type != triage.EventDone {
						t.Errorf("job %s: retained timeline not whole: %q", id, timelineTypes(evs))
					}
				}
			}
			wantLive := map[string]int{"count": 2, "age": 0, "disabled": 0}[tc.name]
			if live != wantLive {
				t.Errorf("%d jobs answer, want %d", live, wantLive)
			}
		})
	}
}

// TestTimelineConcurrency races hub publishing — submissions settling on
// several workers, subscribers churning — against timeline reads. Run
// under -race.
func TestTimelineConcurrency(t *testing.T) {
	p := mustNew(t, Config{Workers: 4, Runner: blockingRunner(closedChan())})
	defer p.Close()
	ids := make(chan string, 256)
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				job, err := p.Submit(Request{Spec: samples.Spinner(uint64(1000 + w*100 + i%10)), Mode: ModeLive})
				if err != nil {
					t.Error(err)
					return
				}
				ids <- job.ID
				s := p.Subscribe(4)
				select {
				case <-s.Events():
				default:
				}
				s.Close()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for id := range ids {
				evs, ok := p.JobEvents(id)
				if !ok || len(evs) == 0 {
					t.Errorf("job %s: no timeline while retained", id)
				}
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq <= evs[i-1].Seq {
						t.Errorf("job %s: timeline out of order: %q", id, timelineTypes(evs))
					}
				}
			}
		}()
	}
	writers.Wait()
	close(ids)
	readers.Wait()
	if st := p.Stats(); st.EventsPublished < 200 {
		t.Fatalf("events published = %d, want at least one per submission", st.EventsPublished)
	}
}
