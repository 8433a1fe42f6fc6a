package triage

import (
	"sync"
	"time"
)

// Event types emitted by the analysis service. Each job's timeline records
// the job-scoped ones; the hub streams all of them.
const (
	// EventSubmitted: a fresh run was accepted into the queue.
	EventSubmitted = "submitted"
	// EventCoalesced: a submission attached to an identical in-flight run.
	EventCoalesced = "coalesced"
	// EventCacheHit: a submission was answered from the cache or store.
	EventCacheHit = "cache_hit"
	// EventShed: a submission was rejected by queue-saturation shedding
	// (no job exists; streamed but on no timeline).
	EventShed = "shed"
	// EventRateLimited: a submission was rejected by the per-client rate
	// limit (no job exists; streamed but on no timeline).
	EventRateLimited = "rate_limited"
	// EventDegraded: a job completed with a recovered partial failure.
	EventDegraded = "degraded"
	// EventFlagged: one finding, with its triage score when a policy is
	// active.
	EventFlagged = "flagged"
	// EventDone / EventFailed / EventCanceled: terminal job transitions.
	EventDone     = "done"
	EventFailed   = "failed"
	EventCanceled = "canceled"
)

// Event is one job-timeline entry / event-stream frame. Job-scoped
// events carry the waiter-handle ID; admission rejections (shed,
// rate_limited) have no job and exist only on the stream.
type Event struct {
	// Seq is the hub's monotone sequence number (the SSE event id); a
	// gap visible to a subscriber means it was too slow and events were
	// dropped for it.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	// Node is the ID of the cluster node that originated the event
	// (empty in single-node operation) — a fleet-wide stream consumer
	// can merge every node's /events and still attribute each frame.
	Node string `json:"node,omitempty"`
	Job  string `json:"job,omitempty"`
	// Scenario and Hash identify the work (scenario name, cache key).
	Scenario string `json:"scenario,omitempty"`
	Hash     string `json:"hash,omitempty"`
	// Rule is the detection rule for flagged events; Risk the triage
	// score ("low"/"medium"/"high") and RiskRule the policy rule that
	// assigned it, when a policy is active.
	Rule     string `json:"rule,omitempty"`
	Risk     string `json:"risk,omitempty"`
	RiskRule string `json:"risk_rule,omitempty"`
	// Detail carries free-form context (degradation reason, shed cause).
	Detail string `json:"detail,omitempty"`
}

// Subscriber is one live event-stream consumer. Events arrive on
// Events(); Close detaches it (idempotent).
type Subscriber struct {
	hub *Hub
	ch  chan Event
}

// Events returns the subscriber's channel. It is closed when the hub
// shuts down or the subscriber is closed.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// Close detaches the subscriber from the hub.
func (s *Subscriber) Close() { s.hub.unsubscribe(s) }

// Hub fans events out to live subscribers (the GET /events SSE surface).
// Publishing never blocks: a subscriber whose buffer is full misses the
// event — it sees the gap in the sequence numbers — rather than applying
// back-pressure to the analysis pipeline.
type Hub struct {
	mu        sync.Mutex
	seq       uint64
	subs      map[*Subscriber]struct{}
	closed    bool
	published uint64
	dropped   uint64
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[*Subscriber]struct{})}
}

// Subscribe attaches a consumer with the given channel buffer (values
// < 1 fall back to 64). On a closed hub the returned subscriber's
// channel is already closed.
func (h *Hub) Subscribe(buf int) *Subscriber {
	if buf < 1 {
		buf = 64
	}
	s := &Subscriber{hub: h, ch: make(chan Event, buf)}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(s.ch)
		return s
	}
	h.subs[s] = struct{}{}
	return s
}

func (h *Hub) unsubscribe(s *Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		close(s.ch)
	}
}

// Publish stamps the event with the next sequence number and fans it out
// to every subscriber without blocking, returning the stamped event (the
// caller records exactly what was streamed).
func (h *Hub) Publish(e Event) Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return e
	}
	h.seq++
	e.Seq = h.seq
	h.published++
	for s := range h.subs {
		select {
		case s.ch <- e:
		default:
			h.dropped++
		}
	}
	return e
}

// Close shuts the hub down: every subscriber's channel is closed and
// future publishes are dropped.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		delete(h.subs, s)
		close(s.ch)
	}
}

// Stats returns the hub's counters: events published, per-subscriber
// deliveries dropped for slowness, and current subscriber count.
func (h *Hub) Stats() (published, dropped uint64, subscribers int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.published, h.dropped, len(h.subs)
}
