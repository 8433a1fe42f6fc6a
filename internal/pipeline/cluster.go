package pipeline

import (
	"context"
	"fmt"
)

// ForwardedHeader is the hop-loop guard: a node forwarding a request to
// a peer stamps its own node ID here, and a node receiving a stamped
// request never forwards it again — every request crosses the cluster at
// most one hop. The value is the origin node's ID.
const ForwardedHeader = "X-Faros-Forwarded"

// Forwarder is the cluster view the pipeline consults: an ownership
// resolver over the consistent-hash ring plus per-peer forwarding
// through the retrying client. internal/cluster implements it; the
// interface lives here so the HTTP layer can route without the import
// cycle (cluster already imports pipeline for the wire types). nil means
// single-node operation and every path stays local.
type Forwarder interface {
	// NodeID is this node's cluster identity.
	NodeID() string
	// Owner resolves a shard key (spec hash or trace digest) to its
	// owning node. self=true when this node owns it (or the ring is
	// empty); up reports the owner's probed health when it is a peer.
	Owner(key string) (node string, self, up bool)
	// WalkUp returns the currently-up peers (never self) in ring-walk
	// order for a key — the read-failover order for result fetches.
	WalkUp(key string) []string
	// AnalyzePeer forwards an analyze request to a peer and returns the
	// settled job view. Definitive peer rejections come back as a
	// *ForwardError carrying the peer's status; transport failures and
	// exhausted retries as ordinary errors.
	AnalyzePeer(ctx context.Context, node string, req AnalyzeRequest) (*JobView, error)
	// ResultPeer fetches a result by cache key from a peer (404 surfaces
	// as a *ForwardError with Status 404).
	ResultPeer(ctx context.Context, node string, hash string) (*Result, error)
	// TracePeer uploads an encoded trace to a peer (dedup-safe).
	TracePeer(ctx context.Context, node string, data []byte) (digest string, err error)
	// PeerHealth snapshots every peer's probed state for /readyz.
	PeerHealth() []PeerHealth
}

// PeerHealth is one peer's health as reported on /readyz and /stats. A
// down peer never makes the local node unready — it only changes where
// work is forwarded.
type PeerHealth struct {
	Node string `json:"node"`
	URL  string `json:"url"`
	Up   bool   `json:"up"`
	// LastError is the most recent probe or forward failure ("" while
	// healthy).
	LastError string `json:"last_error,omitempty"`
}

// ForwardError is a definitive response from a peer that is not a
// transport failure: the peer answered, with this status. 4xx statuses
// other than 404/429 are deterministic rejections (the same request
// would be rejected identically everywhere) and are relayed to the
// client; 404 means node-local state the entry node may still satisfy
// locally, and 429/5xx mean the peer is overloaded or broken — both
// degrade to local execution.
type ForwardError struct {
	Node   string
	Status int
	Msg    string
}

func (e *ForwardError) Error() string {
	return fmt.Sprintf("peer %s: %d: %s", e.Node, e.Status, e.Msg)
}

// relayable reports whether the peer's rejection should be relayed to
// the client verbatim rather than degraded to local execution.
func (e *ForwardError) relayable() bool {
	switch e.Status {
	case 404, 429:
		return false
	}
	return e.Status >= 400 && e.Status < 500
}

// ShardKey derives a request's cluster routing identity: the trace
// digest for ModeTrace, the canonical spec hash otherwise. This is the
// content identity alone — unlike the cache key it excludes the engine
// config and triage policy, so every analysis of the same underlying
// work lands on the same owner and its store accumulates all of that
// work's variants. "" means the request is unroutable (run it locally).
func ShardKey(req Request) string {
	if req.Mode == ModeTrace {
		return req.TraceDigest
	}
	return req.specID()
}
