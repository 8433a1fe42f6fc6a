package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"faros"
	"faros/internal/cluster"
	"faros/internal/pipeline"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/trace"
)

// node is one in-process farosd of the test fleet.
type node struct {
	id   string
	pool *pipeline.Pool
	clus *cluster.Cluster
	srv  *httptest.Server
	url  string
}

// newFleet boots n fully wired nodes: real pools, real handlers, real
// clusters, each listening on its own loopback port. The listener is
// bound before anything else so every node knows every URL up front.
func newFleet(t *testing.T, n int) []*node {
	t.Helper()
	nodes := make([]*node, n)
	urls := make(map[string]string, n)
	listeners := make([]net.Listener, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		id := fmt.Sprintf("node-%c", 'a'+i)
		nodes[i] = &node{id: id, url: "http://" + ln.Addr().String()}
		urls[id] = nodes[i].url
	}
	for i, nd := range nodes {
		clus, err := cluster.New(cluster.Config{Self: nd.id, Peers: urls, ForwardAttempts: 2})
		if err != nil {
			t.Fatal(err)
		}
		traces, err := trace.OpenStore(trace.StoreConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		pool, err := pipeline.New(pipeline.Config{Workers: 2, NodeID: nd.id, Cluster: clus, Traces: traces})
		if err != nil {
			t.Fatal(err)
		}
		handler := pipeline.NewHandler(pool, pipeline.ServerConfig{
			Resolve: faros.Scenario,
			Names:   faros.ScenarioNames,
		})
		srv := httptest.NewUnstartedServer(handler)
		srv.Listener.Close()
		srv.Listener = listeners[i]
		srv.Start()
		nd.pool, nd.clus, nd.srv = pool, clus, srv
		t.Cleanup(func() { srv.Close(); clus.Close(); pool.Close() })
	}
	// Probe synchronously instead of starting the background loops: the
	// fleet's health state is then deterministic at every assertion.
	for _, nd := range nodes {
		nd.clus.Registry().ProbeAll()
	}
	return nodes
}

func analyzeVia(t *testing.T, nd *node, body string) (int, pipeline.JobView) {
	t.Helper()
	resp, err := http.Post(nd.srv.URL+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view pipeline.JobView
	_ = json.NewDecoder(resp.Body).Decode(&view)
	return resp.StatusCode, view
}

// findingSet flattens a result's findings for bit-identical comparison.
func findingSet(res *pipeline.Result) string {
	if res == nil {
		return "<none>"
	}
	keys := make([]string, 0, len(res.Findings))
	for _, f := range res.Findings {
		raw, _ := json.Marshal(f)
		keys = append(keys, string(raw))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestClusterEndToEnd is the fleet acceptance test: the attack corpus
// submitted through one entry node of a 3-node fleet yields bit-identical
// findings to a single-node run, forwards show up on the entry node's
// counters, repeat reads hit the cross-node backfill, and killing a node
// degrades to local execution without a single failed job.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus fleet e2e")
	}
	nodes := newFleet(t, 3)
	entry := nodes[0]
	for _, ph := range entry.clus.PeerHealth() {
		if !ph.Up {
			t.Fatalf("peer %s down at fleet start: %s", ph.Node, ph.LastError)
		}
	}

	// Single-node reference: same corpus, no cluster.
	ref, err := pipeline.New(pipeline.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refSrv := httptest.NewServer(pipeline.NewHandler(ref, pipeline.ServerConfig{
		Resolve: faros.Scenario,
	}))
	defer refSrv.Close()
	refNode := &node{id: "ref", srv: refSrv}

	attacks := faros.Attacks()
	hashes := make(map[string]string, len(attacks)) // scenario -> cache key
	for _, spec := range attacks {
		body := fmt.Sprintf(`{"scenario": %q, "wait": true}`, spec.Name)
		status, view := analyzeVia(t, entry, body)
		if status != http.StatusOK || view.State != pipeline.StateDone || view.Result == nil {
			t.Fatalf("%s via fleet: status %d view %+v", spec.Name, status, view)
		}
		refStatus, refView := analyzeVia(t, refNode, body)
		if refStatus != http.StatusOK || refView.Result == nil {
			t.Fatalf("%s via reference: status %d", spec.Name, refStatus)
		}
		if got, want := findingSet(view.Result), findingSet(refView.Result); got != want {
			t.Fatalf("%s: fleet findings differ from single-node:\nfleet:\n%s\nsolo:\n%s", spec.Name, got, want)
		}
		if view.Result.Hash != refView.Result.Hash {
			t.Fatalf("%s: cache key diverged across deployments: %s vs %s",
				spec.Name, view.Result.Hash, refView.Result.Hash)
		}
		hashes[spec.Name] = view.Result.Hash
	}

	// The ring must have spread the corpus: the entry node forwarded some
	// submissions out, and some peer saw them come in.
	st := entry.pool.Stats()
	if st.Cluster.ForwardedOut == 0 {
		t.Fatal("entry node never forwarded (all six specs self-owned is ring-implausible)")
	}
	if st.Cluster.Backfills == 0 {
		t.Fatal("forwarded results never backfilled")
	}
	var peerIn uint64
	for _, nd := range nodes[1:] {
		peerIn += nd.pool.Stats().Cluster.ForwardedIn
	}
	if peerIn == 0 {
		t.Fatal("no peer recorded a forwarded-in request")
	}

	// Every result now reads back on the entry node without leaving it
	// (backfill), and on any other node via the walk.
	for name, hash := range hashes {
		for _, nd := range nodes {
			resp, err := http.Get(nd.srv.URL + "/results/" + hash)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: result %s unreadable via %s: %d", name, hash, nd.id, resp.StatusCode)
			}
		}
	}

	// Kill node-c, let the fleet notice, and re-run work it owned through
	// the entry node: every job must still succeed (locally).
	down := nodes[2]
	down.srv.Close()
	for _, nd := range nodes[:2] {
		nd.clus.Registry().ProbeAll()
	}
	ranLocal := false
	for _, spec := range attacks {
		hash, err := samples.SpecHash(spec)
		if err != nil {
			t.Fatal(err)
		}
		if entry.clus.Ring().Owner(hash) != down.id {
			continue
		}
		ranLocal = true
		body := fmt.Sprintf(`{"scenario": %q, "wait": true, "no_cache": true}`, spec.Name)
		status, view := analyzeVia(t, entry, body)
		if status != http.StatusOK || view.State != pipeline.StateDone {
			t.Fatalf("%s with owner down: status %d view %+v", spec.Name, status, view)
		}
	}
	if !ranLocal {
		t.Skip("ring assigned no attack to node-c; degraded path untestable with this corpus")
	}
	if got := entry.pool.Stats().Cluster.OwnerDownLocalRuns; got == 0 {
		t.Fatal("owner-down degradation never counted")
	}
}

// TestClusterTraceFlow covers the trace surfaces: an upload to any node
// replicates to the digest's ring owner, and a trace-replay analysis
// entering at a third node forwards to the owner and still settles.
func TestClusterTraceFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays a live scenario")
	}
	nodes := newFleet(t, 3)
	byID := map[string]*node{}
	for _, nd := range nodes {
		byID[nd.id] = nd
	}

	spec := faros.Scenarios()["reflective_dll_inject"]
	log, _, err := scenario.RecordContext(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, digest, err := scenario.EncodeTrace(spec, log)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].clus.Ring().Owner(digest)

	// Upload via a node that does not own the digest, so the replication
	// hop is exercised.
	uploader := nodes[0]
	for _, nd := range nodes {
		if nd.id != owner {
			uploader = nd
			break
		}
	}
	resp, err := http.Post(uploader.srv.URL+"/traces", "application/octet-stream", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var put struct {
		Digest string `json:"digest"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&put)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || put.Digest != digest {
		t.Fatalf("upload via %s: status %d digest %s (want %s)", uploader.id, resp.StatusCode, put.Digest, digest)
	}
	if _, ok := byID[owner].pool.Traces().Stat(digest); !ok {
		t.Fatalf("trace never replicated to its owner %s", owner)
	}

	// Analyze by digest through a node that is neither uploader nor
	// owner: it holds no copy, so the submission must forward.
	entry := nodes[0]
	for _, nd := range nodes {
		if nd.id != owner && nd != uploader {
			entry = nd
			break
		}
	}
	status, view := analyzeVia(t, entry, fmt.Sprintf(`{"trace": %q, "wait": true}`, digest))
	if status != http.StatusOK || view.State != pipeline.StateDone || view.Result == nil {
		t.Fatalf("trace analyze via %s: status %d view %+v", entry.id, status, view)
	}
	if view.Result.Mode != pipeline.ModeTrace || !view.Result.Flagged {
		t.Fatalf("trace replay result %+v", view.Result)
	}
	if entry.id != owner && entry != uploader {
		if got := entry.pool.Stats().Cluster.ForwardedOut; got == 0 {
			t.Fatal("trace-replay submission never forwarded from the copyless entry node")
		}
	}
}
