// Command farosd is the analysis service: the scenario engine behind an
// HTTP JSON API, running jobs on a bounded worker pool with per-job
// deadlines, result caching keyed by the deterministic spec hash, a
// crash-safe persistent result store, admission control, and a
// Prometheus-style metrics endpoint.
//
// Usage:
//
//	farosd                         # listen on :7373, GOMAXPROCS workers
//	farosd -addr :9000 -workers 8 -timeout 30s -cache 1024
//	farosd -retention 4096 -retention-age 1h
//	farosd -store-dir /var/lib/faros -store-max-bytes 1073741824 -store-ttl 168h
//	farosd -rate-limit 50 -rate-burst 100 -shed-threshold 0.8
//	farosd -trace-dir /var/lib/faros/traces -trace-max-bytes 4294967296
//	farosd -triage-policy policy.json
//	farosd -node-id a -peers-file peers.json            # one node of a fleet
//	farosd -node-id a -peers b=http://h2:7373,c=http://h3:7373
//
// With -store-dir, completed results are persisted with per-entry
// checksums and atomic writes; a restarted farosd verifies the store,
// quarantines anything corrupt or torn, and serves every intact entry
// without re-executing it. With -rate-limit / -shed-threshold, overload
// sheds new work with 429 + Retry-After while cached and stored results
// keep serving. With -trace-dir, farosd is a replay farm: recorded traces
// (faros -record-out) are uploaded once, deduplicated by content digest,
// and analyzed under any number of engine configs without live execution.
// With -node-id and -peers / -peers-file, farosd joins an N-node fleet: a
// deterministic consistent-hash ring shards spec hashes and trace digests
// across nodes, non-owned work forwards to its owner (one hop, guarded by
// the X-Faros-Forwarded header) and the answer is backfilled locally, and
// a down owner degrades to local execution instead of failing.
// With -triage-policy (on by default), every finding is risk-scored
// against a declarative policy — scoring is strictly a view over the
// provenance graph, so findings stay bit-identical to an unscored run —
// and the active policy's content hash joins the result-cache key, so one
// stored trace re-scored under two policies yields two cached results.
//
// API:
//
//	POST /analyze          {"scenario": "njrat", "wait": true}
//	POST /analyze          {"scenario_file": {...}, "mode": "live"}
//	POST /analyze          {"trace": "<digest>", "config": {...}, "wait": true}
//	POST /traces           raw trace bytes (201 created / 200 dedup)
//	GET  /traces           stored trace headers
//	GET  /traces/{digest}  one trace's header (?raw=1 for the bytes)
//	GET  /jobs/{id}        job status and result (404 once retention expires it)
//	GET  /jobs/{id}/events the job's append-only event timeline (kept as long as the job)
//	POST /jobs/{id}/cancel detach this waiter from its job
//	GET  /events           live event stream (SSE): transitions, scored findings
//	GET  /results/{hash}   cached/stored result by cache key
//	GET  /metrics          Prometheus text exposition
//	GET  /stats            pipeline.Stats as JSON
//	GET  /scenarios        built-in scenario namespace
//	GET  /healthz          liveness
//	GET  /readyz           readiness (queue saturation, drain, store health)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"faros"
	"faros/internal/cluster"
	"faros/internal/pipeline"
	"faros/internal/store"
	"faros/internal/trace"
	"faros/internal/triage"
)

// parsePeers merges the -peers flag (comma-separated id=url pairs) over a
// -peers-file (a JSON object mapping node ID to base URL; an entry for
// this node is fine — every node can share one fleet file). Returns nil
// when neither source names a peer.
func parsePeers(flagVal, filePath string) (map[string]string, error) {
	peers := make(map[string]string)
	if filePath != "" {
		data, err := os.ReadFile(filePath)
		if err != nil {
			return nil, fmt.Errorf("peers file: %w", err)
		}
		if err := json.Unmarshal(data, &peers); err != nil {
			return nil, fmt.Errorf("peers file %s: %w (want a JSON object of node-id to base-URL)", filePath, err)
		}
	}
	if flagVal != "" {
		for _, pair := range strings.Split(flagVal, ",") {
			pair = strings.TrimSpace(pair)
			if pair == "" {
				continue
			}
			id, url, ok := strings.Cut(pair, "=")
			if !ok || id == "" || url == "" {
				return nil, fmt.Errorf("-peers entry %q: want id=url", pair)
			}
			peers[id] = url
		}
	}
	if len(peers) == 0 {
		return nil, nil
	}
	return peers, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":7373", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue depth (0 = default 256)")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-job deadline (negative disables)")
	cache := flag.Int("cache", 0, "result cache capacity (0 = default 512, negative disables)")
	retention := flag.Int("retention", 0, "terminal jobs kept, with their event timelines, for GET /jobs/{id} (0 = default 1024, negative disables)")
	retentionAge := flag.Duration("retention-age", 0, "max age of retained terminal jobs and their timelines (0 = default 15m, negative = no age limit)")
	storeDir := flag.String("store-dir", "", "persistent result store directory (empty disables persistence)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "persistent store size bound; oldest entries evicted beyond it (0 = unbounded)")
	storeTTL := flag.Duration("store-ttl", 0, "persistent store entry TTL (0 = entries never expire)")
	traceDir := flag.String("trace-dir", "", "content-addressed trace store directory (empty disables trace ingestion/analysis)")
	traceMaxBytes := flag.Int64("trace-max-bytes", 0, "trace store size bound; oldest traces evicted beyond it (0 = unbounded)")
	traceTTL := flag.Duration("trace-ttl", 0, "trace store entry TTL (0 = traces never expire)")
	triagePolicy := flag.String("triage-policy", "default", "triage policy: 'default' (built-in), 'off' to disable, or a policy JSON file path")
	rateLimit := flag.Float64("rate-limit", 0, "per-client sustained submissions/sec (0 = unlimited)")
	rateBurst := flag.Int("rate-burst", 0, "per-client burst size (0 = derived from -rate-limit)")
	shedThreshold := flag.Float64("shed-threshold", 0, "queue saturation fraction at which new work sheds with 429 (0 = default 0.9, negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "max time to drain in-flight jobs at shutdown")
	nodeID := flag.String("node-id", "", "this node's cluster ID (required with -peers / -peers-file)")
	peersFlag := flag.String("peers", "", "comma-separated peer list: id=http://host:port,...")
	peersFile := flag.String("peers-file", "", "static peer file: JSON object of node-id to base-URL for the whole fleet")
	probeInterval := flag.Duration("probe-interval", 0, "peer health-probe cadence (0 = default 2s)")
	flag.Parse()

	peers, err := parsePeers(*peersFlag, *peersFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "farosd: %v\n", err)
		return 2
	}
	var clus *cluster.Cluster
	if peers != nil {
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "farosd: -peers / -peers-file requires -node-id")
			return 2
		}
		clus, err = cluster.New(cluster.Config{
			Self:          *nodeID,
			Peers:         peers,
			ProbeInterval: *probeInterval,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "farosd: %v\n", err)
			return 2
		}
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Config{Dir: *storeDir, MaxBytes: *storeMaxBytes, TTL: *storeTTL})
		if err != nil {
			fmt.Fprintf(os.Stderr, "farosd: %v\n", err)
			return 2
		}
		ss := st.Stats()
		fmt.Printf("farosd: store %s: %d entries (%d bytes), %d quarantined at scan\n",
			*storeDir, ss.Entries, ss.Bytes, ss.CorruptQuarantined)
	}

	var traces *trace.Store
	if *traceDir != "" {
		var err error
		traces, err = trace.OpenStore(trace.StoreConfig{Dir: *traceDir, MaxBytes: *traceMaxBytes, TTL: *traceTTL})
		if err != nil {
			fmt.Fprintf(os.Stderr, "farosd: %v\n", err)
			return 2
		}
		ts := traces.Stats()
		fmt.Printf("farosd: trace store %s: %d traces (%d bytes), %d quarantined at scan\n",
			*traceDir, traces.Len(), ts.Bytes, ts.CorruptQuarantined)
	}

	var policy *triage.Policy
	switch *triagePolicy {
	case "off", "none", "":
		// scoring disabled; findings stay bit-identical to pre-triage runs
	case "default":
		policy = triage.Default()
	default:
		var err error
		policy, err = triage.Load(*triagePolicy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "farosd: %v\n", err)
			return 2
		}
	}
	if policy != nil {
		fmt.Printf("farosd: triage policy %q (%.12s): %d rules\n",
			policy.Name, policy.Hash(), len(policy.Rules))
	}

	admission := pipeline.AdmissionConfig{
		RatePerSec:    *rateLimit,
		Burst:         *rateBurst,
		ShedThreshold: *shedThreshold,
	}
	if err := admission.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "farosd: %v\n", err)
		return 2
	}

	poolCfg := pipeline.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		JobTimeout:      *timeout,
		CacheCap:        *cache,
		JobRetention:    *retention,
		JobRetentionAge: *retentionAge,
		Store:           st,
		Traces:          traces,
		Triage:          policy,
		NodeID:          *nodeID,
	}
	if clus != nil {
		// The nil guard matters: assigning a nil *cluster.Cluster into the
		// interface field would make Config.Cluster non-nil.
		poolCfg.Cluster = clus
	}
	pool, err := pipeline.New(poolCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "farosd: %v\n", err)
		return 2
	}
	if clus != nil {
		clus.Start()
		defer clus.Close()
		self := peers[*nodeID]
		if self == "" {
			self = *addr
		}
		fmt.Printf("farosd: cluster node %q at %s: %d peers, %d-point ring\n",
			*nodeID, self, len(clus.Registry().Status()), clus.Ring().Points())
	}
	handler := pipeline.NewHandler(pool, pipeline.ServerConfig{
		Resolve:   faros.Scenario,
		Names:     faros.ScenarioNames,
		Admission: &admission,
	})
	srv := &http.Server{Addr: *addr, Handler: handler}

	// The handler goes in before serving starts: a signal that arrives as
	// soon as the "listening" line is out must still drain, close the
	// stores and print the final stats instead of killing the process.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("farosd listening on %s (%d workers, %v job timeout)\n",
		*addr, pool.Stats().Workers, *timeout)

	select {
	case sig := <-sigCh:
		fmt.Printf("farosd: %v, shutting down\n", sig)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "farosd: %v\n", err)
		pool.Close()
		return 1
	}

	// Graceful shutdown: stop accepting new work (readyz flips not-ready
	// at once), let in-flight jobs settle and their results flush through
	// to the store, then tear the pool down and sync the store.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	pool.BeginDrain()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "farosd: shutdown: %v\n", err)
	}
	if err := pool.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "farosd: drain: %v (abandoning in-flight jobs)\n", err)
	}
	pool.Close()
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "farosd: store close: %v\n", err)
		}
	}
	if traces != nil {
		if err := traces.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "farosd: trace store close: %v\n", err)
		}
	}
	fmt.Print(pool.Stats().String())
	return 0
}
