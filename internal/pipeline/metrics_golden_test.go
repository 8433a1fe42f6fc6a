package pipeline

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"faros/internal/core"
	"faros/internal/store"
	"faros/internal/taint"
	"faros/internal/vm"
)

var updateStatsGolden = flag.Bool("update-golden", false, "rewrite testdata golden stats renderings")

// fullStats is a fully enabled snapshot — store, trace store, triage, a
// two-peer cluster, events, findings and risk maps, latency histogram —
// with a distinct non-zero value in every field, so a renderer that reads
// the wrong field or drops one shows up as a golden diff.
func fullStats() Stats {
	s := Stats{
		Workers:              1,
		QueueDepth:           2,
		Running:              3,
		CacheEntries:         4,
		JobsActive:           5,
		JobsRetained:         6,
		WaitersCoalesced:     7,
		JobsSubmitted:        8,
		JobsCoalesced:        9,
		JobsDone:             10,
		JobsFailed:           11,
		JobsDeadline:         12,
		JobsCanceled:         13,
		QueueFull:            14,
		AdmissionShed:        15,
		AdmissionRateLimited: 16,
		StoreEnabled:         true,
		Store: store.Stats{Entries: 17, Bytes: 18, Hits: 19, Misses: 20,
			CorruptQuarantined: 21, GCEvicted: 22},
		TraceStoreEnabled: true,
		TraceStore: store.Stats{Entries: 23, Bytes: 24, Hits: 25, Misses: 26,
			CorruptQuarantined: 27, GCEvicted: 28},
		Trace:                TraceStats{Ingested: 29, Bytes: 30, Replays: 31, DigestMismatch: 32},
		CacheHits:            33,
		CacheMisses:          34,
		CacheExpired:         35,
		CacheSkippedDegraded: 36,
		TriageEnabled:        true,
		TriagePolicy:         "0123456789abcdef0123456789abcdef",
		FindingsByRisk:       map[string]uint64{"low": 37, "medium": 38, "high": 39},
		ResultsByRisk:        map[string]uint64{"low": 40, "medium": 41, "high": 42},
		ClusterEnabled:       true,
		ClusterNode:          "a",
		ClusterPeers: []PeerHealth{
			{Node: "b", URL: "http://b:7373", Up: true},
			{Node: "c", URL: "http://c:7373", LastError: "connection refused"},
		},
		Cluster:          ClusterStats{ForwardedIn: 43, ForwardedOut: 44, Backfills: 45, OwnerDownLocalRuns: 46},
		EventsPublished:  47,
		EventsDropped:    48,
		EventSubscribers: 49,
		LedgerJobs:       50,
		LedgerEvicted:    51,
		Instructions:     52,
		FindingsByRule:   map[string]uint64{"injected_code_exec": 53, "export_table_read": 54},
		Taint: core.TaintStats{Stats: taint.Stats{Prepends: 56, PrependMemoHits: 55, Unions: 58, UnionMemoHits: 57,
			ShadowWrites: 59, RangeFastSkips: 60, TaintedBytes: 62, TaintedPages: 63}, InstrProvHits: 61},
		Prov:         core.ProvStats{Builds: 64, Nodes: 65, Edges: 66},
		Block:        core.BlockStats{BlockStats: vm.BlockStats{Built: 67, Hits: 68, Invalidated: 69, FusedOps: 70}, UntaintedFastBlocks: 71},
		LatencyCount: 72,
		LatencySum:   73*time.Second + 250*time.Millisecond,
	}
	for i, le := range latencyBuckets {
		s.LatencyBuckets = append(s.LatencyBuckets, LatencyBucket{LE: le, Count: uint64(74 + i)})
	}
	s.LatencyBuckets = append(s.LatencyBuckets, LatencyBucket{LE: math.Inf(1), Count: 74 + uint64(len(latencyBuckets))})
	return s
}

// zeroStats is the snapshot of a fresh single-node pool with no store,
// trace store, triage or cluster and no traffic.
func zeroStats(t *testing.T) Stats {
	p, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	return p.Stats()
}

// TestStatsGolden pins the three renderings of Stats — the /metrics
// exposition, the CLI String report and the /stats JSON — for a fully
// enabled and a zero snapshot. The .prom and .txt files are the operator
// contract: a metrics refactor must reproduce them byte for byte.
// Regenerate deliberately with:
//
//	go test ./internal/pipeline -run TestStatsGolden -update-golden
func TestStatsGolden(t *testing.T) {
	for name, s := range map[string]Stats{"full": fullStats(), "zero": zeroStats(t)} {
		js, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for ext, got := range map[string]string{
			"prom": s.Prometheus(),
			"txt":  s.String(),
			"json": string(js) + "\n",
		} {
			path := filepath.Join("testdata", "stats_"+name+"."+ext)
			if *updateStatsGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (run with -update-golden to create)", path, err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from golden\n got:\n%s\nwant:\n%s", path, got, want)
			}
		}
	}
}
