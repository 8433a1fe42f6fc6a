package pipeline

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"time"

	"faros/internal/core"
	"faros/internal/store"
	"faros/internal/vm"
)

// latencyBuckets are the histogram upper bounds in seconds. Guest runs
// span sub-millisecond microbenchmarks to multi-second corpus sweeps.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// ClusterStats counts the cross-node surface: requests received from
// peers (they carried the hop-guard header), requests this node
// forwarded to their owner, peer results backfilled into the local
// cache/store, and requests that degraded to local execution because
// their owner was down.
type ClusterStats struct {
	ForwardedIn        uint64 `json:"forwarded_in"`
	ForwardedOut       uint64 `json:"forwarded_out"`
	Backfills          uint64 `json:"backfills"`
	OwnerDownLocalRuns uint64 `json:"owner_down_local_runs"`
}

// TraceStats counts the replay-farm surface: traces ingested through
// POST /traces (new store entries only — dedup re-uploads don't count),
// the encoded bytes those ingests carried, analysis-only replays executed
// by ModeTrace jobs, and submissions rejected because a trace's identity
// digests did not match the job.
type TraceStats struct {
	Ingested       uint64 `json:"ingested"`
	Bytes          uint64 `json:"bytes"`
	Replays        uint64 `json:"replays"`
	DigestMismatch uint64 `json:"digest_mismatch"`
}

// LatencyBucket is one cumulative histogram bucket; LE is the upper bound
// in seconds (math.Inf(1) for the overflow bucket).
type LatencyBucket struct {
	LE    float64
	Count uint64
}

// Stats is the pool's observable state. The pool keeps one live value
// under its mutex and updates the counters in place; Pool.Stats returns a
// snapshot with the gauges filled in. Both the CLI (farosbench progress,
// farosd logs) and the HTTP layer (/metrics, /stats) render this one type.
type Stats struct {
	Workers      int `json:"workers"`
	QueueDepth   int `json:"queue_depth"`
	Running      int `json:"running"`
	CacheEntries int `json:"cache_entries"`
	// JobsActive is the size of the active (queued/running) registry;
	// JobsRetained the size of the terminal-job retention ring. Together
	// they bound farosd's per-job memory regardless of traffic volume.
	JobsActive   int `json:"jobs_active"`
	JobsRetained int `json:"jobs_retained"`
	// WaitersCoalesced counts waiter handles currently sharing an
	// in-flight run with at least one peer (the beyond-the-first waiters).
	WaitersCoalesced int `json:"waiters_coalesced"`

	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCoalesced uint64 `json:"jobs_coalesced"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsDeadline  uint64 `json:"jobs_deadline"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	QueueFull     uint64 `json:"queue_full"`

	// AdmissionShed counts submissions rejected with 429 because the
	// queue passed the shed threshold and the result was not already
	// cached or stored; AdmissionRateLimited counts per-client
	// token-bucket rejections.
	AdmissionShed        uint64 `json:"admission_shed"`
	AdmissionRateLimited uint64 `json:"admission_rate_limited"`

	// StoreEnabled reports whether a persistent store is configured;
	// Store is its counters (entries/bytes gauges, hit/miss/quarantine/GC
	// totals).
	StoreEnabled bool        `json:"store_enabled"`
	Store        store.Stats `json:"store"`

	// TraceStoreEnabled reports whether a trace store is configured;
	// TraceStore is the underlying content-addressed store's counters and
	// Trace the replay-farm counters (ingests, replays, mismatches).
	TraceStoreEnabled bool        `json:"trace_store_enabled"`
	TraceStore        store.Stats `json:"trace_store"`
	Trace             TraceStats  `json:"trace"`

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// CacheSkippedDegraded counts degraded results the cache policy
	// refused to insert.
	CacheSkippedDegraded uint64 `json:"cache_skipped_degraded"`

	// TriageEnabled reports whether a risk policy is active; TriagePolicy
	// is its content hash. FindingsByRisk / ResultsByRisk count scored
	// findings and completed results by risk level.
	TriageEnabled  bool              `json:"triage_enabled"`
	TriagePolicy   string            `json:"triage_policy,omitempty"`
	FindingsByRisk map[string]uint64 `json:"findings_by_risk,omitempty"`
	ResultsByRisk  map[string]uint64 `json:"results_by_risk,omitempty"`

	// ClusterEnabled reports whether this node runs in cluster mode;
	// ClusterNode is its node ID and ClusterPeers the probed health of
	// every peer. Cluster holds the forwarding counters.
	ClusterEnabled bool         `json:"cluster_enabled"`
	ClusterNode    string       `json:"cluster_node,omitempty"`
	ClusterPeers   []PeerHealth `json:"cluster_peers,omitempty"`
	Cluster        ClusterStats `json:"cluster"`

	// EventsPublished / EventsDropped are the live event hub's counters
	// (drops are per-subscriber deliveries lost to slowness, never
	// back-pressure); EventSubscribers the current GET /events consumers.
	EventsPublished  uint64 `json:"events_published"`
	EventsDropped    uint64 `json:"events_dropped"`
	EventSubscribers int    `json:"event_subscribers"`

	Instructions   uint64            `json:"instructions"`
	FindingsByRule map[string]uint64 `json:"findings_by_rule,omitempty"`
	Taint          core.TaintStats   `json:"taint"`
	Prov           core.ProvStats    `json:"prov"`
	Block          core.BlockStats   `json:"block"`
	// BlockTable gauges the process-wide table of decoded guest blocks
	// every job's machine shares.
	BlockTable vm.BlockTableStats `json:"block_table"`

	LatencyCount   uint64          `json:"latency_count"`
	LatencySum     time.Duration   `json:"latency_sum_ns"`
	LatencyBuckets []LatencyBucket `json:"-"`
}

// newStats returns the zero live counters a pool accumulates into: the
// per-key maps allocated and the latency buckets laid out.
func newStats() Stats {
	s := Stats{
		FindingsByRule: make(map[string]uint64),
		FindingsByRisk: make(map[string]uint64),
		ResultsByRisk:  make(map[string]uint64),
	}
	for _, le := range latencyBuckets {
		s.LatencyBuckets = append(s.LatencyBuckets, LatencyBucket{LE: le})
	}
	s.LatencyBuckets = append(s.LatencyBuckets, LatencyBucket{LE: math.Inf(1)})
	return s
}

// clone deep-copies the maps and buckets, so a snapshot shares nothing
// with the live counters.
func (s Stats) clone() Stats {
	s.FindingsByRule = maps.Clone(s.FindingsByRule)
	s.FindingsByRisk = maps.Clone(s.FindingsByRisk)
	s.ResultsByRisk = maps.Clone(s.ResultsByRisk)
	s.LatencyBuckets = slices.Clone(s.LatencyBuckets)
	return s
}

// observeLatency records one completed job's wall time in the cumulative
// histogram.
func (s *Stats) observeLatency(d time.Duration) {
	s.LatencyCount++
	s.LatencySum += d
	sec := d.Seconds()
	for i := range s.LatencyBuckets {
		if sec <= s.LatencyBuckets[i].LE {
			s.LatencyBuckets[i].Count++
		}
	}
}

// addEngine folds one FAROS run's engine counters into the totals.
func (s *Stats) addEngine(e core.Stats) {
	addCounters(reflect.ValueOf(&s.Taint).Elem(), reflect.ValueOf(e.Taint))
	addCounters(reflect.ValueOf(&s.Prov).Elem(), reflect.ValueOf(e.Prov))
	addCounters(reflect.ValueOf(&s.Block).Elem(), reflect.ValueOf(e.Block))
}

// addCounters adds every integer field of src into dst, recursing into
// embedded structs. The engine counter groups are summed field by field,
// so a counter added to one of them needs no fold code here.
func addCounters(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		d, v := dst.Field(i), src.Field(i)
		switch {
		case d.Kind() == reflect.Struct:
			addCounters(d, v)
		case d.CanUint():
			d.SetUint(d.Uint() + v.Uint())
		case d.CanInt():
			d.SetInt(d.Int() + v.Int())
		}
	}
}

// rate is hits/total, 0 when total is zero.
func rate(hits, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// String renders a compact human-readable report (the CLI surface).
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline: %d workers, %d queued, %d running, %d active / %d retained jobs, %d cached results\n",
		s.Workers, s.QueueDepth, s.Running, s.JobsActive, s.JobsRetained, s.CacheEntries)
	fmt.Fprintf(&sb, "jobs: %d submitted, %d done, %d failed (%d deadline), %d canceled, %d coalesced, %d queue-full\n",
		s.JobsSubmitted, s.JobsDone, s.JobsFailed, s.JobsDeadline, s.JobsCanceled, s.JobsCoalesced, s.QueueFull)
	fmt.Fprintf(&sb, "cache: %d hits, %d misses (%.0f%% hit rate), %d degraded skipped\n",
		s.CacheHits, s.CacheMisses, 100*rate(s.CacheHits, s.CacheHits+s.CacheMisses), s.CacheSkippedDegraded)
	if s.StoreEnabled {
		fmt.Fprintf(&sb, "store: %d entries (%d bytes), %d hits, %d misses, %d quarantined, %d gc-evicted\n",
			s.Store.Entries, s.Store.Bytes, s.Store.Hits, s.Store.Misses,
			s.Store.CorruptQuarantined, s.Store.GCEvicted)
	}
	if s.TraceStoreEnabled {
		fmt.Fprintf(&sb, "traces: %d stored (%d bytes on disk), %d ingested (%d bytes), %d replays, %d digest mismatches\n",
			s.TraceStore.Entries, s.TraceStore.Bytes,
			s.Trace.Ingested, s.Trace.Bytes, s.Trace.Replays, s.Trace.DigestMismatch)
	}
	if s.AdmissionShed+s.AdmissionRateLimited > 0 {
		fmt.Fprintf(&sb, "admission: %d shed, %d rate-limited\n", s.AdmissionShed, s.AdmissionRateLimited)
	}
	if s.TriageEnabled {
		fmt.Fprintf(&sb, "triage: policy %.12s, results", s.TriagePolicy)
		for _, risk := range []string{"high", "medium", "low"} {
			fmt.Fprintf(&sb, " %s=%d", risk, s.ResultsByRisk[risk])
		}
		sb.WriteString(", findings")
		for _, risk := range []string{"high", "medium", "low"} {
			fmt.Fprintf(&sb, " %s=%d", risk, s.FindingsByRisk[risk])
		}
		sb.WriteByte('\n')
	}
	if s.ClusterEnabled {
		up := 0
		for _, p := range s.ClusterPeers {
			if p.Up {
				up++
			}
		}
		fmt.Fprintf(&sb, "cluster: node %s, %d/%d peers up, %d forwarded out, %d in, %d backfills, %d owner-down local runs\n",
			s.ClusterNode, up, len(s.ClusterPeers),
			s.Cluster.ForwardedOut, s.Cluster.ForwardedIn,
			s.Cluster.Backfills, s.Cluster.OwnerDownLocalRuns)
	}
	if s.EventsPublished > 0 || s.EventSubscribers > 0 {
		fmt.Fprintf(&sb, "events: %d published, %d dropped, %d subscribers\n",
			s.EventsPublished, s.EventsDropped, s.EventSubscribers)
	}
	fmt.Fprintf(&sb, "guest: %d instructions executed\n", s.Instructions)
	if t := s.Taint; t.Prepends+t.Unions+t.ShadowWrites > 0 {
		fmt.Fprintf(&sb, "taint: %d prepends (%.0f%% memoized), %d unions (%.0f%% memoized), %d shadow writes, %d page skips, %d instr-prov hits\n",
			t.Prepends, 100*rate(t.PrependMemoHits, t.Prepends),
			t.Unions, 100*rate(t.UnionMemoHits, t.Unions),
			t.ShadowWrites, t.RangeFastSkips, t.InstrProvHits)
	}
	if p := s.Prov; p.Builds > 0 {
		fmt.Fprintf(&sb, "provgraph: %d graphs built (%d nodes, %d edges)\n", p.Builds, p.Nodes, p.Edges)
	}
	if b := s.Block; b.Built+b.Hits > 0 {
		fmt.Fprintf(&sb, "blocks: %d built, %d hits (%.0f%% hit rate), %d invalidated, %d fused ops, %d untainted fast blocks, %d batched loop passes\n",
			b.Built, b.Hits, 100*rate(b.Hits, b.Built+b.Hits), b.Invalidated, b.FusedOps, b.UntaintedFastBlocks, b.BatchedPasses)
	}
	if t := s.BlockTable; t.Entries > 0 {
		fmt.Fprintf(&sb, "block table: %d shared blocks (%d bytes), %d decoded privately\n", t.Entries, t.Bytes, t.Private)
	}
	if len(s.FindingsByRule) > 0 {
		sb.WriteString("findings:")
		for _, rule := range sortedKeys(s.FindingsByRule) {
			fmt.Fprintf(&sb, " %s=%d", rule, s.FindingsByRule[rule])
		}
		sb.WriteByte('\n')
	}
	if s.LatencyCount > 0 {
		fmt.Fprintf(&sb, "latency: %d jobs, %v total, %v mean\n",
			s.LatencyCount, s.LatencySum.Round(time.Millisecond),
			(s.LatencySum / time.Duration(s.LatencyCount)).Round(time.Microsecond))
	}
	return sb.String()
}

// metricKind is a Prometheus metric type.
type metricKind string

const (
	counter metricKind = "counter"
	gauge   metricKind = "gauge"
)

// metricGroup gates a metric on an optional subsystem being configured.
type metricGroup int

const (
	always metricGroup = iota
	storeOn
	traceOn
	clusterOn
)

func (g metricGroup) enabled(s *Stats) bool {
	switch g {
	case storeOn:
		return s.StoreEnabled
	case traceOn:
		return s.TraceStoreEnabled
	case clusterOn:
		return s.ClusterEnabled
	}
	return true
}

// series is one labelled sample; labels is the rendered label set.
type series struct {
	labels string
	value  uint64
}

// metricDef declares one /metrics family. An unlabelled family reads its
// one sample through value; a labelled family lists its samples through
// series instead.
type metricDef struct {
	name, help string
	kind       metricKind
	group      metricGroup
	value      func(*Stats) uint64
	series     func(*Stats) []series
}

// metricTable is every /metrics family except the latency histogram, in
// exposition order. Adding a metric is its Stats field plus one row here.
var metricTable = []metricDef{
	{"faros_workers", "Worker pool size.", gauge, always, func(s *Stats) uint64 { return uint64(s.Workers) }, nil},
	{"faros_jobs_queued", "Jobs waiting in the queue.", gauge, always, func(s *Stats) uint64 { return uint64(s.QueueDepth) }, nil},
	{"faros_jobs_running", "Jobs currently executing.", gauge, always, func(s *Stats) uint64 { return uint64(s.Running) }, nil},
	{"faros_cache_entries", "Results held in the cache.", gauge, always, func(s *Stats) uint64 { return uint64(s.CacheEntries) }, nil},
	{"faros_jobs_active", "Waiter handles in the active (queued/running) registry.", gauge, always, func(s *Stats) uint64 { return uint64(s.JobsActive) }, nil},
	{"faros_jobs_retained", "Terminal jobs held in the retention ring.", gauge, always, func(s *Stats) uint64 { return uint64(s.JobsRetained) }, nil},
	{"faros_waiters_coalesced", "Waiters currently sharing an in-flight run with a peer.", gauge, always, func(s *Stats) uint64 { return uint64(s.WaitersCoalesced) }, nil},
	{"faros_jobs_submitted_total", "Jobs accepted into the queue.", counter, always, func(s *Stats) uint64 { return s.JobsSubmitted }, nil},
	{"faros_jobs_coalesced_total", "Submissions coalesced onto an in-flight identical run.", counter, always, func(s *Stats) uint64 { return s.JobsCoalesced }, nil},
	{"faros_jobs_done_total", "Waiter handles settled successfully.", counter, always, func(s *Stats) uint64 { return s.JobsDone }, nil},
	{"faros_jobs_failed_total", "Waiter handles settled failed (including deadline expiries).", counter, always, func(s *Stats) uint64 { return s.JobsFailed }, nil},
	{"faros_jobs_deadline_total", "Runs cancelled by their deadline.", counter, always, func(s *Stats) uint64 { return s.JobsDeadline }, nil},
	{"faros_jobs_canceled_total", "Waiter handles cancelled by request.", counter, always, func(s *Stats) uint64 { return s.JobsCanceled }, nil},
	{"faros_queue_full_total", "Submissions rejected because the queue was at capacity.", counter, always, func(s *Stats) uint64 { return s.QueueFull }, nil},
	{"faros_admission_shed_total", "Submissions shed with 429 because the queue passed the shed threshold.", counter, always, func(s *Stats) uint64 { return s.AdmissionShed }, nil},
	{"faros_admission_rate_limited_total", "Submissions rejected by the per-client rate limit.", counter, always, func(s *Stats) uint64 { return s.AdmissionRateLimited }, nil},
	{"faros_store_entries", "Entries in the persistent result store.", gauge, storeOn, func(s *Stats) uint64 { return uint64(s.Store.Entries) }, nil},
	{"faros_store_bytes", "On-disk bytes held by the persistent result store.", gauge, storeOn, func(s *Stats) uint64 { return uint64(s.Store.Bytes) }, nil},
	{"faros_store_hits_total", "Lookups served from the persistent result store.", counter, storeOn, func(s *Stats) uint64 { return s.Store.Hits }, nil},
	{"faros_store_misses_total", "Persistent-store lookups that found no entry.", counter, storeOn, func(s *Stats) uint64 { return s.Store.Misses }, nil},
	{"faros_store_corrupt_quarantined_total", "Store entries that failed verification and were quarantined.", counter, storeOn, func(s *Stats) uint64 { return s.Store.CorruptQuarantined }, nil},
	{"faros_store_gc_evicted_total", "Store entries dropped by TTL or size garbage collection.", counter, storeOn, func(s *Stats) uint64 { return s.Store.GCEvicted }, nil},
	{"faros_trace_entries", "Traces in the content-addressed trace store.", gauge, traceOn, func(s *Stats) uint64 { return uint64(s.TraceStore.Entries) }, nil},
	{"faros_trace_store_bytes", "On-disk bytes held by the trace store.", gauge, traceOn, func(s *Stats) uint64 { return uint64(s.TraceStore.Bytes) }, nil},
	{"faros_trace_store_corrupt_quarantined_total", "Trace store entries that failed verification and were quarantined.", counter, traceOn, func(s *Stats) uint64 { return s.TraceStore.CorruptQuarantined }, nil},
	{"faros_trace_store_gc_evicted_total", "Trace store entries dropped by TTL or size garbage collection.", counter, traceOn, func(s *Stats) uint64 { return s.TraceStore.GCEvicted }, nil},
	{"faros_triage_enabled", "Whether a triage risk policy is active.", gauge, always, func(s *Stats) uint64 { return boolValue(s.TriageEnabled) }, nil},
	{"faros_triage_findings_total", "Findings scored by the triage policy, by risk.", counter, always, nil, func(s *Stats) []series { return byRisk(s.FindingsByRisk) }},
	{"faros_triage_results_total", "Completed results scored by the triage policy, by aggregate risk.", counter, always, nil, func(s *Stats) []series { return byRisk(s.ResultsByRisk) }},
	{"faros_cluster_forwarded_total", "Requests forwarded across the cluster, by direction.", counter, clusterOn, nil, func(s *Stats) []series {
		return []series{{`direction="in"`, s.Cluster.ForwardedIn}, {`direction="out"`, s.Cluster.ForwardedOut}}
	}},
	{"faros_cluster_backfill_total", "Peer results backfilled into the local cache and store.", counter, clusterOn, func(s *Stats) uint64 { return s.Cluster.Backfills }, nil},
	{"faros_cluster_owner_down_local_runs_total", "Requests degraded to local execution because their owner was down.", counter, clusterOn, func(s *Stats) uint64 { return s.Cluster.OwnerDownLocalRuns }, nil},
	{"faros_cluster_peer_up", "Probed peer health (1 up, 0 down).", gauge, clusterOn, nil, func(s *Stats) []series {
		var out []series
		for _, p := range s.ClusterPeers {
			out = append(out, series{fmt.Sprintf("peer=%q", p.Node), boolValue(p.Up)})
		}
		return out
	}},
	{"faros_events_published_total", "Lifecycle events published to the live event hub.", counter, always, func(s *Stats) uint64 { return s.EventsPublished }, nil},
	{"faros_events_dropped_total", "Per-subscriber event deliveries dropped for slowness.", counter, always, func(s *Stats) uint64 { return s.EventsDropped }, nil},
	{"faros_event_subscribers", "Current live event-stream subscribers.", gauge, always, func(s *Stats) uint64 { return uint64(s.EventSubscribers) }, nil},
	{"faros_trace_ingested_total", "Traces ingested through POST /traces (new store entries only).", counter, always, func(s *Stats) uint64 { return s.Trace.Ingested }, nil},
	{"faros_trace_bytes_total", "Encoded bytes of ingested traces.", counter, always, func(s *Stats) uint64 { return s.Trace.Bytes }, nil},
	{"faros_trace_replays_total", "Analysis-only replays executed from stored traces.", counter, always, func(s *Stats) uint64 { return s.Trace.Replays }, nil},
	{"faros_trace_digest_mismatch_total", "Trace submissions rejected on spec-hash or memory-image digest mismatch.", counter, always, func(s *Stats) uint64 { return s.Trace.DigestMismatch }, nil},
	{"faros_cache_hits_total", "Submissions served from the result cache or store.", counter, always, func(s *Stats) uint64 { return s.CacheHits }, nil},
	{"faros_cache_misses_total", "Cacheable submissions that missed the cache.", counter, always, func(s *Stats) uint64 { return s.CacheMisses }, nil},
	{"faros_cache_skipped_degraded_total", "Degraded results the cache policy refused to insert.", counter, always, func(s *Stats) uint64 { return s.CacheSkippedDegraded }, nil},
	{"faros_guest_instructions_total", "Guest instructions executed by completed jobs.", counter, always, func(s *Stats) uint64 { return s.Instructions }, nil},
	{"faros_taint_prepends_total", "Provenance list prepends across completed FAROS jobs.", counter, always, func(s *Stats) uint64 { return s.Taint.Prepends }, nil},
	{"faros_taint_prepend_memo_hits_total", "Prepends answered from the memo table.", counter, always, func(s *Stats) uint64 { return s.Taint.PrependMemoHits }, nil},
	{"faros_taint_unions_total", "Provenance list unions across completed FAROS jobs.", counter, always, func(s *Stats) uint64 { return s.Taint.Unions }, nil},
	{"faros_taint_union_memo_hits_total", "Unions answered from the memo table.", counter, always, func(s *Stats) uint64 { return s.Taint.UnionMemoHits }, nil},
	{"faros_taint_shadow_writes_total", "Shadow byte writes across completed FAROS jobs.", counter, always, func(s *Stats) uint64 { return s.Taint.ShadowWrites }, nil},
	{"faros_taint_fastpath_skips_total", "Whole-page skips taken by the shadow range fast paths.", counter, always, func(s *Stats) uint64 { return s.Taint.RangeFastSkips }, nil},
	{"faros_taint_instr_prov_hits_total", "Instruction-provenance cache hits across completed FAROS jobs.", counter, always, func(s *Stats) uint64 { return s.Taint.InstrProvHits }, nil},
	{"faros_taint_tainted_bytes_total", "Shadow bytes still tainted at the end of completed jobs.", counter, always, func(s *Stats) uint64 { return uint64(s.Taint.TaintedBytes) }, nil},
	{"faros_taint_tainted_pages_total", "Shadow pages still tainted at the end of completed jobs.", counter, always, func(s *Stats) uint64 { return uint64(s.Taint.TaintedPages) }, nil},
	{"faros_provgraph_build_total", "Provenance graphs built by completed FAROS jobs.", counter, always, func(s *Stats) uint64 { return s.Prov.Builds }, nil},
	{"faros_provgraph_nodes_total", "Nodes across built provenance graphs.", counter, always, func(s *Stats) uint64 { return s.Prov.Nodes }, nil},
	{"faros_provgraph_edges_total", "Edges across built provenance graphs.", counter, always, func(s *Stats) uint64 { return s.Prov.Edges }, nil},
	{"faros_block_built_total", "Guest code blocks attached to a machine's block cache, shared or privately decoded.", counter, always, func(s *Stats) uint64 { return s.Block.Built }, nil},
	{"faros_block_hits_total", "Block dispatches served from the block cache; a self-looping block's in-place passes are one dispatch.", counter, always, func(s *Stats) uint64 { return s.Block.Hits }, nil},
	{"faros_block_invalidated_total", "Cached blocks invalidated by self-modifying-code writes.", counter, always, func(s *Stats) uint64 { return s.Block.Invalidated }, nil},
	{"faros_block_fused_ops_total", "Instructions fused micro-ops retired beyond their first (retired instructions minus micro-ops dispatched).", counter, always, func(s *Stats) uint64 { return s.Block.FusedOps }, nil},
	{"faros_block_batched_passes_total", "Passes of counted byte loops the block executors ran in batches instead of micro-op by micro-op.", counter, always, func(s *Stats) uint64 { return s.Block.BatchedPasses }, nil},
	{"faros_block_untainted_fast_blocks_total", "Block dispatches that ran start to finish on the untainted fast loop; a self-looping block's in-place passes are one dispatch.", counter, always, func(s *Stats) uint64 { return s.Block.UntaintedFastBlocks }, nil},
	{"faros_block_table_entries", "Decoded guest blocks held in the process-wide shared block table.", gauge, always, func(s *Stats) uint64 { return uint64(s.BlockTable.Entries) }, nil},
	{"faros_block_table_bytes", "Accounted bytes held in the shared block table.", gauge, always, func(s *Stats) uint64 { return uint64(s.BlockTable.Bytes) }, nil},
	{"faros_block_table_private_total", "Blocks decoded privately because the shared block table was full.", counter, always, func(s *Stats) uint64 { return s.BlockTable.Private }, nil},
	{"faros_findings_total", "Findings reported by completed jobs, by rule.", counter, always, nil, func(s *Stats) []series {
		var out []series
		for _, rule := range sortedKeys(s.FindingsByRule) {
			out = append(out, series{fmt.Sprintf("rule=%q", rule), s.FindingsByRule[rule]})
		}
		return out
	}},
}

// byRisk lists a per-risk count map in low/medium/high order, skipping
// levels never counted.
func byRisk(counts map[string]uint64) []series {
	var out []series
	for _, risk := range []string{"low", "medium", "high"} {
		if n, ok := counts[risk]; ok {
			out = append(out, series{fmt.Sprintf("risk=%q", risk), n})
		}
	}
	return out
}

// sortedKeys returns a count map's keys in order.
func sortedKeys(counts map[string]uint64) []string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// boolValue renders a boolean as a 0/1 gauge value.
func boolValue(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format (the /metrics surface): every metricTable row whose group is
// enabled, then the job-latency histogram.
func (s Stats) Prometheus() string {
	var sb strings.Builder
	for _, m := range metricTable {
		if !m.group.enabled(&s) {
			continue
		}
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		if m.series == nil {
			fmt.Fprintf(&sb, "%s %d\n", m.name, m.value(&s))
			continue
		}
		for _, x := range m.series(&s) {
			fmt.Fprintf(&sb, "%s{%s} %d\n", m.name, x.labels, x.value)
		}
	}

	fmt.Fprintf(&sb, "# HELP faros_job_duration_seconds Wall time of completed jobs.\n# TYPE faros_job_duration_seconds histogram\n")
	for _, b := range s.LatencyBuckets {
		le := "+Inf"
		if !math.IsInf(b.LE, 1) {
			le = strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b.LE), "0"), ".")
		}
		fmt.Fprintf(&sb, "faros_job_duration_seconds_bucket{le=%q} %d\n", le, b.Count)
	}
	fmt.Fprintf(&sb, "faros_job_duration_seconds_sum %f\n", s.LatencySum.Seconds())
	fmt.Fprintf(&sb, "faros_job_duration_seconds_count %d\n", s.LatencyCount)
	return sb.String()
}
