// Package pipeline turns the synchronous scenario engine into a shared,
// concurrent analysis service: a bounded worker pool with a job queue,
// per-job deadlines with cooperative cancellation (threaded into the guest
// as instruction-budget preemption checks, so a wedged guest cannot pin a
// worker), result deduplication and caching behind the deterministic spec
// hash (record/replay is byte-exact, so equal hashes imply equal results),
// and a metrics surface rendered by both cmd/farosd's HTTP endpoints and
// the CLI. internal/experiments submits its corpus sweeps through the same
// pool, which is what gives farosbench parallel execution.
//
// Job lifecycle: Submit returns a per-waiter handle. Identical concurrent
// submissions coalesce onto one underlying run, but each waiter cancels
// independently — the run is only aborted when its last waiter detaches.
// Terminal jobs move from the active registry to a bounded retention ring
// (count + age), so the service's memory stays flat under sustained
// traffic while GET /jobs/{id} keeps answering for recently settled work.
package pipeline

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"faros/internal/core"
	"faros/internal/provgraph"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/store"
	"faros/internal/trace"
	"faros/internal/triage"
)

// Mode selects the analysis workflow a job runs.
type Mode string

const (
	// ModeDetect is the paper's analyst workflow: one live pass with
	// FAROS, the Cuckoo baseline, the malfind scan, and OSI attached
	// (scenario.Detect). The job keeps no recording, so it runs no
	// separate record pass; its report equals record-then-replay's.
	ModeDetect Mode = "detect"
	// ModeLive is a single live pass with only the FAROS engine attached,
	// under the request's engine config (the path the corpus sweeps use).
	ModeLive Mode = "live"
	// ModeTrace is analysis-only replay: the job loads a stored trace by
	// digest, verifies its identity digests, and replays it with the FAROS
	// engine attached — no live guest execution. One trace can be analyzed
	// under many engine configs; each result caches under the
	// (trace digest, config) composite key.
	ModeTrace Mode = "trace"
)

// Request describes one analysis job.
type Request struct {
	Spec samples.Spec
	// Mode defaults to ModeDetect.
	Mode Mode
	// TraceDigest selects the stored trace a ModeTrace job replays. The
	// job's cache identity is the digest itself (the trace embeds its
	// spec), composed with the engine config. Ignored in other modes.
	TraceDigest string
	// Config is the engine configuration for ModeLive and ModeTrace
	// (ModeDetect always uses the paper's default policy, like
	// scenario.Detect).
	Config core.Config
	// Timeout bounds the job's wall time (0 = the pool default). On
	// expiry the guest is preempted cooperatively and the job fails with
	// a *scenario.DeadlineError.
	Timeout time.Duration
	// NoCache skips both cache lookup and insertion for this job.
	NoCache bool
}

// State is a job's lifecycle position.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Finding is the service-level view of one flagged injection event. Prov
// is the finding's provenance graph, carried structured all the way from
// flag time so API consumers can query it instead of parsing rendered
// text.
type Finding struct {
	Rule    string           `json:"rule"`
	Process string           `json:"process"`
	PID     uint32           `json:"pid"`
	API     string           `json:"api,omitempty"`
	Prov    *provgraph.Graph `json:"prov,omitempty"`
	// Risk is the triage score ("low"/"medium"/"high") and RiskRule the
	// policy rule that assigned it, when a triage policy is active. With
	// triage disabled both stay empty and the finding is bit-identical to
	// the pre-triage encoding.
	Risk     string `json:"risk,omitempty"`
	RiskRule string `json:"risk_rule,omitempty"`
}

// Result is the cacheable outcome of a completed job.
type Result struct {
	Hash         string        `json:"hash,omitempty"`
	Scenario     string        `json:"scenario"`
	Mode         Mode          `json:"mode"`
	Flagged      bool          `json:"flagged"`
	Findings     []Finding     `json:"findings,omitempty"`
	Instructions uint64        `json:"instructions"`
	WallTime     time.Duration `json:"wall_ns"`
	// Degraded carries the scenario's partial-failure error (recovered
	// plugin panic, replay divergence) when the run completed degraded.
	// Degraded results are not deterministic, so the cache skips them
	// (or holds them only briefly — see Config.DegradedTTL).
	Degraded string `json:"degraded,omitempty"`

	// Risk is the run's aggregate triage score (the maximum across
	// findings; "low" for a clean run) and RiskPolicy the content hash of
	// the policy that produced it. Both are empty with triage disabled.
	Risk       string `json:"risk,omitempty"`
	RiskPolicy string `json:"risk_policy,omitempty"`

	// Prov is the run's merged provenance graph (the union of every
	// finding's graph); set when the run flagged anything.
	Prov *provgraph.Graph `json:"prov,omitempty"`

	// Raw is the full scenario result for in-process consumers (the
	// experiment sweeps); it is never serialized.
	Raw *scenario.Result `json:"-"`
}

// run is one underlying execution, shared by every waiter whose submission
// coalesced onto it. All fields are guarded by the pool's mutex.
type run struct {
	key     string
	req     Request
	waiters []*Job

	running  bool
	canceled bool // last waiter detached; drop on pop, abort if running
	started  time.Time
	cancel   context.CancelFunc
}

// detach removes one waiter; p.mu must be held.
func (r *run) detach(job *Job) {
	for i, w := range r.waiters {
		if w == job {
			r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
			return
		}
	}
}

// Job is one submission's waiter handle. Coalesced submissions share a run
// but each get their own Job, so cancelling one never poisons its peers.
// All fields are guarded by the pool's mutex; read them through View or
// after Wait.
type Job struct {
	ID       string
	Hash     string
	Scenario string

	run      *run // nil once settled
	state    State
	cacheHit bool
	err      error
	result   *Result

	submitted time.Time
	started   time.Time
	finished  time.Time

	done chan struct{}
}

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is an immutable snapshot of a job, safe to render.
type JobView struct {
	ID        string    `json:"id"`
	Hash      string    `json:"hash,omitempty"`
	Scenario  string    `json:"scenario"`
	State     State     `json:"state"`
	CacheHit  bool      `json:"cache_hit"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	Error     string    `json:"error,omitempty"`
	Result    *Result   `json:"result,omitempty"`
}

// retainedJob is a settled job's terminal view held in the retention ring.
type retainedJob struct {
	view    JobView
	expires time.Time // zero = no age limit
}

// Runner executes one request; the default runs the scenario engine.
// Tests inject blocking runners to exercise queue and cancellation
// behavior deterministically.
type Runner func(ctx context.Context, req Request) (*scenario.Result, error)

// Config tunes a Pool. The zero value is serviceable.
type Config struct {
	// Workers is the pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued-but-not-running jobs (default 256).
	// Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// JobTimeout is the default per-job deadline (default 2m; negative
	// disables).
	JobTimeout time.Duration
	// CacheCap bounds the result cache entry count (default 512;
	// negative disables caching).
	CacheCap int
	// CacheTTL expires cache entries this long after insertion
	// (default 0 = entries never age out).
	CacheTTL time.Duration
	// CacheLRU switches cache eviction from insertion order (FIFO) to
	// least-recently-used.
	CacheLRU bool
	// DegradedTTL controls caching of degraded results (recovered plugin
	// panic, replay divergence). 0 (the default) never caches them —
	// every identical re-submission re-runs and gets a fresh chance at a
	// clean result. >0 caches them for that long only.
	DegradedTTL time.Duration
	// JobRetention bounds how many terminal jobs stay addressable via
	// View / GET /jobs/{id} after they settle (default 1024; negative
	// disables retention — settled jobs are forgotten immediately).
	JobRetention int
	// JobRetentionAge expires retained jobs by age (default 15m;
	// negative = no age limit).
	JobRetentionAge time.Duration
	// Store is the persistent result tier under the in-memory cache
	// (nil = memory only). Clean results are written through to it, and
	// cache misses read through it — a restarted farosd pointed at the
	// same store directory serves previously completed work from disk
	// with zero re-execution. Degraded results are never persisted.
	Store *store.Store
	// Traces is the content-addressed trace store ModeTrace jobs load
	// from (nil disables trace analysis).
	Traces *trace.Store
	// Triage is the active risk policy (nil disables scoring). Scoring is
	// strictly a view over each finding's provenance graph: the flagged
	// set and every finding field the engine produced stay bit-identical
	// with triage disabled. The policy's content hash is folded into the
	// result-cache key, so the same work under a different policy is
	// different work — a stored trace re-scored under a new policy yields
	// a new cached result instead of serving the old score.
	Triage *triage.Policy
	// LedgerJobs bounds how many job timelines the audit ledger retains
	// (default 1024; oldest evicted whole).
	LedgerJobs int
	// NodeID identifies this process in cluster mode; it is stamped on
	// every lifecycle event so a fleet-wide SSE consumer can tell which
	// node originated each frame. Empty in single-node operation.
	NodeID string
	// Cluster is the ownership resolver and peer forwarder (nil =
	// single-node; every request is served locally). The HTTP layer
	// consults it to route non-owned shard keys to their owner.
	Cluster Forwarder
	// Runner overrides the analysis function (tests only).
	Runner Runner
}

// ConfigError reports a rejected Config field. Construction fails loudly
// instead of letting a nonsensical value (a negative worker count, a
// negative TTL) silently coerce into some default at runtime.
type ConfigError struct {
	Field  string
	Value  any
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("pipeline: config %s=%v: %s", e.Field, e.Value, e.Reason)
}

// Validate rejects Config values that have no meaning. Zero always means
// "use the default", and the documented negative toggles (JobTimeout,
// CacheCap, JobRetention, JobRetentionAge) stay valid; everything else
// must be non-negative.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return &ConfigError{"Workers", c.Workers, "worker count cannot be negative (0 = GOMAXPROCS)"}
	}
	if c.QueueDepth < 0 {
		return &ConfigError{"QueueDepth", c.QueueDepth, "queue depth cannot be negative (0 = default 256)"}
	}
	if c.CacheTTL < 0 {
		return &ConfigError{"CacheTTL", c.CacheTTL, "cache TTL cannot be negative (0 = entries never age out)"}
	}
	if c.DegradedTTL < 0 {
		return &ConfigError{"DegradedTTL", c.DegradedTTL, "degraded TTL cannot be negative (0 = never cache degraded results)"}
	}
	return nil
}

// ErrQueueFull is returned by Submit when the job queue is at capacity.
var ErrQueueFull = errors.New("pipeline: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("pipeline: pool closed")

// ErrDraining is returned by Submit for new work while the pool is
// draining for shutdown (cache hits and coalescing onto in-flight runs
// still succeed — they add no new work).
var ErrDraining = errors.New("pipeline: pool draining")

// cacheEntry is one cached result plus its eviction bookkeeping.
type cacheEntry struct {
	key     string
	res     *Result
	expires time.Time // zero = never
	elem    *list.Element
}

// Pool is the analysis service: a job queue drained by a bounded set of
// worker goroutines, fronted by a result cache.
type Pool struct {
	cfg    Config
	queue  chan *run
	ledger *triage.Ledger
	hub    *triage.Hub

	mu        sync.Mutex
	jobs      map[string]*Job        // active (queued/running) waiter handles
	inflight  map[string]*run        // cache key → queued/running run (dedup)
	cache     map[string]*cacheEntry // cache key → completed result
	cacheList *list.List             // eviction order: front is next victim
	retained  map[string]*retainedJob
	retOrder  []string // retained job IDs, oldest first
	closed    bool
	draining  bool
	stats     Stats // live counters; gauges are filled in by Stats()

	running atomic.Int64
	nextID  atomic.Uint64
	wg      sync.WaitGroup
}

// New validates cfg and starts a pool with cfg.Workers workers. A
// rejected field returns a *ConfigError and no pool.
func New(cfg Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 512
	}
	if cfg.JobRetention == 0 {
		cfg.JobRetention = 1024
	}
	if cfg.JobRetentionAge == 0 {
		cfg.JobRetentionAge = 15 * time.Minute
	}
	if cfg.Runner == nil {
		cfg.Runner = scenarioRunner(cfg.Traces)
	}
	p := &Pool{
		cfg:       cfg,
		queue:     make(chan *run, cfg.QueueDepth),
		ledger:    triage.NewLedger(cfg.LedgerJobs),
		hub:       triage.NewHub(),
		jobs:      make(map[string]*Job),
		inflight:  make(map[string]*run),
		cache:     make(map[string]*cacheEntry),
		cacheList: list.New(),
		retained:  make(map[string]*retainedJob),
		stats:     newStats(),
	}
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p, nil
}

// scenarioRunner builds the default Runner over an optional trace store.
// ModeTrace loads the encoded trace by digest and replays it analysis-only
// (FAROS attached, no live guest execution); the replay path re-verifies
// the trace's identity digests, so a store entry recorded against a
// different binary fails typed (*trace.MismatchError) instead of
// diverging silently.
func scenarioRunner(traces *trace.Store) Runner {
	return func(ctx context.Context, req Request) (*scenario.Result, error) {
		switch req.Mode {
		case ModeLive:
			cfg := req.Config
			return scenario.RunLiveContext(ctx, req.Spec, scenario.Plugins{Faros: &cfg}, nil)
		case ModeTrace:
			if traces == nil {
				return nil, errors.New("pipeline: no trace store configured")
			}
			data, ok := traces.Get(req.TraceDigest)
			if !ok {
				return nil, fmt.Errorf("pipeline: trace %s is no longer stored (expired or quarantined)", req.TraceDigest)
			}
			cfg := req.Config
			return scenario.ReplayTraceContext(ctx, data, scenario.Plugins{Faros: &cfg})
		}
		return scenario.DetectContext(ctx, req.Spec, nil)
	}
}

// cacheKey derives the deterministic identity of a request: the work's
// content identity plus the analysis mode and engine configuration (the
// same work under a different policy is different work). For spec-driven
// modes the identity is the spec hash; for ModeTrace it is the trace
// digest — the trace embeds its spec, so the digest subsumes it.
// ModeDetect ignores the engine config — it always runs the paper's
// default policy — so the key normalizes it to zero there; otherwise
// identical detect requests that happened to carry different (ignored)
// configs would spuriously miss. When a triage policy is active its
// content hash is appended (policyHash non-empty): results carry scores,
// so the same work under a different policy is a different cache entry.
// With triage disabled the key is byte-identical to the legacy form.
// Returns "" for uncacheable requests (endpoint types without a wire
// encoding, trace jobs with no digest).
func cacheKey(req Request, policyHash string) string {
	mode := req.Mode
	if mode == "" {
		mode = ModeDetect
	}
	var id string
	if mode == ModeTrace {
		if req.TraceDigest == "" {
			return ""
		}
		id = req.TraceDigest
	} else {
		specHash, err := samples.SpecHash(req.Spec)
		if err != nil {
			return ""
		}
		id = specHash
	}
	cfg := req.Config
	if mode == ModeDetect {
		cfg = core.Config{}
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	material := id + "|" + string(mode) + "|" + string(cfgJSON)
	if policyHash != "" {
		material += "|" + policyHash
	}
	sum := sha256.Sum256([]byte(material))
	return hex.EncodeToString(sum[:])
}

// policyHash returns the active triage policy's content identity ("" when
// triage is disabled) — the cache-key component.
func (p *Pool) policyHash() string {
	if p.cfg.Triage == nil {
		return ""
	}
	return p.cfg.Triage.Hash()
}

// Submit enqueues a request and returns this submission's waiter handle.
// Identical requests (same cache key) are served from the cache when
// already completed, or coalesced onto the in-flight run when
// queued/running — each waiter still gets its own Job, so Cancel detaches
// only that waiter. Returns ErrQueueFull/ErrClosed otherwise.
func (p *Pool) Submit(req Request) (*Job, error) {
	if req.Mode == "" {
		req.Mode = ModeDetect
	}
	key := ""
	if !req.NoCache {
		key = cacheKey(req, p.policyHash())
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if key != "" {
		if res, ok := p.lookupCacheLocked(key); ok {
			p.stats.CacheHits++
			return p.cacheHitJobLocked(req, key, res), nil
		}
		if r, ok := p.inflight[key]; ok && !r.canceled {
			job := p.newJobLocked(req, key)
			job.run = r
			r.waiters = append(r.waiters, job)
			if r.running {
				job.state = StateRunning
				job.started = r.started
			}
			p.jobs[job.ID] = job
			p.stats.JobsCoalesced++
			p.emit(triage.Event{Type: triage.EventCoalesced, Job: job.ID,
				Scenario: job.Scenario, Hash: job.Hash})
			return job, nil
		}
		if res, ok := p.storeLookupLocked(key); ok {
			return p.cacheHitJobLocked(req, key, res), nil
		}
	}
	if p.draining {
		return nil, ErrDraining
	}
	job := p.newJobLocked(req, key)
	r := &run{key: key, req: req, waiters: []*Job{job}}
	job.run = r
	select {
	case p.queue <- r:
	default:
		p.stats.QueueFull++
		return nil, ErrQueueFull
	}
	p.jobs[job.ID] = job
	if key != "" {
		p.inflight[key] = r
		// Counted only after successful enqueue: an ErrQueueFull
		// rejection is back-pressure, not a cache miss.
		p.stats.CacheMisses++
	}
	p.stats.JobsSubmitted++
	p.emit(triage.Event{Type: triage.EventSubmitted, Job: job.ID,
		Scenario: job.Scenario, Hash: job.Hash})
	return job, nil
}

// newJobLocked allocates a waiter handle; p.mu must be held. The caller
// registers it in p.jobs (active) or the retention ring (terminal).
func (p *Pool) newJobLocked(req Request, key string) *Job {
	return &Job{
		ID:        fmt.Sprintf("j%06d", p.nextID.Add(1)),
		Hash:      key,
		Scenario:  req.Spec.Name,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
}

// cacheHitJobLocked builds an already-settled waiter handle around a
// cached (or store-served) result; p.mu must be held.
func (p *Pool) cacheHitJobLocked(req Request, key string, res *Result) *Job {
	job := p.newJobLocked(req, key)
	job.state = StateDone
	job.cacheHit = true
	job.result = res
	job.finished = time.Now()
	close(job.done)
	p.retainLocked(job)
	p.emit(triage.Event{Type: triage.EventCacheHit, Job: job.ID,
		Scenario: job.Scenario, Hash: job.Hash, Risk: res.Risk})
	return job
}

// storeLookupLocked reads through the persistent store on a memory-cache
// miss. A hit is promoted into the memory cache (under the configured TTL)
// so subsequent lookups skip the disk; p.mu must be held. The store itself
// counts hits/misses and quarantines entries that fail verification.
func (p *Pool) storeLookupLocked(key string) (*Result, bool) {
	if p.cfg.Store == nil || p.cfg.CacheCap < 0 {
		return nil, false
	}
	payload, ok := p.cfg.Store.Get(key)
	if !ok {
		return nil, false
	}
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		// The checksum verified, so this is a format skew (an entry
		// written by an incompatible version), not corruption; ignore it.
		return nil, false
	}
	var exp time.Time
	if p.cfg.CacheTTL > 0 {
		exp = time.Now().Add(p.cfg.CacheTTL)
	}
	p.storeLocked(key, &res, exp)
	return &res, true
}

// CachedJob serves a request from the memory cache or the persistent
// store without creating any new work — the overload path: when the queue
// is saturated the HTTP layer degrades to cached-only service, and this
// is the lookup it degrades to. ok=false when the result is not already
// available.
func (p *Pool) CachedJob(req Request) (*Job, bool) {
	if req.Mode == "" {
		req.Mode = ModeDetect
	}
	if req.NoCache {
		return nil, false
	}
	key := cacheKey(req, p.policyHash())
	if key == "" {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, false
	}
	if res, ok := p.lookupCacheLocked(key); ok {
		p.stats.CacheHits++
		return p.cacheHitJobLocked(req, key, res), true
	}
	if res, ok := p.storeLookupLocked(key); ok {
		return p.cacheHitJobLocked(req, key, res), true
	}
	return nil, false
}

// QueueSaturation returns the queued fraction of the queue's capacity
// (0 = idle, 1 = full) — the load-shedding signal.
func (p *Pool) QueueSaturation() float64 {
	return float64(len(p.queue)) / float64(cap(p.queue))
}

// StoreStats returns the persistent store's counters; ok=false when no
// store is configured.
func (p *Pool) StoreStats() (store.Stats, bool) {
	if p.cfg.Store == nil {
		return store.Stats{}, false
	}
	return p.cfg.Store.Stats(), true
}

// StoreErr returns the persistent store's last write failure (nil when
// healthy or no store is configured) — the readiness surface.
func (p *Pool) StoreErr() error {
	if p.cfg.Store == nil {
		return nil
	}
	return p.cfg.Store.Err()
}

// Traces returns the configured trace store (nil when trace analysis is
// disabled). The HTTP layer serves the /traces endpoints through it.
func (p *Pool) Traces() *trace.Store { return p.cfg.Traces }

// Cluster returns the configured cluster forwarder (nil in single-node
// operation).
func (p *Pool) Cluster() Forwarder { return p.cfg.Cluster }

// NodeID returns this node's cluster identity ("" single-node).
func (p *Pool) NodeID() string { return p.cfg.NodeID }

// Backfill inserts a peer-produced result into the local memory cache
// and persistent store under its own cache key, so the next identical
// submission or result read is answered locally instead of re-crossing
// the cluster. Results are deterministic and content-addressed, so a
// peer's copy is bit-identical to what a local run would produce.
// Degraded, hashless, and already-cached results are skipped (false).
func (p *Pool) Backfill(res *Result) bool {
	if res == nil || res.Hash == "" || res.Degraded != "" {
		return false
	}
	p.mu.Lock()
	if p.closed || p.cfg.CacheCap < 0 {
		p.mu.Unlock()
		return false
	}
	if _, ok := p.lookupCacheLocked(res.Hash); ok {
		p.mu.Unlock()
		return false
	}
	var exp time.Time
	if p.cfg.CacheTTL > 0 {
		exp = time.Now().Add(p.cfg.CacheTTL)
	}
	p.storeLocked(res.Hash, res, exp)
	p.stats.Cluster.Backfills++
	p.mu.Unlock()
	if p.cfg.Store != nil {
		p.persist(res)
	}
	return true
}

// emit publishes one lifecycle event to the live stream and, when it is
// job-scoped, appends the stamped copy to the audit ledger — the ledger
// records exactly what streamed, sequence number included. Safe to call
// with or without p.mu held (the hub and ledger have their own locks and
// never call back into the pool).
func (p *Pool) emit(e triage.Event) {
	e.Time = time.Now()
	e.Node = p.cfg.NodeID
	p.ledger.Append(p.hub.Publish(e))
}

// Subscribe attaches a live event-stream consumer (the GET /events SSE
// surface) with the given channel buffer. Close the subscriber when done;
// the channel also closes when the pool shuts down.
func (p *Pool) Subscribe(buf int) *triage.Subscriber { return p.hub.Subscribe(buf) }

// JobEvents returns one job's audit-ledger timeline, oldest first;
// ok=false when the job was never ledgered or its timeline was evicted.
func (p *Pool) JobEvents(id string) ([]triage.Event, bool) { return p.ledger.Job(id) }

// TriagePolicy returns the active risk policy (nil when triage is
// disabled).
func (p *Pool) TriagePolicy() *triage.Policy { return p.cfg.Triage }

// JobErr returns a waiter handle's typed terminal error (nil while
// unsettled or when it settled cleanly). The HTTP layer uses it to map
// typed failures — trace mismatches, replay divergences — onto status
// codes after a waited job fails.
func (p *Pool) JobErr(job *Job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return job.err
}

// BeginDrain stops the pool accepting new work (Submit returns
// ErrDraining for anything that is not a cache/store hit or a coalesce
// onto an in-flight run) while letting queued and running jobs finish.
func (p *Pool) BeginDrain() {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
}

// Draining reports whether BeginDrain was called.
func (p *Pool) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// Drain marks the pool draining and waits until every in-flight job has
// settled (or ctx expires). It does not stop the workers — call Close
// afterwards; the combination is farosd's graceful shutdown: drain
// in-flight work, then tear down.
func (p *Pool) Drain(ctx context.Context) error {
	p.BeginDrain()
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for {
		p.mu.Lock()
		idle := len(p.jobs) == 0 && len(p.queue) == 0 && p.running.Load() == 0
		p.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// worker drains the queue until Close.
func (p *Pool) worker() {
	defer p.wg.Done()
	for r := range p.queue {
		p.runJob(r)
	}
}

// runJob executes one run end to end.
func (p *Pool) runJob(r *run) {
	p.mu.Lock()
	if r.canceled || len(r.waiters) == 0 {
		// Every waiter detached while the run sat in the queue; it was
		// already removed from inflight, so just drop it.
		p.mu.Unlock()
		return
	}
	r.running = true
	r.started = time.Now()
	for _, w := range r.waiters {
		w.state = StateRunning
		w.started = r.started
	}
	timeout := r.req.Timeout
	if timeout == 0 {
		timeout = p.cfg.JobTimeout
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	r.cancel = cancel
	req := r.req
	p.mu.Unlock()

	res, err := func() (*scenario.Result, error) {
		p.running.Add(1)
		defer p.running.Add(-1)
		defer cancel()
		return p.cfg.Runner(ctx, req)
	}()
	p.mu.Lock()
	if req.Mode == ModeTrace {
		p.stats.Trace.Replays++
	}
	persist := p.finishRunLocked(r, res, err)
	p.mu.Unlock()
	if persist != nil {
		p.persist(persist)
	}
}

// persist writes a clean result through to the persistent store (outside
// the pool mutex — it is a disk write). Store failures are non-fatal: the
// result is already in the memory cache and served; the store records the
// error for the readiness surface.
func (p *Pool) persist(res *Result) {
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	_ = p.cfg.Store.Put(res.Hash, payload)
}

// finishRunLocked records a run's outcome, applies the cache policy, and
// settles every still-attached waiter; p.mu must be held. The returned
// result, when non-nil, is clean and cacheable and should be written
// through to the persistent store by the caller (outside the lock).
func (p *Pool) finishRunLocked(r *run, res *scenario.Result, err error) (persist *Result) {
	r.cancel = nil
	if r.key != "" && p.inflight[r.key] == r {
		delete(p.inflight, r.key)
	}
	now := time.Now()
	wall := now.Sub(r.started)
	if r.started.IsZero() {
		wall = 0
	}

	var de *scenario.DeadlineError
	switch {
	case err == nil:
		result := buildResult(r, res)
		p.scoreResult(result)
		p.stats.JobsDone += uint64(len(r.waiters))
		p.stats.Instructions += result.Instructions
		for _, f := range result.Findings {
			p.stats.FindingsByRule[f.Rule]++
		}
		if res != nil && res.Faros != nil {
			p.stats.addEngine(res.Faros.Stats())
		}
		p.stats.observeLatency(wall)
		if r.key != "" && p.cfg.CacheCap >= 0 {
			switch {
			case result.Degraded == "":
				var exp time.Time
				if p.cfg.CacheTTL > 0 {
					exp = now.Add(p.cfg.CacheTTL)
				}
				p.storeLocked(r.key, result, exp)
				if p.cfg.Store != nil {
					persist = result
				}
			case p.cfg.DegradedTTL > 0:
				p.storeLocked(r.key, result, now.Add(p.cfg.DegradedTTL))
			default:
				// A degraded result is a partial failure, not a
				// deterministic outcome — serving it from cache would
				// poison every future identical submission.
				p.stats.CacheSkippedDegraded++
			}
		}
		for _, w := range r.waiters {
			if result.Degraded != "" {
				p.emit(triage.Event{Type: triage.EventDegraded, Job: w.ID,
					Scenario: w.Scenario, Hash: w.Hash, Detail: result.Degraded})
			}
			for _, f := range result.Findings {
				p.emit(triage.Event{Type: triage.EventFlagged, Job: w.ID,
					Scenario: w.Scenario, Hash: w.Hash,
					Rule: f.Rule, Risk: f.Risk, RiskRule: f.RiskRule})
			}
			p.settleLocked(w, StateDone, result, nil, now)
		}
	case errors.As(err, &de):
		p.stats.JobsDeadline++
		p.stats.JobsFailed += uint64(len(r.waiters))
		for _, w := range r.waiters {
			p.settleLocked(w, StateFailed, nil, err, now)
		}
	case errors.Is(err, context.Canceled):
		p.stats.JobsCanceled += uint64(len(r.waiters))
		for _, w := range r.waiters {
			p.settleLocked(w, StateCanceled, nil, err, now)
		}
	default:
		p.stats.JobsFailed += uint64(len(r.waiters))
		for _, w := range r.waiters {
			p.settleLocked(w, StateFailed, nil, err, now)
		}
	}
	r.waiters = nil
	return persist
}

// settleLocked moves one waiter to a terminal state: final fields, done
// channel, active-registry removal, retention; p.mu must be held.
func (p *Pool) settleLocked(job *Job, state State, res *Result, err error, now time.Time) {
	if job.run == nil {
		return // already settled (canceled waiter, Close race)
	}
	job.run = nil
	job.state = state
	job.result = res
	job.err = err
	job.finished = now
	close(job.done)
	delete(p.jobs, job.ID)
	p.retainLocked(job)
	ev := triage.Event{Job: job.ID, Scenario: job.Scenario, Hash: job.Hash}
	switch state {
	case StateDone:
		ev.Type = triage.EventDone
		if res != nil {
			ev.Risk = res.Risk
		}
	case StateCanceled:
		ev.Type = triage.EventCanceled
	default:
		ev.Type = triage.EventFailed
		if err != nil {
			ev.Detail = err.Error()
		}
	}
	p.emit(ev)
}

// scoreResult applies the active triage policy to a freshly built result:
// each finding gets the first-match-wins score over its provenance graph,
// and the result carries the aggregate (maximum; "low" for a clean run)
// plus the policy's content hash. A no-op with triage disabled, keeping
// the result bit-identical to the pre-triage encoding. Scoring happens
// here — after buildResult, before caching — so it applies equally to
// detect, live, and trace-replay jobs, and cached copies carry scores
// consistent with the policy hash in their cache key.
func (p *Pool) scoreResult(result *Result) {
	pol := p.cfg.Triage
	if pol == nil {
		return
	}
	var scores []triage.Score
	for i := range result.Findings {
		f := &result.Findings[i]
		a := pol.ScoreFinding(f.Rule, f.Prov)
		f.Risk = a.Score.String()
		f.RiskRule = a.Rule
		scores = append(scores, a.Score)
	}
	agg := triage.Aggregate(scores...)
	result.Risk = agg.String()
	result.RiskPolicy = pol.Hash()
	for _, s := range scores {
		p.stats.FindingsByRisk[s.String()]++
	}
	p.stats.ResultsByRisk[agg.String()]++
}

// buildResult summarizes a scenario result for the service surface.
func buildResult(r *run, res *scenario.Result) *Result {
	out := &Result{
		Hash:         r.key,
		Scenario:     r.req.Spec.Name,
		Mode:         r.req.Mode,
		Instructions: res.Summary.Instructions,
		WallTime:     res.WallTime,
		Raw:          res,
	}
	if res.Err != nil {
		out.Degraded = res.Err.Error()
	}
	if res.Faros != nil {
		out.Flagged = res.Faros.Flagged()
		for _, f := range res.Faros.Findings() {
			out.Findings = append(out.Findings, Finding{
				Rule:    f.Rule,
				Process: f.ProcName,
				PID:     f.PID,
				API:     f.ResolvedAPI,
				Prov:    f.Prov,
			})
		}
		if out.Flagged {
			out.Prov = res.Faros.ProvGraph()
		}
	}
	return out
}

// retainLocked moves a terminal job into the retention ring; p.mu must be
// held. The retained view drops Raw so the ring holds renderable
// summaries, not full scenario state — in-process consumers read Raw
// through their waiter handle (Wait), not through View.
func (p *Pool) retainLocked(job *Job) {
	if p.cfg.JobRetention < 0 {
		return
	}
	now := time.Now()
	p.sweepRetainedLocked(now)
	rj := &retainedJob{view: p.viewLocked(job)}
	if rj.view.Result != nil && rj.view.Result.Raw != nil {
		stripped := *rj.view.Result
		stripped.Raw = nil
		rj.view.Result = &stripped
	}
	if p.cfg.JobRetentionAge > 0 {
		rj.expires = now.Add(p.cfg.JobRetentionAge)
	}
	if _, ok := p.retained[job.ID]; !ok {
		p.retOrder = append(p.retOrder, job.ID)
	}
	p.retained[job.ID] = rj
	for p.cfg.JobRetention > 0 && len(p.retained) > p.cfg.JobRetention {
		oldest := p.retOrder[0]
		p.retOrder = p.retOrder[1:]
		delete(p.retained, oldest)
	}
}

// sweepRetainedLocked drops age-expired retained jobs from the front of
// the ring (uniform age means the front expires first); p.mu must be held.
func (p *Pool) sweepRetainedLocked(now time.Time) {
	for len(p.retOrder) > 0 {
		rj := p.retained[p.retOrder[0]]
		if rj == nil {
			p.retOrder = p.retOrder[1:]
			continue
		}
		if rj.expires.IsZero() || now.Before(rj.expires) {
			return
		}
		delete(p.retained, p.retOrder[0])
		p.retOrder = p.retOrder[1:]
	}
}

// lookupCacheLocked returns a live cache entry, expiring it if its TTL
// passed and touching it under LRU eviction; p.mu must be held.
func (p *Pool) lookupCacheLocked(key string) (*Result, bool) {
	e, ok := p.cache[key]
	if !ok {
		return nil, false
	}
	if !e.expires.IsZero() && time.Now().After(e.expires) {
		p.cacheList.Remove(e.elem)
		delete(p.cache, key)
		p.stats.CacheExpired++
		return nil, false
	}
	if p.cfg.CacheLRU {
		p.cacheList.MoveToBack(e.elem)
	}
	return e.res, true
}

// storeLocked inserts into the cache, evicting from the front of the
// eviction list (insertion order, or LRU when CacheLRU touches entries on
// lookup) while over capacity; p.mu must be held.
func (p *Pool) storeLocked(key string, res *Result, expires time.Time) {
	if e, ok := p.cache[key]; ok {
		e.res = res
		e.expires = expires
		p.cacheList.MoveToBack(e.elem)
		return
	}
	e := &cacheEntry{key: key, res: res, expires: expires}
	e.elem = p.cacheList.PushBack(e)
	p.cache[key] = e
	for p.cfg.CacheCap > 0 && len(p.cache) > p.cfg.CacheCap {
		front := p.cacheList.Front()
		victim := front.Value.(*cacheEntry)
		p.cacheList.Remove(front)
		delete(p.cache, victim.key)
	}
}

// Cancel detaches one waiter: the handle settles as canceled immediately,
// while coalesced peers on the same run keep waiting unharmed. The
// underlying run is aborted only when its last waiter detaches — a
// running guest has its context canceled (the preemption check observes
// it within a few thousand instructions), and a still-queued run is
// removed from the dedup index at once so a new identical submission
// starts fresh instead of inheriting a doomed run. Returns false for
// unknown or already-settled jobs.
func (p *Pool) Cancel(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	job, ok := p.jobs[id]
	if !ok {
		return false
	}
	r := job.run
	r.detach(job)
	p.settleLocked(job, StateCanceled, nil, context.Canceled, time.Now())
	p.stats.JobsCanceled++
	if len(r.waiters) == 0 {
		r.canceled = true
		if r.key != "" && p.inflight[r.key] == r {
			delete(p.inflight, r.key)
		}
		if r.cancel != nil {
			r.cancel()
		}
	}
	return true
}

// View snapshots a job for rendering: active jobs live, settled jobs from
// the retention ring until count or age evicts them.
func (p *Pool) View(id string) (JobView, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if job, ok := p.jobs[id]; ok {
		return p.viewLocked(job), true
	}
	if rj, ok := p.retained[id]; ok {
		if !rj.expires.IsZero() && time.Now().After(rj.expires) {
			p.sweepRetainedLocked(time.Now())
			return JobView{}, false
		}
		return rj.view, true
	}
	return JobView{}, false
}

func (p *Pool) viewLocked(job *Job) JobView {
	v := JobView{
		ID:        job.ID,
		Hash:      job.Hash,
		Scenario:  job.Scenario,
		State:     job.state,
		CacheHit:  job.cacheHit,
		Submitted: job.submitted,
		Started:   job.started,
		Finished:  job.finished,
		Result:    job.result,
	}
	if job.err != nil {
		v.Error = job.err.Error()
	}
	return v
}

// ResultByHash returns the cached result for a cache key, reading through
// the persistent store on a memory miss — GET /results/{hash} keeps
// answering across restarts.
func (p *Pool) ResultByHash(hash string) (*Result, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if res, ok := p.lookupCacheLocked(hash); ok {
		return res, true
	}
	return p.storeLookupLocked(hash)
}

// Wait blocks until the job finishes or ctx expires, then returns its
// final view.
func (p *Pool) Wait(ctx context.Context, job *Job) (JobView, error) {
	select {
	case <-job.done:
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.viewLocked(job), nil
}

// RunAll submits every request and waits for all of them, preserving
// order. The first job error (or submit error) is returned after every
// submitted job has settled, so a failure never leaves work running.
func (p *Pool) RunAll(ctx context.Context, reqs []Request) ([]*Result, error) {
	jobs := make([]*Job, len(reqs))
	var firstErr error
	for i, req := range reqs {
		job, err := p.Submit(req)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", req.Spec.Name, err)
			}
			continue
		}
		jobs[i] = job
	}
	results := make([]*Result, len(reqs))
	for i, job := range jobs {
		if job == nil {
			continue
		}
		view, err := p.Wait(ctx, job)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if view.Error != "" {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %s", view.Scenario, view.Error)
			}
			continue
		}
		results[i] = view.Result
	}
	if firstErr != nil {
		return results, firstErr
	}
	return results, nil
}

// Stats snapshots the pool's counters and fills in its gauges.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	s := p.stats.clone()
	s.CacheEntries = len(p.cache)
	s.QueueDepth = len(p.queue)
	s.JobsActive = len(p.jobs)
	s.JobsRetained = len(p.retained)
	// Waiters currently sharing a run with at least one peer: everything
	// beyond the first waiter per in-flight run is a coalesced waiter.
	perRun := make(map[*run]int, len(p.jobs))
	for _, job := range p.jobs {
		perRun[job.run]++
	}
	for _, n := range perRun {
		if n > 1 {
			s.WaitersCoalesced += n - 1
		}
	}
	p.mu.Unlock()
	s.Workers = p.cfg.Workers
	s.Running = int(p.running.Load())
	if p.cfg.Store != nil {
		s.StoreEnabled = true
		s.Store = p.cfg.Store.Stats()
	}
	if p.cfg.Traces != nil {
		s.TraceStoreEnabled = true
		s.TraceStore = p.cfg.Traces.Stats()
	}
	if p.cfg.Triage != nil {
		s.TriageEnabled = true
		s.TriagePolicy = p.cfg.Triage.Hash()
	}
	if p.cfg.Cluster != nil {
		s.ClusterEnabled = true
		s.ClusterNode = p.cfg.Cluster.NodeID()
		s.ClusterPeers = p.cfg.Cluster.PeerHealth()
	}
	s.EventsPublished, s.EventsDropped, s.EventSubscribers = p.hub.Stats()
	s.LedgerJobs, s.LedgerEvicted = p.ledger.Stats()
	return s
}

// count applies a counter update under the pool mutex, for callers that
// do not already hold it.
func (p *Pool) count(update func(*Stats)) {
	p.mu.Lock()
	update(&p.stats)
	p.mu.Unlock()
}

// Close stops accepting work, cancels anything still running, settles
// every active waiter as canceled, and waits for the workers to exit.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	now := time.Now()
	for _, job := range p.jobs {
		r := job.run
		r.detach(job)
		p.settleLocked(job, StateCanceled, nil, context.Canceled, now)
		p.stats.JobsCanceled++
		if len(r.waiters) == 0 {
			r.canceled = true
			if r.key != "" && p.inflight[r.key] == r {
				delete(p.inflight, r.key)
			}
			if r.cancel != nil {
				r.cancel()
			}
		}
	}
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
	p.hub.Close()
}
