// Package pipeline turns the synchronous scenario engine into a shared,
// concurrent analysis service: a bounded worker pool with a job queue,
// per-job deadlines with cooperative cancellation (threaded into the guest
// as instruction-budget preemption checks, so a wedged guest cannot pin a
// worker), result deduplication and caching behind the deterministic spec
// hash (record/replay is byte-exact, so equal hashes imply equal results),
// and a metrics surface rendered by both cmd/farosd's HTTP endpoints and
// the CLI. A job runs FAROS only: its Result carries FAROS's verdict,
// findings and provenance, so the Cuckoo, malfind and OSI baselines stay
// with internal/experiments, which runs its sweeps through
// scenario.RunLiveContext directly.
//
// Job lifecycle: Submit returns a per-waiter handle. Identical concurrent
// submissions coalesce onto one underlying run, but each waiter cancels
// independently — the run is only aborted when its last waiter detaches.
// Terminal jobs move from the active registry to a bounded retention ring
// (count + age), so the service's memory stays flat under sustained
// traffic while GET /jobs/{id} and its event timeline keep answering for
// recently settled work.
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
	"slices"
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
	"faros/internal/vm"
)

// Mode selects the analysis workflow a job runs.
type Mode string

const (
	// ModeDetect is the paper's analyst workflow: one live pass with the
	// FAROS engine under the paper's default policy. The job keeps no
	// recording, so it runs no separate record pass; its report equals
	// record-then-replay's.
	ModeDetect Mode = "detect"
	// ModeLive is a single live pass with the FAROS engine under the
	// request's engine config.
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
	// Config is the engine configuration for ModeLive and ModeTrace.
	// ModeDetect ignores it and always runs the paper's default policy
	// (the zero config).
	Config core.Config
	// Timeout bounds the job's wall time (0 = the pool default). On
	// expiry the guest is preempted cooperatively and the job fails with
	// a *scenario.DeadlineError.
	Timeout time.Duration
	// NoCache skips both cache lookup and insertion for this job.
	NoCache bool

	// specHash is samples.SpecHash(Spec) when the HTTP layer has already
	// computed it; "" means derive it from Spec.
	specHash string
}

// specID returns the spec's content hash: the carried one when set,
// otherwise samples.SpecHash. "" means the spec has no wire encoding.
func (req Request) specID() string {
	if req.specHash != "" {
		return req.specHash
	}
	h, err := samples.SpecHash(req.Spec)
	if err != nil {
		return ""
	}
	return h
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

// Result is the cacheable outcome of a completed job: a summary that owns
// no guest state. Once it is built and scored, the run's kernel frames,
// block pages and shadow pages go back to the process-wide pools
// (scenario.Result.Release), so the cache and retention ring hold only
// these summaries, never a guest.
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
	// Degraded results are not deterministic, so the cache skips them.
	Degraded string `json:"degraded,omitempty"`

	// Risk is the run's aggregate triage score (the maximum across
	// findings; "low" for a clean run) and RiskPolicy the content hash of
	// the policy that produced it. Both are empty with triage disabled.
	Risk       string `json:"risk,omitempty"`
	RiskPolicy string `json:"risk_policy,omitempty"`

	// Prov is the run's merged provenance graph (the union of every
	// finding's graph); set when the run flagged anything.
	Prov *provgraph.Graph `json:"prov,omitempty"`
}

// run is one underlying execution, shared by every waiter whose submission
// coalesced onto it. A run whose last waiter detached has no waiters: it
// has left the dedup index, and a worker drops it on pop. All fields are
// guarded by the pool's mutex.
type run struct {
	key     string
	req     Request
	waiters []*Job

	running bool
	started time.Time
	cancel  context.CancelFunc
}

// Job is one submission's waiter handle. Coalesced submissions share a run
// but each get their own Job, so cancelling one never poisons its peers.
// A settled job stays in the retention ring, timeline included, until
// count or age evicts it. All fields are guarded by the pool's mutex; read
// them through View, JobEvents or after Wait.
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
	expires   time.Time // retention-ring deadline; zero = no age limit

	// events is the job's append-only timeline: every event published
	// for it, stamped as streamed.
	events []triage.Event

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

// Runner executes one request; the default runs the scenario engine.
// Tests inject blocking runners to exercise queue and cancellation
// behavior deterministically. The pool owns every result a Runner returns
// and releases its guest memory once the job's summary is built, so a
// Runner must return a fresh result per call.
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
	// negative disables caching). Past it the least-recently-used entry
	// is evicted.
	CacheCap int
	// JobRetention bounds how many terminal jobs stay addressable via
	// View / GET /jobs/{id} and JobEvents / GET /jobs/{id}/events after
	// they settle (default 1024; negative disables retention — settled
	// jobs are forgotten immediately).
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
// negative queue depth) silently coerce into some default at runtime.
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
	key  string
	res  *Result
	elem *list.Element
}

// Pool is the analysis service: a job queue drained by a bounded set of
// worker goroutines, fronted by two result tiers, an LRU memory cache over
// an optional persistent store. Every read by cache key goes through
// tieredLocked, and every submission either tier answers counts as one
// cache hit.
type Pool struct {
	cfg   Config
	queue chan *run
	hub   *triage.Hub

	mu        sync.Mutex
	jobs      map[string]*Job        // active (queued/running) waiter handles
	inflight  map[string]*run        // cache key → queued/running run (dedup)
	cache     map[string]*cacheEntry // cache key → completed result
	cacheList *list.List             // least recently used at the front
	retained  map[string]*Job        // settled jobs still addressable
	retOrder  []string               // retained job IDs, oldest first
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
		cfg.Runner = defaultRunner(cfg.Traces)
	}
	p := &Pool{
		cfg:       cfg,
		queue:     make(chan *run, cfg.QueueDepth),
		hub:       triage.NewHub(),
		jobs:      make(map[string]*Job),
		inflight:  make(map[string]*run),
		cache:     make(map[string]*cacheEntry),
		cacheList: list.New(),
		retained:  make(map[string]*Job),
		stats:     newStats(),
	}
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p, nil
}

// defaultRunner builds the Runner a pool uses unless Config.Runner
// overrides it, over an optional trace store; it is the one place a
// request's Mode picks its scenario entry point. Every mode attaches the
// FAROS engine only, since BuildResult reads nothing else. ModeDetect and
// ModeLive are one live pass, under the zero config and the request's
// config respectively. ModeTrace loads the encoded trace by digest and
// replays it analysis-only (no live guest execution); the replay path
// re-verifies the trace's identity digests, so a store entry recorded
// against a different binary fails typed (*trace.MismatchError) instead of
// diverging silently.
func defaultRunner(traces *trace.Store) Runner {
	return func(ctx context.Context, req Request) (*scenario.Result, error) {
		cfg := req.Config
		if req.Mode == ModeTrace {
			if traces == nil {
				return nil, errors.New("pipeline: no trace store configured")
			}
			data, ok := traces.Get(req.TraceDigest)
			if !ok {
				return nil, fmt.Errorf("pipeline: trace %s is no longer stored (expired or quarantined)", req.TraceDigest)
			}
			return scenario.ReplayTraceContext(ctx, data, scenario.Plugins{Faros: &cfg})
		}
		if req.Mode != ModeLive {
			cfg = core.Config{} // ModeDetect: the paper's default policy
		}
		return scenario.RunLiveContext(ctx, req.Spec, scenario.Plugins{Faros: &cfg}, nil)
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
		id = req.TraceDigest
	} else {
		id = req.specID()
	}
	if id == "" {
		return ""
	}
	cfgJSON := detectConfigJSON
	if mode != ModeDetect {
		b, err := json.Marshal(req.Config)
		if err != nil {
			return ""
		}
		cfgJSON = string(b)
	}
	material := id + "|" + string(mode) + "|" + cfgJSON
	if policyHash != "" {
		material += "|" + policyHash
	}
	sum := sha256.Sum256([]byte(material))
	return hex.EncodeToString(sum[:])
}

// detectConfigJSON is the config component of every ModeDetect key: the
// zero core.Config, encoded once.
var detectConfigJSON = func() string {
	b, err := json.Marshal(core.Config{})
	if err != nil {
		panic(err)
	}
	return string(b)
}()

// policyHash returns the active triage policy's content identity ("" when
// triage is disabled) — the cache-key component.
func (p *Pool) policyHash() string {
	if p.cfg.Triage == nil {
		return ""
	}
	return p.cfg.Triage.Hash()
}

// Submit enqueues a request and returns this submission's waiter handle.
// Identical requests (same cache key) are coalesced onto the in-flight run
// when queued/running — checked first, so a coalesced submission never
// waits on the store's lock — or served from the memory cache or the
// persistent store when already completed. Each waiter gets its own Job,
// so Cancel detaches only that waiter. Returns ErrQueueFull/ErrClosed
// otherwise.
func (p *Pool) Submit(req Request) (*Job, error) {
	req, key := p.keyed(req)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if key != "" {
		if r, ok := p.inflight[key]; ok {
			job := p.newJobLocked(req, key)
			job.run = r
			r.waiters = append(r.waiters, job)
			if r.running {
				job.state = StateRunning
				job.started = r.started
			}
			p.jobs[job.ID] = job
			p.stats.JobsCoalesced++
			p.emitLocked(job, triage.Event{Type: triage.EventCoalesced})
			return job, nil
		}
		if res, ok := p.tieredLocked(key); ok {
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
	p.emitLocked(job, triage.Event{Type: triage.EventSubmitted})
	return job, nil
}

// keyed fills in a request's default mode and derives its cache key: ""
// when the request opts out of caching or has no content identity.
func (p *Pool) keyed(req Request) (Request, string) {
	if req.Mode == "" {
		req.Mode = ModeDetect
	}
	if req.NoCache {
		return req, ""
	}
	return req, cacheKey(req, p.policyHash())
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
// result either tier answered, and counts it as a cache hit. p.mu must be
// held.
func (p *Pool) cacheHitJobLocked(req Request, key string, res *Result) *Job {
	p.stats.CacheHits++
	job := p.newJobLocked(req, key)
	job.state = StateDone
	job.cacheHit = true
	job.result = res
	job.finished = time.Now()
	close(job.done)
	p.retainLocked(job)
	p.emitLocked(job, triage.Event{Type: triage.EventCacheHit, Risk: res.Risk})
	return job
}

// tieredLocked is the one read of a result by cache key: the memory
// cache, then the persistent store. A store hit is promoted into the
// memory cache so later lookups skip the disk. The store counts its own
// hits and misses and quarantines entries that fail verification; a
// disabled cache reads neither tier. p.mu must be held.
func (p *Pool) tieredLocked(key string) (*Result, bool) {
	if res, ok := p.lookupCacheLocked(key); ok {
		return res, true
	}
	if p.cfg.Store == nil || p.cacheOff() {
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
	p.storeLocked(key, &res)
	return &res, true
}

// CachedJob serves a request from the memory cache or the persistent
// store without creating any new work — the overload path: when the queue
// is saturated the HTTP layer degrades to cached-only service, and this
// is the lookup it degrades to. ok=false when the result is not already
// available.
func (p *Pool) CachedJob(req Request) (*Job, bool) {
	req, key := p.keyed(req)
	if key == "" {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, false
	}
	res, ok := p.tieredLocked(key)
	if !ok {
		return nil, false
	}
	return p.cacheHitJobLocked(req, key, res), true
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
// Degraded and hashless results are skipped (false), and so is a key
// either tier already holds: a stored entry is promoted into memory, not
// written again.
func (p *Pool) Backfill(res *Result) bool {
	if res == nil || res.Hash == "" || res.Degraded != "" {
		return false
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	_, held := p.tieredLocked(res.Hash)
	took := !held && p.storeLocked(res.Hash, res)
	if took {
		p.stats.Cluster.Backfills++
	}
	p.mu.Unlock()
	if took {
		p.persist(res)
	}
	return took
}

// emit publishes one event to the live stream and returns the stamped
// copy. Called bare it streams a jobless event (an admission rejection);
// safe with or without p.mu held, since the hub never calls back into the
// pool.
func (p *Pool) emit(e triage.Event) triage.Event {
	e.Time = time.Now()
	e.Node = p.cfg.NodeID
	return p.hub.Publish(e)
}

// emitLocked publishes one of job's lifecycle events and appends the
// stamped copy to the job's timeline, so the timeline records exactly what
// streamed, sequence number included. p.mu must be held.
func (p *Pool) emitLocked(job *Job, e triage.Event) {
	e.Job, e.Scenario, e.Hash = job.ID, job.Scenario, job.Hash
	job.events = append(job.events, p.emit(e))
}

// Subscribe attaches a live event-stream consumer (the GET /events SSE
// surface) with the given channel buffer. Close the subscriber when done;
// the channel also closes when the pool shuts down.
func (p *Pool) Subscribe(buf int) *triage.Subscriber { return p.hub.Subscribe(buf) }

// JobEvents returns a copy of one job's event timeline, oldest first. It
// answers exactly while View does: ok=false for unknown jobs and for jobs
// the retention ring has evicted.
func (p *Pool) JobEvents(id string) ([]triage.Event, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	job, ok := p.lookupLocked(id)
	if !ok {
		return nil, false
	}
	return slices.Clone(job.events), true
}

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
	if len(r.waiters) == 0 {
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

// persist writes a clean result through to the persistent store, when one
// is configured (outside the pool mutex — it is a disk write). Store
// failures are non-fatal: the result is already in the memory cache and
// served; the store records the error for the readiness surface.
func (p *Pool) persist(res *Result) {
	if p.cfg.Store == nil {
		return
	}
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
	p.dropInflightLocked(r)
	now := time.Now()
	wall := now.Sub(r.started)
	if r.started.IsZero() {
		wall = 0
	}

	var de *scenario.DeadlineError
	switch {
	case err == nil:
		result := BuildResult(res, r.req.Spec.Name, r.req.Mode)
		result.Hash = r.key
		ScoreResult(result, p.cfg.Triage)
		p.stats.JobsDone += uint64(len(r.waiters))
		p.stats.Instructions += result.Instructions
		for _, f := range result.Findings {
			p.stats.FindingsByRule[f.Rule]++
			if f.Risk != "" {
				p.stats.FindingsByRisk[f.Risk]++
			}
		}
		if result.Risk != "" {
			p.stats.ResultsByRisk[result.Risk]++
		}
		if res != nil && res.Faros != nil {
			p.stats.addEngine(res.Faros.Stats())
		}
		p.stats.observeLatency(wall)
		if r.key != "" && p.storeLocked(r.key, result) {
			persist = result
		}
		for _, w := range r.waiters {
			if result.Degraded != "" {
				p.emitLocked(w, triage.Event{Type: triage.EventDegraded, Detail: result.Degraded})
			}
			for _, f := range result.Findings {
				p.emitLocked(w, triage.Event{Type: triage.EventFlagged,
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
	if res != nil {
		// Every read of the guest state is done (BuildResult, ScoreResult,
		// addEngine above): hand its memory to the pools for the next job.
		res.Release()
	}
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
	var ev triage.Event
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
	p.emitLocked(job, ev)
}

// BuildResult summarizes a scenario result as the one machine-readable
// form of an analysis: farosd's job results, stored entries and the faros
// CLI's -json file. It reads the run's FAROS engine, so call it before
// res.Release. The result has no Hash and no triage fields; the caller
// sets the former and ScoreResult the latter.
func BuildResult(res *scenario.Result, name string, mode Mode) *Result {
	out := &Result{
		Scenario:     name,
		Mode:         mode,
		Instructions: res.Summary.Instructions,
		WallTime:     res.WallTime,
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

// ScoreResult stamps a result with pol's verdict: each finding gets the
// first-match-wins score over its provenance graph, and the result carries
// the aggregate (maximum; "low" for a clean run) plus the policy's content
// hash. Stamps from an earlier policy are overwritten. A nil policy leaves
// the result untouched, bit-identical to the pre-triage encoding. The pool
// scores after BuildResult and before caching, so detect, live and
// trace-replay jobs are scored alike and cached copies carry scores
// consistent with the policy hash in their cache key.
func ScoreResult(result *Result, pol *triage.Policy) {
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
	result.Risk = triage.Aggregate(scores...).String()
	result.RiskPolicy = pol.Hash()
}

// retainLocked moves a terminal job into the retention ring; p.mu must be
// held.
func (p *Pool) retainLocked(job *Job) {
	if p.cfg.JobRetention < 0 {
		return
	}
	now := time.Now()
	p.sweepRetainedLocked(now)
	if p.cfg.JobRetentionAge > 0 {
		job.expires = now.Add(p.cfg.JobRetentionAge)
	}
	if _, ok := p.retained[job.ID]; !ok {
		p.retOrder = append(p.retOrder, job.ID)
	}
	p.retained[job.ID] = job
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
		job := p.retained[p.retOrder[0]]
		if job == nil {
			p.retOrder = p.retOrder[1:]
			continue
		}
		if job.expires.IsZero() || now.Before(job.expires) {
			return
		}
		delete(p.retained, p.retOrder[0])
		p.retOrder = p.retOrder[1:]
	}
}

// lookupCacheLocked returns a cache entry, moving it to the back of the
// eviction list; p.mu must be held.
func (p *Pool) lookupCacheLocked(key string) (*Result, bool) {
	e, ok := p.cache[key]
	if !ok {
		return nil, false
	}
	p.cacheList.MoveToBack(e.elem)
	return e.res, true
}

// storeLocked is the one cache insert; it reports whether it cached res.
// A degraded result is skipped: a partial failure is not a deterministic
// outcome, and serving it would poison every identical submission. While
// over capacity it evicts from the front of the eviction list, the
// least-recently-used entry. p.mu must be held.
func (p *Pool) storeLocked(key string, res *Result) bool {
	if p.cacheOff() {
		return false
	}
	if res.Degraded != "" {
		p.stats.CacheSkippedDegraded++
		return false
	}
	if e, ok := p.cache[key]; ok {
		e.res = res
		p.cacheList.MoveToBack(e.elem)
		return true
	}
	e := &cacheEntry{key: key, res: res}
	e.elem = p.cacheList.PushBack(e)
	p.cache[key] = e
	for len(p.cache) > p.cfg.CacheCap {
		front := p.cacheList.Front()
		victim := front.Value.(*cacheEntry)
		p.cacheList.Remove(front)
		delete(p.cache, victim.key)
	}
	return true
}

// cacheOff reports whether caching is disabled (CacheCap < 0): no memory
// entries, and no store reads or writes.
func (p *Pool) cacheOff() bool { return p.cfg.CacheCap < 0 }

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
	if ok {
		p.detachLocked(job)
	}
	return ok
}

// detachLocked settles one active waiter as canceled and, when it was its
// run's last waiter, aborts the run: a queued run is dropped when a worker
// pops it, a running one has its context canceled. p.mu must be held.
func (p *Pool) detachLocked(job *Job) {
	r := job.run
	r.waiters = slices.DeleteFunc(r.waiters, func(w *Job) bool { return w == job })
	p.settleLocked(job, StateCanceled, nil, context.Canceled, time.Now())
	p.stats.JobsCanceled++
	if len(r.waiters) == 0 {
		p.dropInflightLocked(r)
		if r.cancel != nil {
			r.cancel()
		}
	}
}

// dropInflightLocked removes a run from the dedup index, so the next
// identical submission starts a fresh run; p.mu must be held.
func (p *Pool) dropInflightLocked(r *run) {
	if p.inflight[r.key] == r {
		delete(p.inflight, r.key)
	}
}

// View snapshots a job for rendering: active jobs live, settled jobs from
// the retention ring until count or age evicts them.
func (p *Pool) View(id string) (JobView, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	job, ok := p.lookupLocked(id)
	if !ok {
		return JobView{}, false
	}
	return p.viewLocked(job), true
}

// lookupLocked finds a job by ID: the active table, then the retention
// ring, treating an age-expired entry as gone; p.mu must be held.
func (p *Pool) lookupLocked(id string) (*Job, bool) {
	if job, ok := p.jobs[id]; ok {
		return job, true
	}
	job, ok := p.retained[id]
	if !ok {
		return nil, false
	}
	if now := time.Now(); !job.expires.IsZero() && now.After(job.expires) {
		p.sweepRetainedLocked(now)
		return nil, false
	}
	return job, true
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
	return p.tieredLocked(hash)
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
	s.BlockTable = vm.SharedBlockStats()
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
	for _, job := range p.jobs {
		p.detachLocked(job)
	}
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
	p.hub.Close()
}
