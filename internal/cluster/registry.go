package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"faros/internal/pipeline/client"
)

// ProbeFunc checks one peer's health; nil error means the peer is up.
// The default implementation GETs <url>/readyz and requires a 200 — a
// draining or shedding peer answers 503 there and is treated as down for
// forwarding purposes, exactly as a load balancer would treat it.
type ProbeFunc func(ctx context.Context, url string) error

// PeerStatus is one peer's observed health.
type PeerStatus struct {
	Node      string
	URL       string
	Up        bool
	LastProbe time.Time
	LastErr   string
}

// peer is the registry's mutable per-peer state; Registry.mu guards it.
type peer struct {
	node      string
	url       string
	up        bool
	probed    bool // at least one probe completed
	failures  int  // consecutive failures, drives the re-probe backoff
	nextProbe time.Time
	lastProbe time.Time
	lastErr   string
}

// RegistryConfig tunes a Registry.
type RegistryConfig struct {
	// Peers maps node ID to base URL. Required non-empty.
	Peers map[string]string
	// Interval is the steady-state probe cadence for up peers
	// (default 2s).
	Interval time.Duration
	// MaxBackoff caps the down-peer re-probe backoff (default 30s). A
	// down peer re-probes at Interval, 2*Interval, ... up to this cap,
	// each delay jittered over [d/2, d) so a fleet that lost one node
	// does not re-probe it in lockstep.
	MaxBackoff time.Duration
	// ProbeTimeout bounds one probe request (default 2s).
	ProbeTimeout time.Duration
	// Probe overrides the health check (tests; default GET /readyz).
	Probe ProbeFunc
	// HTTP is the transport for the default probe (default: a dedicated
	// client honoring ProbeTimeout).
	HTTP *http.Client
	// Seed makes the jitter stream deterministic (0 = fixed default).
	Seed uint64
	// now overrides the clock (tests).
	now func() time.Time
}

// Registry tracks peer liveness: every peer starts down-but-unprobed, a
// background loop probes /readyz, and up/down transitions follow with
// jittered exponential re-probe backoff for down peers. Forwarding paths
// consult Up; failed forwards call MarkDown for an immediate state flip
// instead of waiting out the probe interval.
type Registry struct {
	cfg   RegistryConfig
	probe ProbeFunc
	now   func() time.Time

	mu      sync.Mutex
	peers   map[string]*peer
	backoff *client.Backoff // re-probe delays: Interval doubling to MaxBackoff

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewRegistry builds a registry over the peer set. Call Start to begin
// probing; until the first probe completes every peer reports down.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xFA405C10C1
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	probe := cfg.Probe
	if probe == nil {
		httpc := cfg.HTTP
		if httpc == nil {
			httpc = &http.Client{Timeout: cfg.ProbeTimeout}
		}
		probe = func(ctx context.Context, url string) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
			if err != nil {
				return err
			}
			resp, err := httpc.Do(req)
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("readyz: %s", resp.Status)
			}
			return nil
		}
	}
	r := &Registry{
		cfg:     cfg,
		probe:   probe,
		now:     cfg.now,
		peers:   make(map[string]*peer, len(cfg.Peers)),
		backoff: client.NewBackoff(cfg.Interval, cfg.MaxBackoff, cfg.Seed),
		stop:    make(chan struct{}),
	}
	for node, url := range cfg.Peers {
		r.peers[node] = &peer{node: node, url: url}
	}
	return r
}

// Start launches the probe loop. Idempotent.
func (r *Registry) Start() {
	r.once.Do(func() {
		r.wg.Add(1)
		go r.loop()
	})
}

// Close stops the probe loop and waits for it.
func (r *Registry) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
}

// loop wakes at a fraction of the probe interval and probes every peer
// whose next-probe time has passed. Probes run outside the lock.
func (r *Registry) loop() {
	defer r.wg.Done()
	tick := r.cfg.Interval / 8
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	r.ProbeAll() // immediate first pass: peers come up without waiting a full interval
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.probeDue()
		}
	}
}

// probeDue probes every peer whose nextProbe has passed.
func (r *Registry) probeDue() {
	now := r.now()
	r.mu.Lock()
	due := make([]*peer, 0, len(r.peers))
	for _, p := range r.peers {
		if !now.Before(p.nextProbe) {
			due = append(due, p)
		}
	}
	r.mu.Unlock()
	for _, p := range due {
		r.probeOne(p)
	}
}

// ProbeAll synchronously probes every peer once, regardless of schedule
// (startup, tests).
func (r *Registry) ProbeAll() {
	r.mu.Lock()
	all := make([]*peer, 0, len(r.peers))
	for _, p := range r.peers {
		all = append(all, p)
	}
	r.mu.Unlock()
	for _, p := range all {
		r.probeOne(p)
	}
}

// probeOne runs one health check and applies the up/down transition.
func (r *Registry) probeOne(p *peer) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	err := r.probe(ctx, p.url)
	cancel()
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	p.probed = true
	p.lastProbe = now
	if err == nil {
		p.up = true
		p.failures = 0
		p.lastErr = ""
		p.nextProbe = now.Add(r.backoff.Jitter(r.cfg.Interval))
		return
	}
	p.up = false
	p.failures++
	p.lastErr = err.Error()
	p.nextProbe = now.Add(r.backoff.Delay(p.failures - 1))
}

// Up reports whether a peer is currently healthy (false for unknown
// nodes and for peers not yet successfully probed).
func (r *Registry) Up(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.peers[node]
	return ok && p.up
}

// MarkDown flips a peer down immediately (a forward to it just failed)
// and schedules a prompt re-probe; the probe loop restores it once
// /readyz answers again.
func (r *Registry) MarkDown(node string, reason string) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.peers[node]
	if !ok {
		return
	}
	p.up = false
	p.probed = true
	p.failures++
	p.lastErr = reason
	p.lastProbe = now
	p.nextProbe = now.Add(r.backoff.Delay(p.failures - 1))
}

// Status snapshots every peer's health, sorted by node ID.
func (r *Registry) Status() []PeerStatus {
	r.mu.Lock()
	out := make([]PeerStatus, 0, len(r.peers))
	for _, p := range r.peers {
		out = append(out, PeerStatus{
			Node: p.node, URL: p.url, Up: p.up,
			LastProbe: p.lastProbe, LastErr: p.lastErr,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
