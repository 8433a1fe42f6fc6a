package pipeline

import (
	"math"
	"net"
	"sync"
	"time"
)

// AdmissionConfig tunes the HTTP front door: per-client token-bucket rate
// limits and queue-depth load shedding. The zero value admits everything
// except when the queue passes the default shed threshold.
type AdmissionConfig struct {
	// RatePerSec is the sustained per-client submission rate (0 =
	// unlimited). Clients are keyed by remote address.
	RatePerSec float64
	// Burst is the token-bucket size (default: RatePerSec rounded up, at
	// least 1).
	Burst int
	// ShedThreshold is the queue saturation (fraction of queue capacity)
	// at which new work is shed with 429 and service degrades to
	// cached/stored results only. 0 = default 0.9; negative disables
	// shedding (the hard ErrQueueFull backstop still applies).
	ShedThreshold float64

	// now overrides the clock (tests).
	now func() time.Time
}

// Validate rejects nonsensical admission settings with typed errors.
func (a AdmissionConfig) Validate() error {
	if a.RatePerSec < 0 {
		return &ConfigError{"RatePerSec", a.RatePerSec, "rate limit cannot be negative (0 = unlimited)"}
	}
	if a.Burst < 0 {
		return &ConfigError{"Burst", a.Burst, "burst cannot be negative (0 = derived from rate)"}
	}
	if a.ShedThreshold > 1 {
		return &ConfigError{"ShedThreshold", a.ShedThreshold, "shed threshold is a fraction of queue capacity (0..1; negative disables)"}
	}
	return nil
}

// bucket is one client's token bucket; admission.mu guards it.
type bucket struct {
	tokens float64
	last   time.Time
}

// admission is the runtime state behind AdmissionConfig.
type admission struct {
	cfg   AdmissionConfig
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

// shedRetryAfter is the Retry-After hint on shed, queue-full and draining
// responses. Rate-limit rejections compute their own hint from the
// bucket's refill time.
const shedRetryAfter = time.Second

// maxBuckets bounds the per-client map; when exceeded, saturated (idle)
// buckets are swept — an idle client's bucket is indistinguishable from a
// fresh one.
const maxBuckets = 4096

func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.ShedThreshold == 0 {
		cfg.ShedThreshold = 0.9
	}
	burst := float64(cfg.Burst)
	if burst == 0 {
		burst = math.Max(1, math.Ceil(cfg.RatePerSec))
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	return &admission{cfg: cfg, burst: burst, now: now, buckets: make(map[string]*bucket)}
}

// clientKey reduces a request's remote address to its host, so every
// connection from one client shares a bucket regardless of source port.
func clientKey(remoteAddr string) string {
	if host, _, err := net.SplitHostPort(remoteAddr); err == nil {
		return host
	}
	return remoteAddr
}

// allow makes one rate-limit decision for a client. When denied, the
// returned duration is how long until the bucket refills one token — the
// Retry-After hint.
func (a *admission) allow(client string) (bool, time.Duration) {
	if a.cfg.RatePerSec <= 0 {
		return true, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	b, ok := a.buckets[client]
	if !ok {
		if len(a.buckets) >= maxBuckets {
			a.sweepLocked(now)
		}
		b = &bucket{tokens: a.burst, last: now}
		a.buckets[client] = b
	}
	b.tokens = math.Min(a.burst, b.tokens+now.Sub(b.last).Seconds()*a.cfg.RatePerSec)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / a.cfg.RatePerSec * float64(time.Second))
	return false, wait
}

// sweepLocked drops full (idle) buckets; a.mu must be held. Each bucket
// is refilled by its elapsed idle time before the fullness test — tokens
// are only materialized when a client next calls allow, so a bucket that
// was drained and then abandoned sits at stale near-zero tokens forever.
// Without the refill such buckets are never evictable and the map grows
// past maxBuckets under client churn (one once-limited client per
// address pins one bucket each).
func (a *admission) sweepLocked(now time.Time) {
	for client, b := range a.buckets {
		tokens := math.Min(a.burst, b.tokens+now.Sub(b.last).Seconds()*a.cfg.RatePerSec)
		if tokens >= a.burst {
			delete(a.buckets, client)
		}
	}
}

// shedding reports whether the pool's queue is past the shed threshold.
func (a *admission) shedding(p *Pool) bool {
	if a.cfg.ShedThreshold < 0 {
		return false
	}
	return p.QueueSaturation() >= a.cfg.ShedThreshold
}
