package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeProbe is a scriptable ProbeFunc: each peer URL answers with its
// configured error (nil = healthy).
type fakeProbe struct {
	mu   sync.Mutex
	errs map[string]error
	n    int
}

func (f *fakeProbe) set(url string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.errs == nil {
		f.errs = make(map[string]error)
	}
	f.errs[url] = err
}

func (f *fakeProbe) probe(_ context.Context, url string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	return f.errs[url]
}

func TestRegistryTransitions(t *testing.T) {
	fp := &fakeProbe{}
	fp.set("http://b", errors.New("connection refused"))
	r := NewRegistry(RegistryConfig{
		Peers: map[string]string{"a": "http://a", "b": "http://b"},
		Probe: fp.probe,
	})
	if r.Up("a") || r.Up("b") {
		t.Fatal("peers must report down before the first probe")
	}
	r.ProbeAll()
	if !r.Up("a") {
		t.Fatal("a probed healthy but reports down")
	}
	if r.Up("b") {
		t.Fatal("b probed unhealthy but reports up")
	}
	// b recovers; the next probe restores it.
	fp.set("http://b", nil)
	r.ProbeAll()
	if !r.Up("b") {
		t.Fatal("b recovered but reports down")
	}
	st := r.Status()
	if len(st) != 2 || st[0].Node != "a" || st[1].Node != "b" {
		t.Fatalf("Status() = %+v, want [a b] sorted", st)
	}
	if !st[0].Up || !st[1].Up || st[1].LastErr != "" {
		t.Fatalf("Status() after recovery = %+v", st)
	}
}

func TestRegistryMarkDown(t *testing.T) {
	fp := &fakeProbe{}
	r := NewRegistry(RegistryConfig{
		Peers: map[string]string{"a": "http://a"},
		Probe: fp.probe,
	})
	r.ProbeAll()
	if !r.Up("a") {
		t.Fatal("a should be up")
	}
	// A failed forward flips the peer down without waiting for a probe.
	r.MarkDown("a", "forward: connection reset")
	if r.Up("a") {
		t.Fatal("MarkDown must take effect immediately")
	}
	if st := r.Status(); st[0].LastErr != "forward: connection reset" {
		t.Fatalf("LastErr = %q", st[0].LastErr)
	}
	r.MarkDown("ghost", "no such peer") // unknown nodes are ignored
}

// TestRegistryBackoff pins the down-peer re-probe schedule: doubling from
// Interval, capped at MaxBackoff, each delay jittered into [d/2, d).
func TestRegistryBackoff(t *testing.T) {
	r := NewRegistry(RegistryConfig{
		Peers:      map[string]string{"a": "http://a"},
		Interval:   2 * time.Second,
		MaxBackoff: 10 * time.Second,
		Probe:      func(context.Context, string) error { return nil },
	})
	for failures, ideal := range map[int]time.Duration{
		1: 2 * time.Second,
		2: 4 * time.Second,
		3: 8 * time.Second,
		4: 10 * time.Second, // capped
		9: 10 * time.Second,
	} {
		for i := 0; i < 50; i++ { // jitter draws must all stay in-band
			d := r.backoff.Delay(failures - 1)
			if d < ideal/2 || d >= ideal {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v)", failures, d, ideal/2, ideal)
			}
		}
	}
}

// TestRegistryJitterDeterministic: same seed, same jitter stream — fleet
// behavior in tests and replays is reproducible.
func TestRegistryJitterDeterministic(t *testing.T) {
	mk := func() []time.Duration {
		r := NewRegistry(RegistryConfig{
			Peers: map[string]string{"a": "http://a"},
			Seed:  42,
			Probe: func(context.Context, string) error { return nil },
		})
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = r.backoff.Jitter(time.Second)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %v != %v with equal seeds", i, a[i], b[i])
		}
	}
}

// TestRegistryLoop smoke-tests the background loop end to end: a peer
// that starts down comes up once its probe starts succeeding.
func TestRegistryLoop(t *testing.T) {
	fp := &fakeProbe{}
	fp.set("http://a", errors.New("starting up"))
	r := NewRegistry(RegistryConfig{
		Peers:    map[string]string{"a": "http://a"},
		Interval: 20 * time.Millisecond,
		Probe:    fp.probe,
	})
	r.Start()
	defer r.Close()
	fp.set("http://a", nil)
	deadline := time.After(2 * time.Second)
	for !r.Up("a") {
		select {
		case <-deadline:
			t.Fatal("peer never came up")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestRegistryBackoffPinned pins the registry's first eight re-probe
// delays (after 1..8 failures) for its default seed and for a fixed one
// (2s doubling to 30s).
func TestRegistryBackoffPinned(t *testing.T) {
	for seed, want := range map[uint64][8]time.Duration{
		0:  {1989884762, 2114822145, 4781262129, 12149971591, 22258601393, 28346917120, 21625946644, 20354334627},
		42: {1755275413, 2126892291, 4462763858, 12258255764, 21141963250, 15662989062, 27777624925, 26987775908},
	} {
		r := NewRegistry(RegistryConfig{
			Peers: map[string]string{"a": "http://a"},
			Seed:  seed,
			Probe: func(context.Context, string) error { return nil },
		})
		for n, w := range want {
			if d := r.backoff.Delay(n); d != w {
				t.Errorf("seed %d: delay after %d failures = %d, want %d", seed, n+1, d, w)
			}
		}
	}
}
