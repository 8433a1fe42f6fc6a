package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/store"
)

// countingRunner counts real executions; restarts served from the store
// must never increment it.
func countingRunner(runs *atomic.Int64) Runner {
	return func(ctx context.Context, req Request) (*scenario.Result, error) {
		runs.Add(1)
		return stubResult(req.Spec.Name), nil
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// TestRestartServesFromStore is the zero-re-execution durability
// property: a fresh pool over the same store directory serves previously
// completed results from disk, bit-identical, without invoking the runner.
func TestRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	specs := []samples.Spec{samples.Spinner(1000), samples.Spinner(2000), samples.Spinner(3000)}

	var runs1 atomic.Int64
	p1 := mustNew(t, Config{Workers: 2, Store: openStore(t, dir), Runner: countingRunner(&runs1)})
	firstJSON := make(map[string]string)
	for _, spec := range specs {
		job, err := p1.Submit(Request{Spec: spec, Mode: ModeLive})
		if err != nil {
			t.Fatal(err)
		}
		view := waitState(t, p1, job, StateDone)
		raw, err := json.Marshal(view.Result)
		if err != nil {
			t.Fatal(err)
		}
		firstJSON[job.Hash] = string(raw)
	}
	if runs1.Load() != 3 {
		t.Fatalf("first pool ran %d jobs, want 3", runs1.Load())
	}
	p1.Close()

	// "Restart": new pool, new store handle, same directory.
	var runs2 atomic.Int64
	p2 := mustNew(t, Config{Workers: 2, Store: openStore(t, dir), Runner: countingRunner(&runs2)})
	defer p2.Close()
	for _, spec := range specs {
		job, err := p2.Submit(Request{Spec: spec, Mode: ModeLive})
		if err != nil {
			t.Fatal(err)
		}
		view := waitState(t, p2, job, StateDone)
		if !view.CacheHit {
			t.Fatalf("%s not served as a hit after restart", spec.Name)
		}
		raw, err := json.Marshal(view.Result)
		if err != nil {
			t.Fatal(err)
		}
		if want := firstJSON[job.Hash]; string(raw) != want {
			t.Fatalf("restart result for %s not bit-identical:\n got %s\nwant %s", spec.Name, raw, want)
		}
	}
	if runs2.Load() != 0 {
		t.Fatalf("restarted pool re-executed %d jobs, want 0", runs2.Load())
	}
	stats := p2.Stats()
	if !stats.StoreEnabled || stats.Store.Hits != 3 {
		t.Fatalf("store stats = %+v, want 3 hits", stats.Store)
	}

	// The second lookup of the same spec is a memory-cache hit — the
	// store is read through once, then promoted.
	job, err := p2.Submit(Request{Spec: specs[0], Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p2, job, StateDone)
	if got := p2.Stats().Store.Hits; got != 3 {
		t.Fatalf("store hits after promoted lookup = %d, want still 3", got)
	}
}

// TestResultByHashReadsThroughStore: GET /results/{hash} keeps answering
// across restarts.
func TestResultByHashReadsThroughStore(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	p1 := mustNew(t, Config{Workers: 1, Store: openStore(t, dir), Runner: countingRunner(&runs)})
	job, err := p1.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p1, job, StateDone)
	p1.Close()

	p2 := mustNew(t, Config{Workers: 1, Store: openStore(t, dir), Runner: countingRunner(&runs)})
	defer p2.Close()
	res, ok := p2.ResultByHash(job.Hash)
	if !ok {
		t.Fatal("ResultByHash missed after restart")
	}
	if res.Scenario != samples.Spinner(1000).Name {
		t.Fatalf("restored result = %+v", res)
	}
}

// writeCountingFS is the real filesystem with a count of the calls an
// atomic store write makes: one CreateTemp and one Rename per Put.
type writeCountingFS struct {
	store.OSFS
	creates, renames atomic.Int64
}

func (f *writeCountingFS) CreateTemp(dir, pattern string) (store.File, error) {
	f.creates.Add(1)
	return f.OSFS.CreateTemp(dir, pattern)
}

func (f *writeCountingFS) Rename(oldpath, newpath string) error {
	f.renames.Add(1)
	return f.OSFS.Rename(oldpath, newpath)
}

// TestBackfillStoredKeyWritesNothing: after a restart, a peer answer the
// local store already holds is promoted into memory, not written again.
// A backfill of an unstored key is the control: it writes once.
func TestBackfillStoredKeyWritesNothing(t *testing.T) {
	dir := t.TempDir()
	req := Request{Spec: samples.Spinner(1000), Mode: ModeLive}
	p1 := mustNew(t, Config{Workers: 1, Store: openStore(t, dir), Runner: blockingRunner(closedChan())})
	job, err := p1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	stored := waitState(t, p1, job, StateDone).Result
	p1.Close()

	fsys := &writeCountingFS{}
	st, err := store.Open(store.Config{Dir: dir, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	p2 := mustNew(t, Config{Workers: 1, Store: st, Runner: blockingRunner(closedChan())})
	defer p2.Close()
	if p2.Backfill(stored) {
		t.Error("Backfill took a key the store already holds")
	}
	if c, r := fsys.creates.Load(), fsys.renames.Load(); c != 0 || r != 0 {
		t.Errorf("Backfill of a stored key: %d CreateTemp, %d Rename; want 0, 0", c, r)
	}
	if _, ok := p2.CachedJob(req); !ok {
		t.Error("stored key not served after Backfill")
	}

	unstored := *stored
	unstored.Hash = cacheKey(Request{Spec: samples.Spinner(2000), Mode: ModeLive}, "")
	if !p2.Backfill(&unstored) {
		t.Fatal("Backfill refused an unstored key")
	}
	if c, r := fsys.creates.Load(), fsys.renames.Load(); c != 1 || r != 1 {
		t.Errorf("Backfill of an unstored key: %d CreateTemp, %d Rename; want 1, 1", c, r)
	}
}

// TestDegradedResultsNeverPersist: PR 4's cache policy extends to disk —
// a degraded (partial-failure) result must not survive a restart.
func TestDegradedResultsNeverPersist(t *testing.T) {
	dir := t.TempDir()
	degraded := func(ctx context.Context, req Request) (*scenario.Result, error) {
		res := stubResult(req.Spec.Name)
		res.Err = errors.New("recovered plugin panic: boom")
		return res, nil
	}
	p1 := mustNew(t, Config{Workers: 1, Store: openStore(t, dir), Runner: degraded})
	job, err := p1.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	view := waitState(t, p1, job, StateDone)
	if view.Result.Degraded == "" {
		t.Fatal("runner did not degrade the result")
	}
	p1.Close()

	var runs atomic.Int64
	p2 := mustNew(t, Config{Workers: 1, Store: openStore(t, dir), Runner: countingRunner(&runs)})
	defer p2.Close()
	job2, err := p2.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	view2 := waitState(t, p2, job2, StateDone)
	if view2.CacheHit {
		t.Fatal("degraded result was served from the store")
	}
	if runs.Load() != 1 {
		t.Fatalf("re-execution count = %d, want 1", runs.Load())
	}
	if view2.Result.Degraded != "" {
		t.Fatal("fresh run unexpectedly degraded")
	}
}

// TestStoreWriteFailureIsNonFatal: a store that cannot persist degrades
// farosd to memory-only service instead of failing jobs; the failure is
// visible through StoreErr (the /readyz surface).
func TestStoreWriteFailureIsNonFatal(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir() + "/sub", FS: failingFS{}})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	var runs atomic.Int64
	p := mustNew(t, Config{Workers: 1, Store: st, Runner: countingRunner(&runs)})
	defer p.Close()
	job, err := p.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	view := waitState(t, p, job, StateDone)
	if view.Error != "" {
		t.Fatalf("job failed on store error: %s", view.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.StoreErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("StoreErr never reported the write failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The memory cache still serves.
	job2, err := p.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	if view2 := waitState(t, p, job2, StateDone); !view2.CacheHit {
		t.Fatal("memory cache did not serve after store write failure")
	}
}

// failingFS accepts directory setup but fails every write.
type failingFS struct{ store.OSFS }

func (failingFS) CreateTemp(dir, pattern string) (store.File, error) {
	return nil, errors.New("injected: disk full")
}

// TestDrain: BeginDrain rejects new work with ErrDraining while letting
// in-flight jobs settle; Drain returns once they have.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	p := mustNew(t, Config{Workers: 1, Runner: blockingRunner(release)})
	defer p.Close()

	spec := samples.Spinner(1000)
	job, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	p.BeginDrain()
	if !p.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	if _, err := p.Submit(Request{Spec: samples.Spinner(2000), Mode: ModeLive}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- p.Drain(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Drain returned %v with a job still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitState(t, p, job, StateDone)

	// Cache hits still serve while draining: drained shutdown stays
	// read-only, not dead.
	hit, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if err != nil {
		t.Fatalf("cache-hit submit while draining: %v", err)
	}
	if view := waitState(t, p, hit, StateDone); !view.CacheHit {
		t.Fatal("draining pool did not serve from cache")
	}
}

// TestConfigValidation: nonsensical configs are rejected at construction
// with typed errors.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative workers", Config{Workers: -1}, "Workers"},
		{"negative queue", Config{QueueDepth: -4}, "QueueDepth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg)
			if err == nil {
				p.Close()
				t.Fatal("New accepted invalid config")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T is not *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %s, want %s", ce.Field, tc.field)
			}
		})
	}
	// Documented negative toggles stay valid.
	p, err := New(Config{JobTimeout: -1, CacheCap: -1, JobRetention: -1, JobRetentionAge: -1})
	if err != nil {
		t.Fatalf("New rejected documented negative toggles: %v", err)
	}
	p.Close()

	// Admission config validation.
	for _, bad := range []AdmissionConfig{
		{RatePerSec: -1},
		{Burst: -2},
		{ShedThreshold: 1.5},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("AdmissionConfig %+v validated", bad)
		}
	}
}
