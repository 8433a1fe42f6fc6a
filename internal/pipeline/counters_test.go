package pipeline

import (
	"testing"

	"faros/internal/samples"
)

// tierCounters is the slice of Stats a result lookup may move.
type tierCounters struct {
	CacheHits, CacheMisses, StoreHits, Coalesced, Backfills uint64
}

func tierCountersOf(s Stats) tierCounters {
	return tierCounters{
		CacheHits:   s.CacheHits,
		CacheMisses: s.CacheMisses,
		StoreHits:   s.Store.Hits,
		Coalesced:   s.JobsCoalesced,
		Backfills:   s.Cluster.Backfills,
	}
}

func (c tierCounters) minus(o tierCounters) tierCounters {
	return tierCounters{
		CacheHits:   c.CacheHits - o.CacheHits,
		CacheMisses: c.CacheMisses - o.CacheMisses,
		StoreHits:   c.StoreHits - o.StoreHits,
		Coalesced:   c.Coalesced - o.Coalesced,
		Backfills:   c.Backfills - o.Backfills,
	}
}

// TestTierCounters pins which counters each keyed entry point moves
// against each place a key's result can be: the memory cache, the
// persistent store only (a restarted pool), an in-flight run, nowhere,
// and a pool with caching disabled over a store an earlier pool filled. A hit from either tier
// through Submit or CachedJob counts as a cache hit; ResultByHash counts
// none of its own, Backfill writes nothing a tier already holds, and a
// disabled cache never reads the store.
func TestTierCounters(t *testing.T) {
	req := Request{Spec: samples.Spinner(1000), Mode: ModeLive}
	key := cacheKey(req, "")

	// fill runs req to completion on a fresh pool over dir and closes it.
	fill := func(t *testing.T, dir string) {
		p := mustNew(t, Config{Workers: 1, Store: openStore(t, dir), Runner: blockingRunner(closedChan())})
		job, err := p.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, p, job, StateDone)
		p.Close()
	}
	states := []struct {
		name  string
		setup func(t *testing.T) *Pool
	}{
		{"memory", func(t *testing.T) *Pool {
			p := mustNew(t, Config{Workers: 1, Store: openStore(t, t.TempDir()), Runner: blockingRunner(closedChan())})
			job, err := p.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, p, job, StateDone)
			return p
		}},
		{"store", func(t *testing.T) *Pool {
			dir := t.TempDir()
			fill(t, dir)
			return mustNew(t, Config{Workers: 1, Store: openStore(t, dir), Runner: blockingRunner(closedChan())})
		}},
		{"inflight", func(t *testing.T) *Pool {
			release := make(chan struct{})
			t.Cleanup(func() { close(release) })
			p := mustNew(t, Config{Workers: 1, Store: openStore(t, t.TempDir()), Runner: blockingRunner(release)})
			if _, err := p.Submit(req); err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"miss", func(t *testing.T) *Pool {
			return mustNew(t, Config{Workers: 1, Store: openStore(t, t.TempDir()), Runner: blockingRunner(closedChan())})
		}},
		{"disabled", func(t *testing.T) *Pool {
			dir := t.TempDir()
			fill(t, dir)
			return mustNew(t, Config{Workers: 1, CacheCap: -1, Store: openStore(t, dir), Runner: blockingRunner(closedChan())})
		}},
	}
	// Each op reports whether the pool answered it from a result tier
	// (Backfill: whether it took the result).
	ops := []struct {
		name string
		do   func(t *testing.T, p *Pool) bool
	}{
		{"Submit", func(t *testing.T, p *Pool) bool {
			job, err := p.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			view, _ := p.View(job.ID)
			return view.CacheHit
		}},
		{"CachedJob", func(t *testing.T, p *Pool) bool {
			_, ok := p.CachedJob(req)
			return ok
		}},
		{"ResultByHash", func(t *testing.T, p *Pool) bool {
			_, ok := p.ResultByHash(key)
			return ok
		}},
		{"Backfill", func(t *testing.T, p *Pool) bool {
			return p.Backfill(&Result{Hash: key, Scenario: req.Spec.Name, Mode: req.Mode, Instructions: 1000})
		}},
	}
	type want struct {
		ok bool
		c  tierCounters
	}
	table := map[string]map[string]want{
		"Submit": {
			"memory":   {true, tierCounters{CacheHits: 1}},
			"store":    {true, tierCounters{CacheHits: 1, StoreHits: 1}},
			"inflight": {false, tierCounters{Coalesced: 1}},
			"miss":     {false, tierCounters{CacheMisses: 1}},
			"disabled": {false, tierCounters{CacheMisses: 1}},
		},
		"CachedJob": {
			"memory":   {true, tierCounters{CacheHits: 1}},
			"store":    {true, tierCounters{CacheHits: 1, StoreHits: 1}},
			"inflight": {false, tierCounters{}},
			"miss":     {false, tierCounters{}},
			"disabled": {false, tierCounters{}},
		},
		"ResultByHash": {
			"memory":   {true, tierCounters{}},
			"store":    {true, tierCounters{StoreHits: 1}},
			"inflight": {false, tierCounters{}},
			"miss":     {false, tierCounters{}},
			"disabled": {false, tierCounters{}},
		},
		"Backfill": {
			"memory":   {false, tierCounters{}},
			"store":    {false, tierCounters{StoreHits: 1}},
			"inflight": {true, tierCounters{Backfills: 1}},
			"miss":     {true, tierCounters{Backfills: 1}},
			"disabled": {false, tierCounters{}},
		},
	}
	for _, op := range ops {
		for _, st := range states {
			t.Run(op.name+"/"+st.name, func(t *testing.T) {
				p := st.setup(t)
				defer p.Close()
				before := tierCountersOf(p.Stats())
				ok := op.do(t, p)
				got := want{ok, tierCountersOf(p.Stats()).minus(before)}
				if w := table[op.name][st.name]; got != w {
					t.Errorf("got ok=%v %+v, want ok=%v %+v", got.ok, got.c, w.ok, w.c)
				}
			})
		}
	}
}

// closedChan returns a closed channel: a blockingRunner over it returns at
// once.
func closedChan() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}

// TestCoalescedSubmitSkipsStore pins Submit's order: the in-flight index
// answers before either result tier, so a coalesced submission never asks
// the store (whose lock a concurrent Put holds through its fsync).
func TestCoalescedSubmitSkipsStore(t *testing.T) {
	req := Request{Spec: samples.Spinner(1000), Mode: ModeLive}
	release := make(chan struct{})
	defer close(release)
	p := mustNew(t, Config{Workers: 1, Store: openStore(t, t.TempDir()), Runner: blockingRunner(release)})
	defer p.Close()
	if _, err := p.Submit(req); err != nil {
		t.Fatal(err)
	}
	before := p.Stats().Store
	if _, err := p.Submit(req); err != nil {
		t.Fatal(err)
	}
	after := p.Stats().Store
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("coalesced Submit read the store: hits %d→%d, misses %d→%d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if got := p.Stats().JobsCoalesced; got != 1 {
		t.Errorf("JobsCoalesced = %d, want 1", got)
	}
}
