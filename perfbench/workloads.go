package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"faros/internal/cluster"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// env is the state one benchmark invocation shares across its phases.
type env struct {
	seed   uint64
	corpus *corpus
	hc     *http.Client
	conns  int

	// Filled by a workload's prepare step (before any timing): recorded
	// traces for trace_farm.
	traces []recordedTrace
	// Filled by a workload's precondition (timed as set-up): the cache
	// keys of the warmed scenarios, for hot_lookup.
	hashes map[string]string
}

// recordedTrace is one trace recorded by the benchmark itself and the
// spec it was recorded from.
type recordedTrace struct {
	spec   samples.Spec
	data   []byte
	digest string
}

// workload is one traffic mix.
type workload struct {
	name string
	// nodes is the fleet size; farosdArgs are extra flags for every node,
	// run from its own directory.
	nodes      int
	farosdArgs []string
	// prepare builds generator-side inputs before any timing.
	prepare func(ctx context.Context, e *env) error
	// precondition runs against a ready fleet and counts as set-up.
	precondition func(ctx context.Context, e *env, f *fleet) error
	// plan is the workload's request list; rate, in requests per second,
	// is the nominal speed that sizes the timed phase's prefix of it.
	plan func(e *env) plan
	rate float64
	// tracedPasses is how many leading passes the traced run replays.
	tracedPasses int
	// rttCoverage measures trace.coverage against the client round trip
	// instead of the server's run span, for mixes where most requests
	// never run.
	rttCoverage bool
}

// Passes per request list; a timed phase uses a prefix of whole passes.
const (
	coldPasses  = 400
	tracePasses = 2000
)

var workloads = []workload{
	{
		name:         "cold_detect",
		nodes:        1,
		rate:         600,
		tracedPasses: 1,
		plan: func(e *env) plan {
			return coldPlan(append(append([]baseSpec(nil), e.corpus.named...), e.corpus.perf...), e.seed, coldPasses)
		},
	},
	{
		name:         "hot_lookup",
		nodes:        1,
		rate:         450,
		farosdArgs:   []string{"-store-dir", "store"},
		precondition: warmNamed,
		tracedPasses: 10,
		rttCoverage:  true,
		plan: func(e *env) plan {
			return hotPlan(e.corpus.named, e.corpus.perf[0], e.seed)
		},
	},
	{
		name:         "trace_farm",
		nodes:        1,
		rate:         100,
		farosdArgs:   []string{"-trace-dir", "traces"},
		prepare:      recordTraces,
		precondition: uploadTraces,
		tracedPasses: 2,
		plan: func(e *env) plan {
			targets := make([]traceTarget, len(e.traces))
			for i, t := range e.traces {
				targets[i] = traceTarget{digest: t.digest, spec: t.spec}
			}
			return tracePlan(targets, e.seed, tracePasses)
		},
	},
	{
		name:         "fleet_detect",
		nodes:        2,
		rate:         1000,
		farosdArgs:   []string{"-workers", "1"},
		tracedPasses: 1,
		plan: func(e *env) plan {
			return coldPlan(e.corpus.fleetSubset(), e.seed, coldPasses)
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warmNamed submits every named scenario once, checking each verdict and
// recording the cache key farosd files it under.
func warmNamed(ctx context.Context, e *env, f *fleet) error {
	named := e.corpus.named
	hashes := make([]string, len(named))
	errs := make([]error, len(named))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < e.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(named) {
					return
				}
				hashes[i], errs[i] = warmOne(ctx, e.hc, f.nodes[0].url, named[i].spec)
			}
		}()
	}
	wg.Wait()
	e.hashes = make(map[string]string, len(named))
	for i, b := range named {
		if errs[i] != nil {
			return fmt.Errorf("warm %s: %w", b.spec.Name, errs[i])
		}
		e.hashes[b.spec.Name] = hashes[i]
	}
	return nil
}

func warmOne(ctx context.Context, hc *http.Client, url string, spec samples.Spec) (string, error) {
	body := []byte(fmt.Sprintf(`{"scenario":%q,"wait":true}`, spec.Name))
	status, out, err := post(ctx, hc, url+"/analyze", "application/json", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("status %d: %.200s", status, out)
	}
	var v jobView
	if err := json.Unmarshal(out, &v); err != nil {
		return "", err
	}
	req := request{expectFlag: spec.ExpectFlag, expectRule: spec.ExpectRule}
	if err := checkVerdict(req, v.Result); err != nil {
		return "", err
	}
	return v.Hash, nil
}

// recordTraces records the six Table V apps and the six attacks with the
// engine's own recorder; farosd later replays them.
func recordTraces(ctx context.Context, e *env) error {
	specs := samples.Attacks()
	for _, w := range samples.PerfWorkloads() {
		specs = append(specs, w.Spec)
	}
	e.traces = e.traces[:0]
	for _, s := range specs {
		data, digest, _, err := scenario.RecordTrace(ctx, s, nil)
		if err != nil {
			return fmt.Errorf("record %s: %w", s.Name, err)
		}
		e.traces = append(e.traces, recordedTrace{spec: s, data: data, digest: digest})
	}
	sort.Slice(e.traces, func(i, j int) bool { return e.traces[i].spec.Name < e.traces[j].spec.Name })
	return nil
}

// uploadTraces stores every recorded trace in farosd.
func uploadTraces(ctx context.Context, e *env, f *fleet) error {
	for _, t := range e.traces {
		status, out, err := post(ctx, e.hc, f.nodes[0].url+"/traces", "application/octet-stream", t.data)
		if err != nil {
			return fmt.Errorf("upload %s: %w", t.spec.Name, err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("upload %s: status %d: %.200s", t.spec.Name, status, out)
		}
	}
	return nil
}

// ringForwarded classifies shard keys the way the fleet's ring does: true
// when the owner is not the entry node.
func ringForwarded(f *fleet) func(string) bool {
	if len(f.nodes) < 2 {
		return nil
	}
	ids := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		ids[i] = n.id
	}
	ring := cluster.NewRing(ids, 0)
	entry := f.nodes[0].id
	return func(shard string) bool { return ring.Owner(shard) != entry }
}
