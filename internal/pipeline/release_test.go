package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"faros/internal/samples"
)

// corpusRequests is a detect request for every built-in scenario (the 133
// the registry serves) and the six Table V applications.
func corpusRequests() []Request {
	var specs []samples.Spec
	specs = append(specs, samples.Attacks()...)
	specs = append(specs, samples.TransientReflective())
	specs = append(specs, samples.EvasionScenarios()...)
	specs = append(specs, samples.JITWorkloads()...)
	specs = append(specs, samples.BenignPrograms()...)
	specs = append(specs, samples.MalwareCorpus()...)
	for _, w := range samples.PerfWorkloads() {
		specs = append(specs, w.Spec)
	}
	reqs := make([]Request, len(specs))
	for i, spec := range specs {
		reqs[i] = Request{Spec: spec, Mode: ModeDetect}
	}
	return reqs
}

// waitAll submits every request, then waits for each in order and
// returns their results; a rejected submission or a failed job fails the
// test.
func waitAll(t *testing.T, p *Pool, reqs []Request) []*Result {
	t.Helper()
	jobs := make([]*Job, len(reqs))
	for i, req := range reqs {
		job, err := p.Submit(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Spec.Name, err)
		}
		jobs[i] = job
	}
	results := make([]*Result, len(reqs))
	for i, job := range jobs {
		view, err := p.Wait(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if view.Error != "" {
			t.Fatalf("%s: %s", view.Scenario, view.Error)
		}
		results[i] = view.Result
	}
	return results
}

// TestReleasedRunsDoNotAlias: a finished job's guest memory goes back to
// the pools while its summary stays in the cache, so nothing in a cached
// Result (findings, provenance graphs) may point into that memory. Cache
// the whole corpus, churn the pools with a second, uncached pass that
// reuses every released frame, shadow page and block page, and require
// each cached result to marshal byte-identically to before. The churn
// pass runs on recycled memory, so its results must match too (bar wall
// time and the cache key an uncached job lacks).
func TestReleasedRunsDoNotAlias(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus, twice")
	}
	p := mustNew(t, Config{Workers: 2})
	defer p.Close()
	ctx := context.Background()
	reqs := corpusRequests()
	results := waitAll(t, p, reqs)
	before := make([][]byte, len(results))
	flagged := 0
	for i, res := range results {
		var err error
		if before[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
		if res.Prov != nil {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no cached result carries a provenance graph")
	}

	churn := make([]Request, len(reqs))
	for i, req := range reqs {
		req.NoCache = true
		churn[i] = req
	}
	rerun := waitAll(t, p, churn)

	for i, req := range reqs {
		job, ok := p.CachedJob(req)
		if !ok {
			t.Fatalf("%s: not cached", req.Spec.Name)
		}
		view, err := p.Wait(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		after, err := json.Marshal(view.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before[i]) {
			t.Errorf("%s: cached result changed after the pools were reused:\nbefore: %s\nafter:  %s",
				req.Spec.Name, before[i], after)
		}
		again := *rerun[i]
		again.Hash, again.WallTime = results[i].Hash, results[i].WallTime
		if got, _ := json.Marshal(&again); !bytes.Equal(got, before[i]) {
			t.Errorf("%s: a run on recycled memory reports differently:\nfirst: %s\nrerun: %s",
				req.Spec.Name, before[i], got)
		}
	}
}
