package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"faros/internal/core"
	"faros/internal/pipeline"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// runAll runs the corpus sweeps (Detection, Tables III/IV, the evasion
// matrix) in parallel, which is what gives farosbench parallel execution:
// runtime.GOMAXPROCS(0) goroutines take requests in turn and run each
// through the pipeline's default runner, so mode dispatch matches
// cmd/farosd's. The sweeps read the full scenario.Result (engine stats,
// kernel state), which a pipeline pool releases once it has built its
// summary, so they bypass the pool and its cache. Results keep the
// requests' order; like Pool.RunAll, the first error is returned only
// after every request has settled.
func runAll(reqs []pipeline.Request) ([]*scenario.Result, error) {
	runner := pipeline.DefaultRunner(nil)
	results := make([]*scenario.Result, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(reqs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				results[i], errs[i] = runner(context.Background(), reqs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("%s: %w", reqs[i].Spec.Name, err)
		}
	}
	return results, nil
}

// detectAll runs the full analyst workflow (FAROS, Cuckoo, malfind and OSI
// in one live pass) on each spec concurrently.
func detectAll(specs []samples.Spec) ([]*scenario.Result, error) {
	reqs := make([]pipeline.Request, len(specs))
	for i, spec := range specs {
		reqs[i] = pipeline.Request{Spec: spec, Mode: pipeline.ModeDetect}
	}
	return runAll(reqs)
}

// liveAll runs a single live pass with cfg on each spec concurrently.
func liveAll(specs []samples.Spec, cfg core.Config) ([]*scenario.Result, error) {
	reqs := make([]pipeline.Request, len(specs))
	for i, spec := range specs {
		reqs[i] = pipeline.Request{Spec: spec, Mode: pipeline.ModeLive, Config: cfg}
	}
	return runAll(reqs)
}
