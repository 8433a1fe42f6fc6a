package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"faros/internal/core"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// sweepRun is one live run of a corpus sweep: a spec and the plugins
// attached to it.
type sweepRun struct {
	spec    samples.Spec
	plugins scenario.Plugins
}

// runAll runs the corpus sweeps (Detection, Tables III/IV, the evasion
// matrix) in parallel, which is what gives farosbench parallel execution:
// runtime.GOMAXPROCS(0) goroutines take runs in turn and execute each as
// one live pass (scenario.RunLiveContext). The sweeps read the full
// scenario.Result (engine stats, kernel state, baseline reports), so they
// keep the guests a pipeline pool would release. Results keep the runs'
// order; like Pool.RunAll, the first error is returned only after every
// run has settled.
func runAll(runs []sweepRun) ([]*scenario.Result, error) {
	results := make([]*scenario.Result, len(runs))
	errs := make([]error, len(runs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(runs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runs) {
					return
				}
				results[i], errs[i] = scenario.RunLiveContext(context.Background(), runs[i].spec, runs[i].plugins, nil)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("%s: %w", runs[i].spec.Name, err)
		}
	}
	return results, nil
}

// detectAll runs the full analyst workflow (FAROS, Cuckoo, malfind and OSI
// in one live pass) on each spec concurrently.
func detectAll(specs []samples.Spec) ([]*scenario.Result, error) {
	runs := make([]sweepRun, len(specs))
	for i, spec := range specs {
		runs[i] = sweepRun{spec, scenario.DetectPlugins()}
	}
	return runAll(runs)
}

// liveAll runs a single live pass with FAROS under cfg on each spec
// concurrently.
func liveAll(specs []samples.Spec, cfg core.Config) ([]*scenario.Result, error) {
	runs := make([]sweepRun, len(specs))
	for i, spec := range specs {
		runs[i] = sweepRun{spec, scenario.Plugins{Faros: &cfg}}
	}
	return runAll(runs)
}
