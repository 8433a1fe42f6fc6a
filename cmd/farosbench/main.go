// Command farosbench regenerates the paper's evaluation: every table and
// figure of §VI plus the ablations documented in DESIGN.md. The corpus
// sweeps run scenario.RunLiveContext in parallel, one scenario per core.
//
// Usage:
//
//	farosbench                      # run every experiment
//	farosbench -exp table3          # run one experiment
//	farosbench -exp table2,fig7     # run several (comma-separated)
//	farosbench -list                # list experiment names
//	farosbench -json                # machine-readable per-experiment results
//	farosbench -exp fig7 -prov-format json  # append the provenance graph
//	farosbench -server http://host:7373     # sweep the corpus remotely
//	farosbench -exp perf -cpuprofile cpu.out -memprofile mem.out  # profile
//
// A failing experiment does not abort the sweep: every experiment runs,
// and the exit code is non-zero if any of them failed.
//
// With -server, farosbench runs the corpus sweep against a remote farosd
// through the retrying client (internal/pipeline/client): submissions are
// idempotent by spec hash, so 429/503 back-pressure is retried with
// jittered backoff honoring Retry-After, and the sweep completes even
// against an overloaded or restarting server.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"faros/internal/experiments"
	"faros/internal/pipeline"
	"faros/internal/pipeline/client"
)

// expResult is one experiment's outcome in -json mode.
type expResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Output string `json:"output,omitempty"`
	Error  string `json:"error,omitempty"`
	WallMS int64  `json:"wall_ms"`
}

func main() {
	os.Exit(runRecovered())
}

// runRecovered keeps a buggy experiment from taking down the whole sweep
// with a goroutine dump; the failure is reported like any other error.
func runRecovered() (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "farosbench: internal error: %v\n", r)
			code = 2
		}
	}()
	return run()
}

func run() int {
	exp := flag.String("exp", "", "experiment(s) to run, comma-separated (default: all)")
	list := flag.Bool("list", false, "list experiment names")
	jsonOut := flag.Bool("json", false, "emit per-experiment results as JSON on stdout")
	provFormat := flag.String("prov-format", "text", "provenance graph rendering appended to table2/fig7-10 output: text (none), json, or dot")
	server := flag.String("server", "", "sweep the corpus against a remote farosd at this base URL instead of running locally")
	sweepConc := flag.Int("sweep-concurrency", 8, "concurrent submissions for the remote sweep")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the experiments finish")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "farosbench: cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "farosbench: cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "farosbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "farosbench: memprofile: %v\n", err)
			}
		}()
	}

	if *server != "" {
		return runRemote(*server, *sweepConc, *jsonOut)
	}

	if *list {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return 0
	}

	names := experiments.Names()
	if *exp != "" {
		names = nil
		for _, n := range strings.Split(*exp, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	results := make([]expResult, 0, len(names))
	failed := 0
	for _, name := range names {
		start := time.Now()
		out, err := experiments.RunWith(name, experiments.Options{ProvFormat: *provFormat})
		r := expResult{Name: name, OK: err == nil, Output: out,
			WallMS: time.Since(start).Milliseconds()}
		if err != nil {
			failed++
			r.Error = err.Error()
			fmt.Fprintf(os.Stderr, "farosbench: %s: %v\n", name, err)
		} else if !*jsonOut {
			fmt.Printf("==== %s ====\n%s\n", name, out)
		}
		results = append(results, r)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "farosbench: json: %v\n", err)
			return 2
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "farosbench: %d/%d experiments failed\n", failed, len(names))
		return 1
	}
	return 0
}

// sweepResult is one scenario's remote outcome.
type sweepResult struct {
	Scenario string `json:"scenario"`
	State    string `json:"state"`
	Flagged  bool   `json:"flagged"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error,omitempty"`
	WallMS   int64  `json:"wall_ms"`
}

// runRemote sweeps the server's whole scenario namespace through the
// retrying client: every scenario is submitted with wait=true, bounded by
// conc concurrent submissions; back-pressure (429/503) is retried with
// backoff, so the sweep converges even when the server sheds.
func runRemote(base string, conc int, jsonOut bool) int {
	if conc <= 0 {
		conc = 1
	}
	cli, err := client.New(client.Config{BaseURL: base})
	if err != nil {
		fmt.Fprintf(os.Stderr, "farosbench: %v\n", err)
		return 2
	}
	ctx := context.Background()
	names, err := cli.Scenarios(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "farosbench: listing scenarios: %v\n", err)
		return 2
	}
	sort.Strings(names)

	results := make([]sweepResult, len(names))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			view, err := cli.Analyze(ctx, pipeline.AnalyzeRequest{Scenario: name, Wait: true})
			r := sweepResult{Scenario: name, WallMS: time.Since(start).Milliseconds()}
			if err != nil {
				r.Error = err.Error()
			} else {
				r.State = string(view.State)
				r.CacheHit = view.CacheHit
				if view.Result != nil {
					r.Flagged = view.Result.Flagged
				}
				if view.Error != "" {
					r.Error = view.Error
				}
			}
			results[i] = r
		}()
	}
	wg.Wait()

	failed, flagged, cacheHits := 0, 0, 0
	for _, r := range results {
		if r.Error != "" || r.State != string(pipeline.StateDone) {
			failed++
		}
		if r.Flagged {
			flagged++
		}
		if r.CacheHit {
			cacheHits++
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "farosbench: json: %v\n", err)
			return 2
		}
	} else {
		for _, r := range results {
			status := r.State
			if r.Error != "" {
				status = "error: " + r.Error
			}
			hit := ""
			if r.CacheHit {
				hit = " (cache hit)"
			}
			fmt.Printf("%-40s %-8s flagged=%-5v %4dms%s\n", r.Scenario, status, r.Flagged, r.WallMS, hit)
		}
		fmt.Printf("remote sweep: %d scenarios, %d failed, %d flagged, %d cache hits\n",
			len(results), failed, flagged, cacheHits)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "farosbench: %d/%d remote submissions failed\n", failed, len(results))
		return 1
	}
	return 0
}
