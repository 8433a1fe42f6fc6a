// Command perfbench is the service-level benchmark: it starts farosd
// built from the checkout as a real subprocess, drives one traffic mix
// against it over loopback HTTP in a closed loop, checks every answer,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as a JSON object on the last line of standard output.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload hot_lookup --seed 3 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"faros/internal/pipeline"
)

// Set-up is repeated in two rounds, one before the timed phase and one
// after it, and the median over both rounds is reported. A round runs at
// least minSetups set-ups and until setupBudget of set-up time has
// accumulated, at most maxSetups. The machine's speed drifts over tens of
// seconds, so two rounds a phase apart sample it twice instead of once.
// The last fleet of the first round serves the timed phase.
const (
	minSetups   = 3
	maxSetups   = 60
	setupBudget = time.Second
)

// runDeadline bounds the whole run, set-up and timed phase included, so
// that perfbench always exits within 180 s. At --seconds 40 a timed phase
// takes about 41 s, so a program roughly 3.5 times slower runs past it:
// the run then fails without metrics instead of reporting the slowdown.
const runDeadline = 170 * time.Second

// minSamples keeps at least ten samples beyond p99 in every timed phase.
const minSamples = 1100

// phaseLen sizes a timed phase: whole passes covering dur at the
// workload's nominal rate, at least minSamples requests, and no more than
// the plan holds. Every run with the same duration does identical work;
// a slower program takes longer rather than doing less.
func phaseLen(pl plan, rate float64, dur time.Duration) int {
	want := max(int(rate*dur.Seconds()), minSamples)
	passes := (want + pl.pass - 1) / pl.pass
	return min(passes*pl.pass, pl.n)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: cold_detect, hot_lookup, trace_farm, fleet_detect")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 40, "nominal timed-phase length in seconds (sizes the request list)")
	traceMode := flag.Int("trace", 0, "1 = report per-layer metrics (adds the traced in-process run)")
	root := flag.String("root", ".", "checkout root; stores and span files go under <root>/.bench_build")
	farosd := flag.String("farosd", "", "farosd binary built from the checkout")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *farosd == "" || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -farosd, -seconds > 0, -trace 0|1, and -workload one of:", workloadNames())
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	c, err := newCorpus()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	conns := min(2, runtime.NumCPU())
	e := &env{
		seed:   *seed,
		corpus: c,
		conns:  conns,
		// At most conns keep-alive connections per node.
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	defer e.hc.CloseIdleConnections()
	runDir := filepath.Join(*root, ".bench_build", fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir)

	rep, err := measure(ctx, e, w, *farosd, runDir, time.Duration(*seconds*float64(time.Second)), *traceMode == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measure runs set-up, the timed phase, and the checks for one workload.
// In traced mode it then runs the in-process traced pass over the same
// inputs and reports per-layer metrics instead of end-to-end ones.
func measure(ctx context.Context, e *env, w workload, bin, runDir string, dur time.Duration, traced bool) (report, error) {
	if w.prepare != nil {
		if err := w.prepare(ctx, e); err != nil {
			return report{}, err
		}
	}
	// Set-up time is an end-to-end metric only; a traced run sets up once.
	setups, f, err := setUpRound(ctx, e, w, bin, filepath.Join(runDir, "pre"), true, traced)
	if err != nil {
		return report{}, err
	}
	ph, err := timedPhase(ctx, e, w, f, dur)
	var results map[string]*pipeline.Result
	if err == nil && traced && len(e.hashes) > 0 {
		results, err = fetchResults(ctx, e, f)
	}
	if stopErr := f.stop(); err == nil {
		err = stopErr
	}
	if err == nil && !traced {
		var post []float64
		post, _, err = setUpRound(ctx, e, w, bin, filepath.Join(runDir, "post"), false, false)
		setups = append(setups, post...)
	}
	if err != nil {
		return report{}, err
	}

	failed, msg := failures(ph.samples)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed: %s\n", failed, len(ph.samples), msg)
	}
	for _, m := range ph.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: counter cross-check:", m)
	}
	rep := report{
		Correct:   failed == 0 && len(ph.mismatches) == 0,
		Attempted: len(ph.samples),
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		endToEnd(rep.Metrics, ph, setups)
		return rep, nil
	}
	pipelineLayers(rep.Metrics, ph, w.nodes > 1)
	spanFile := filepath.Join(filepath.Dir(runDir), "spans-"+w.name+".json")
	tr, err := tracedPass(ctx, e, w, ph, results, filepath.Join(runDir, "traced"), spanFile)
	if err != nil {
		return report{}, fmt.Errorf("traced run: %w", err)
	}
	for k, v := range tr {
		rep.Metrics[k] = v
	}
	return rep, nil
}

// setUpRound starts the workload's fleet and runs its precondition
// repeatedly, as the set-up constants say, and returns each set-up's
// duration in seconds. With keep, the last fleet stays up and is returned;
// with once, the round is a single set-up.
func setUpRound(ctx context.Context, e *env, w workload, bin, dir string, keep, once bool) ([]float64, *fleet, error) {
	var setups []float64
	var total time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		f, err := startFleet(ctx, e.hc, bin, filepath.Join(dir, fmt.Sprintf("setup%d", i)), w.nodes, w.farosdArgs)
		if err == nil && w.precondition != nil {
			err = w.precondition(ctx, e, f)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		total += d
		last := once || i+1 == maxSetups || (i+1 >= minSetups && total >= setupBudget)
		if err == nil && last && keep {
			return setups, f, nil
		}
		if f != nil {
			if stopErr := f.stop(); err == nil {
				err = stopErr
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		if last {
			return setups, nil, nil
		}
	}
}

// phase is one timed phase: the client record plus server-side deltas.
type phase struct {
	phaseResult
	cpuTicks   uint64
	rssMB      float64
	delta      statsDelta
	mismatches []string
}

// statsDelta is the change in /stats over a timed phase, summed over the
// fleet unless noted.
type statsDelta struct {
	jobsDone, cacheHits, cacheMisses, coalesced uint64
	entryPuts, puts                             uint64 // store entries written: entry node, whole fleet
	storeOn                                     bool   // the entry node runs a result store
	blockHits, blockBuilt, fastBlocks           uint64
	prepends, prependHits, unions, unionHits    uint64
	shadowWrites                                uint64
	forwardedOut, backfills, ownerDown          uint64
}

func diffStats(before, after []pipeline.Stats) statsDelta {
	var d statsDelta
	for i := range after {
		a, b := after[i], before[i]
		d.jobsDone += a.JobsDone - b.JobsDone
		d.cacheHits += a.CacheHits - b.CacheHits
		d.cacheMisses += a.CacheMisses - b.CacheMisses
		d.coalesced += a.JobsCoalesced - b.JobsCoalesced
		puts := uint64(a.Store.Entries - b.Store.Entries)
		d.puts += puts
		if i == 0 {
			d.entryPuts = puts
			d.storeOn = a.StoreEnabled
		}
		d.blockHits += a.Block.Hits - b.Block.Hits
		d.blockBuilt += a.Block.Built - b.Block.Built
		d.fastBlocks += a.Block.UntaintedFastBlocks - b.Block.UntaintedFastBlocks
		d.prepends += a.Taint.Prepends - b.Taint.Prepends
		d.prependHits += a.Taint.PrependMemoHits - b.Taint.PrependMemoHits
		d.unions += a.Taint.Unions - b.Taint.Unions
		d.unionHits += a.Taint.UnionMemoHits - b.Taint.UnionMemoHits
		d.shadowWrites += a.Taint.ShadowWrites - b.Taint.ShadowWrites
		d.forwardedOut += a.Cluster.ForwardedOut - b.Cluster.ForwardedOut
		d.backfills += a.Cluster.Backfills - b.Cluster.Backfills
		d.ownerDown += a.Cluster.OwnerDownLocalRuns - b.Cluster.OwnerDownLocalRuns
	}
	return d
}

// crossCheck compares the /stats deltas with the client's own tally of
// what it sent.
func crossCheck(d statsDelta, ss []sample) []string {
	var executed, named, cold uint64
	for _, s := range ss {
		switch s.kind {
		case kindCold:
			cold++
			executed++
		case kindTrace:
			executed++
		case kindNamed:
			named++
		}
	}
	var out []string
	if d.jobsDone != executed {
		out = append(out, fmt.Sprintf("jobs_done moved %d, client sent %d executing requests", d.jobsDone, executed))
	}
	if d.cacheHits != named {
		out = append(out, fmt.Sprintf("cache_hits moved %d, client sent %d resubmits", d.cacheHits, named))
	}
	if d.storeOn && d.entryPuts != cold {
		out = append(out, fmt.Sprintf("store entries moved %d, client sent %d cold writes", d.entryPuts, cold))
	}
	return out
}

// timedPhase runs the workload's request list against a ready fleet and
// collects server CPU, peak RSS, and the /stats deltas.
func timedPhase(ctx context.Context, e *env, w workload, f *fleet, dur time.Duration) (phase, error) {
	c := &client{hc: e.hc, url: f.nodes[0].url, hashes: e.hashes, forwarded: ringForwarded(f)}
	before, err := f.settledStats(ctx, e.hc)
	if err != nil {
		return phase{}, err
	}
	cpu0, err := f.cpuTicks()
	if err != nil {
		return phase{}, err
	}
	pl := w.plan(e)
	ph := phase{phaseResult: runPhase(ctx, c, pl, phaseLen(pl, w.rate, dur), e.conns)}
	cpu1, err := f.cpuTicks()
	if err != nil {
		return phase{}, err
	}
	ph.cpuTicks = cpu1 - cpu0
	if ph.rssMB, err = f.peakRSSMB(); err != nil {
		return phase{}, err
	}
	after, err := f.settledStats(ctx, e.hc)
	if err != nil {
		return phase{}, err
	}
	ph.delta = diffStats(before, after)
	ph.mismatches = crossCheck(ph.delta, ph.samples)
	return ph, nil
}

// fetchResults reads every warmed result back as the pipeline's own
// Result type, for the traced pass's encode layers.
func fetchResults(ctx context.Context, e *env, f *fleet) (map[string]*pipeline.Result, error) {
	out := make(map[string]*pipeline.Result, len(e.hashes))
	for name, hash := range e.hashes {
		var res pipeline.Result
		status, err := getJSON(ctx, e.hc, f.nodes[0].url+"/results/"+hash, &res)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			return nil, fmt.Errorf("read back %s: %w", name, err)
		}
		out[name] = &res
	}
	return out, nil
}

// endToEnd fills the end-to-end metrics.
func endToEnd(m map[string]metric, ph phase, setups []float64) {
	n := float64(len(ph.samples))
	rtts := make([]time.Duration, len(ph.samples))
	for i, s := range ph.samples {
		rtts[i] = s.rtt
	}
	lat := ms(rtts)
	m["setup_s"] = metric{quantile(setups, 0.5), "s"}
	m["jobs_per_s"] = metric{n / ph.wall.Seconds(), "1/s"}
	m["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	m["cpu_ms_per_job"] = metric{float64(ph.cpuTicks) * 1000 / clockTicks / n, "ms"}
	m["peak_rss_mb"] = metric{ph.rssMB, "MB"}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pipelineLayers fills the per-layer metrics the e2e run itself yields:
// server-side spans from each JobView and the /stats deltas.
func pipelineLayers(m map[string]metric, ph phase, fleet bool) {
	var overhead, queue, runT, hop []time.Duration
	for _, s := range ph.samples {
		if !s.hasView || s.err != nil {
			continue
		}
		if s.forwarded {
			hop = append(hop, s.rtt-s.span)
		} else {
			overhead = append(overhead, s.rtt-s.span)
		}
		if s.executed {
			queue = append(queue, s.queue)
			runT = append(runT, s.run)
		}
	}
	m["pipeline.http_overhead_ms"] = metric{quantile(ms(overhead), 0.5), "ms"}
	m["pipeline.http_overhead_ms.p99"] = metric{quantile(ms(overhead), 0.99), "ms"}
	m["pipeline.queue_wait_ms"] = metric{quantile(ms(queue), 0.5), "ms"}
	m["pipeline.run_ms"] = metric{quantile(ms(runT), 0.5), "ms"}

	d := ph.delta
	failed, _ := failures(ph.samples)
	m["pipeline.error_rate"] = metric{float64(failed) / float64(len(ph.samples)), "fraction"}
	m["pipeline.cache_hit_ratio"] = metric{ratio(d.cacheHits, d.cacheHits+d.cacheMisses), "ratio"}
	m["pipeline.coalesced"] = metric{float64(d.coalesced), "count"}
	m["pipeline.jobs_done"] = metric{float64(d.jobsDone), "count"}
	m["pipeline.cache_hits"] = metric{float64(d.cacheHits), "count"}
	m["store.puts"] = metric{float64(d.puts), "count"}
	m["core.block_hit_rate"] = metric{ratio(d.blockHits, d.blockHits+d.blockBuilt), "ratio"}
	m["core.untainted_fast_blocks"] = metric{float64(d.fastBlocks), "count"}
	m["taint.prepend_hit_rate"] = metric{ratio(d.prependHits, d.prepends), "ratio"}
	m["taint.union_hit_rate"] = metric{ratio(d.unionHits, d.unions), "ratio"}
	m["taint.shadow_writes"] = metric{float64(d.shadowWrites), "count"}
	if fleet {
		// Only a fleet forwards; single-node workloads omit these.
		m["cluster.hop_overhead_ms"] = metric{quantile(ms(hop), 0.5), "ms"}
		m["cluster.forwarded_out"] = metric{float64(d.forwardedOut), "count"}
		m["cluster.backfill"] = metric{float64(d.backfills), "count"}
		m["cluster.owner_down_local_runs"] = metric{float64(d.ownerDown), "count"}
	}
}
