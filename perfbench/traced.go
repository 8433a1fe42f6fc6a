package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"faros"
	"faros/internal/cluster"
	"faros/internal/core"
	"faros/internal/guest"
	"faros/internal/pipeline"
	"faros/internal/provgraph"
	"faros/internal/record"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/store"
	"faros/internal/trace"
	"faros/internal/triage"
)

// span is one timed layer call. Spans of one request share Job; Parent is
// the index of the enclosing span in the span list, -1 for a request root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Allocs uint64 `json:"allocs,omitempty"`
}

// tracer keeps spans in memory. With on false every call runs unwrapped,
// which is how the untraced comparison loop measures tracing overhead.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, job int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Job: job})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = time.Since(t.t0).Nanoseconds()
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, job int, fn func() error) error {
	i := t.begin(name, parent, job)
	err := fn()
	t.end(i)
	return err
}

// doAllocs runs fn inside a span that also records the mallocs it made.
func (t *tracer) doAllocs(name string, parent, job int, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	i := t.begin(name, parent, job)
	err := fn()
	t.end(i)
	runtime.ReadMemStats(&after)
	if i >= 0 {
		t.spans[i].Allocs = after.Mallocs - before.Mallocs
	}
	return err
}

// durations returns the durations, in ms, of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// byJob maps job -> summed duration in ms of the spans with this name.
func (t *tracer) byJob(name string) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Job] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// childSum is the summed duration in ms of every span whose parent is a
// span with this name.
func (t *tracer) childSum(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == name {
			sum += float64(s.End-s.Start) / 1e6
		}
	}
	return sum
}

// tracedRun holds what the layer calls share.
type tracedRun struct {
	ctx     context.Context
	t       *tracer
	policy  *triage.Policy
	store   *store.Store
	results map[string]*pipeline.Result // hot_lookup: warmed results by scenario
}

// detectPlugins is what scenario.DetectContext attaches to its replay.
func detectPlugins() scenario.Plugins {
	return scenario.Plugins{Faros: &core.Config{}, Cuckoo: true, Malfind: true, OSI: true}
}

// toResult mirrors farosd's result building and triage scoring.
func (tr *tracedRun) toResult(hash string, mode pipeline.Mode, res *scenario.Result, parent, job int) *pipeline.Result {
	out := &pipeline.Result{
		Hash:         hash,
		Scenario:     res.Name,
		Mode:         mode,
		Flagged:      res.Flagged(),
		Instructions: res.Summary.Instructions,
		WallTime:     res.WallTime,
	}
	for _, f := range res.Findings() {
		out.Findings = append(out.Findings, pipeline.Finding{Rule: f.Rule, Process: f.ProcName, PID: f.PID, API: f.ResolvedAPI, Prov: f.Prov})
	}
	if out.Flagged {
		out.Prov = res.ProvGraph()
	}
	var scores []triage.Score
	for i := range out.Findings {
		f := &out.Findings[i]
		_ = tr.t.do("triage.score", parent, job, func() error {
			a := tr.policy.ScoreFinding(f.Rule, f.Prov)
			f.Risk, f.RiskRule = a.Score.String(), a.Rule
			scores = append(scores, a.Score)
			return nil
		})
	}
	out.Risk = triage.Aggregate(scores...).String()
	out.RiskPolicy = tr.policy.Hash()
	return out
}

// verdict checks a traced run's result against the spec.
func verdict(spec samples.Spec, res *pipeline.Result) error {
	rv := &resultView{Hash: res.Hash, Flagged: res.Flagged}
	for _, f := range res.Findings {
		rv.Findings = append(rv.Findings, struct {
			Rule string `json:"rule"`
		}{f.Rule})
	}
	if err := checkVerdict(request{expectFlag: spec.ExpectFlag, expectRule: spec.ExpectRule}, rv); err != nil {
		return fmt.Errorf("%s: %w", spec.Name, err)
	}
	return nil
}

// coldJob is farosd's path for a by-spec detect submission: decode, hash,
// record, replay with every detect plugin, score, encode, persist. The
// spans under pipeline.run are the ones inside the server's run span.
func (tr *tracedRun) coldJob(job int, req request) (samples.Spec, *record.Log, error) {
	var ar pipeline.AnalyzeRequest
	if err := json.Unmarshal(req.body, &ar); err != nil {
		return samples.Spec{}, nil, err
	}
	t := tr.t
	root := t.begin("request", -1, job)
	defer t.end(root)
	var spec samples.Spec
	if err := t.do("samples.spec_decode", root, job, func() (err error) {
		spec, err = samples.UnmarshalSpec(ar.Spec)
		return err
	}); err != nil {
		return spec, nil, err
	}
	if err := t.do("samples.spec_hash", root, job, func() error {
		_, err := samples.SpecHash(spec)
		return err
	}); err != nil {
		return spec, nil, err
	}
	run := t.begin("pipeline.run", root, job)
	var log *record.Log
	if err := t.do("scenario.record", run, job, func() (err error) {
		log, _, err = scenario.RecordContext(tr.ctx, spec, nil)
		return err
	}); err != nil {
		return spec, nil, err
	}
	var res *scenario.Result
	if err := t.do("replay.detect", run, job, func() (err error) {
		res, err = scenario.ReplayContext(tr.ctx, spec, log, detectPlugins(), nil)
		return err
	}); err != nil {
		return spec, nil, err
	}
	result := tr.toResult(req.shard, pipeline.ModeDetect, res, run, job)
	t.end(run)
	if err := verdict(spec, result); err != nil {
		return spec, nil, err
	}
	var payload []byte
	if err := t.do("pipeline.result_encode", root, job, func() (err error) {
		payload, err = json.Marshal(result)
		return err
	}); err != nil {
		return spec, nil, err
	}
	return spec, log, t.do("store.put", root, job, func() error { return tr.store.Put(req.shard, payload) })
}

// traceJob is farosd's path for a ModeTrace job: analysis-only replay of
// stored trace bytes, then result encoding (no store write: no_cache).
func (tr *tracedRun) traceJob(job int, rt recordedTrace) error {
	t := tr.t
	root := t.begin("request", -1, job)
	defer t.end(root)
	run := t.begin("pipeline.run", root, job)
	var res *scenario.Result
	err := t.do("trace.replay", run, job, func() (err error) {
		res, err = scenario.ReplayTraceContext(tr.ctx, rt.data, scenario.Plugins{Faros: &core.Config{}})
		return err
	})
	if err != nil {
		t.end(run)
		return err
	}
	result := tr.toResult("", pipeline.ModeTrace, res, run, job)
	t.end(run)
	if err := verdict(rt.spec, result); err != nil {
		return err
	}
	return t.do("pipeline.result_encode", root, job, func() error {
		_, err := json.Marshal(result)
		return err
	})
}

// hotJob is farosd's path for a hot_lookup request other than a cold
// write: resolve and hash for resubmits, encoding for reads.
func (tr *tracedRun) hotJob(job int, req request) error {
	t := tr.t
	root := t.begin("request", -1, job)
	defer t.end(root)
	res, ok := tr.results[req.target]
	if !ok {
		return fmt.Errorf("no warmed result for %s", req.target)
	}
	switch req.kind {
	case kindNamed:
		var spec samples.Spec
		if err := t.doAllocs("samples.resolve", root, job, func() error {
			var ok bool
			if spec, ok = faros.Scenarios()[req.target]; !ok {
				return fmt.Errorf("unknown scenario %s", req.target)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := t.do("samples.spec_hash", root, job, func() error {
			_, err := samples.SpecHash(spec)
			return err
		}); err != nil {
			return err
		}
		fallthrough
	case kindResult:
		return t.do("pipeline.result_encode", root, job, func() error {
			_, err := json.Marshal(res)
			return err
		})
	case kindProv:
		g := res.Prov
		if g == nil {
			g = provgraph.Merge()
		}
		return t.do("provgraph.encode", root, job, func() error {
			_, err := g.Encode("json")
			return err
		})
	}
	return fmt.Errorf("unexpected %s request in the hot path", req.kind)
}

// decompose times every layer of one recorded execution off the server
// path, so each layer metric is measured on every workload's own inputs:
// scenario resolution (for built-in names), the spec codec, kernel boot,
// plain, FAROS-only (with its mallocs) and detect replays, provenance and
// result encoding, the trace codec and trace replay, and a store write.
func (tr *tracedRun) decompose(job int, spec samples.Spec, log *record.Log) error {
	t := tr.t
	root := t.begin("decompose", -1, job)
	defer t.end(root)
	base, _, _ := strings.Cut(spec.Name, ".")
	if _, ok := faros.Scenarios()[base]; ok {
		_ = t.doAllocs("samples.resolve", root, job, func() error {
			_ = faros.Scenarios()[base]
			return nil
		})
	}
	wire, err := samples.MarshalSpec(spec)
	if err != nil {
		return err
	}
	var res *scenario.Result
	var result *pipeline.Result
	var data []byte
	steps := []struct {
		name   string
		allocs bool
		fn     func() error
	}{
		{"samples.spec_decode", false, func() (err error) { _, err = samples.UnmarshalSpec(wire); return err }},
		{"samples.spec_hash", false, func() (err error) { _, err = samples.SpecHash(spec); return err }},
		{"guest.kernel_boot", false, func() (err error) { _, err = guest.NewKernel(); return err }},
		{"vm.replay_plain", false, func() (err error) {
			_, err = scenario.ReplayContext(tr.ctx, spec, log, scenario.Plugins{}, nil)
			return err
		}},
		{"core.replay_faros", true, func() (err error) {
			res, err = scenario.ReplayContext(tr.ctx, spec, log, scenario.Plugins{Faros: &core.Config{}}, nil)
			return err
		}},
		{"baseline.replay_detect", false, func() (err error) {
			_, err = scenario.ReplayContext(tr.ctx, spec, log, detectPlugins(), nil)
			return err
		}},
		{"provgraph.encode", false, func() (err error) { _, err = res.ProvGraph().Encode("json"); return err }},
		{"pipeline.result_encode", false, func() (err error) {
			result = tr.toResult(strings.Repeat("0", 63)+"1", pipeline.ModeLive, res, root, job)
			data, err = json.Marshal(result)
			return err
		}},
		{"store.put", false, func() error { return tr.store.Put(fmt.Sprintf("%064x", job), data) }},
		{"trace.encode", false, func() (err error) { data, _, err = scenario.EncodeTrace(spec, log); return err }},
		{"trace.decode", false, func() (err error) { _, _, err = trace.DecodeBytes(data); return err }},
		{"trace.replay", false, func() (err error) {
			_, err = scenario.ReplayTraceContext(tr.ctx, data, scenario.Plugins{Faros: &core.Config{}})
			return err
		}},
	}
	for _, st := range steps {
		do := t.do
		if st.allocs {
			do = t.doAllocs
		}
		if err := do(st.name, root, job, st.fn); err != nil {
			return fmt.Errorf("%s: %s: %w", spec.Name, st.name, err)
		}
	}
	return nil
}

// tracedPass runs the workload's traced pass and derives the per-layer
// metrics from its spans. The on-server-path calls run four times —
// a warm-up, untraced, traced, untraced — and the traced loop's wall time
// over the untraced mean is the tracing overhead.
func tracedPass(ctx context.Context, e *env, w workload, ph phase, results map[string]*pipeline.Result, dir, spanFile string) (map[string]metric, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pl := w.plan(e)
	reqs := make([]request, w.tracedPasses*pl.pass)
	for i := range reqs {
		reqs[i] = pl.at(i)
	}
	byDigest := make(map[string]recordedTrace, len(e.traces))
	for _, rt := range e.traces {
		byDigest[rt.digest] = rt
	}

	type decomp struct {
		job  int
		spec samples.Spec
		log  *record.Log
	}
	var decomps []decomp
	onPath := func(tr *tracedRun, collect bool) (time.Duration, error) {
		start := time.Now()
		for job, req := range reqs {
			var err error
			switch req.kind {
			case kindCold:
				var spec samples.Spec
				var log *record.Log
				spec, log, err = tr.coldJob(job, req)
				if collect && err == nil {
					decomps = append(decomps, decomp{job, spec, log})
				}
			case kindTrace:
				err = tr.traceJob(job, byDigest[req.target])
			default:
				err = tr.hotJob(job, req)
			}
			if err != nil {
				return 0, fmt.Errorf("request %d (%s): %w", job, req.kind, err)
			}
		}
		return time.Since(start), nil
	}

	// A discarded untraced loop warms caches and the heap first.
	var untraced []time.Duration
	var traced *tracer
	var tracedWall time.Duration
	for i, on := range []bool{false, false, true, false} {
		st, err := store.Open(store.Config{Dir: filepath.Join(dir, fmt.Sprintf("store%d", i))})
		if err != nil {
			return nil, err
		}
		t := &tracer{on: on, t0: time.Now()}
		tr := &tracedRun{ctx: ctx, t: t, policy: triage.Default(), store: st, results: results}
		wall, err := onPath(tr, on)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		switch {
		case on:
			traced, tracedWall = t, wall
		case i > 0:
			untraced = append(untraced, wall)
		}
	}

	// Off-path decomposition, appended to the same span list. trace_farm
	// decomposes each stored trace's spec, recorded afresh.
	st, err := store.Open(store.Config{Dir: filepath.Join(dir, "decompose")})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	tr := &tracedRun{ctx: ctx, t: traced, policy: triage.Default(), store: st}
	for i, rt := range e.traces {
		job := len(reqs) + i
		var log *record.Log
		root := traced.begin("trace.setup", -1, job)
		err := traced.do("scenario.record", root, job, func() (err error) {
			log, _, err = scenario.RecordContext(ctx, rt.spec, nil)
			return err
		})
		traced.end(root)
		if err != nil {
			return nil, err
		}
		decomps = append(decomps, decomp{job, rt.spec, log})
	}
	for _, d := range decomps {
		if err := tr.decompose(d.job, d.spec, d.log); err != nil {
			return nil, err
		}
	}
	ringUS := ringOwnerMicros(reqs)

	data, err := json.Marshal(traced.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(spanFile, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(traced.spans), spanFile)

	return layerMetrics(traced, w, ph, tracedWall, untraced, ringUS), nil
}

// ringOwnerMicros times cluster.Ring.Owner, per lookup, over the keys a
// two-node fleet would shard these requests on (the spec hash of a cold
// spec, the digest or scenario name otherwise).
func ringOwnerMicros(reqs []request) float64 {
	ring := cluster.NewRing([]string{"a", "b"}, 0)
	keys := make([]string, len(reqs))
	for i, req := range reqs {
		keys[i] = req.shard
		if keys[i] == "" {
			keys[i] = req.target
		}
	}
	const rounds = 200
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			_ = ring.Owner(k)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(rounds*len(keys))
}

// layerMetrics derives the per-layer metrics from the traced spans.
func layerMetrics(t *tracer, w workload, ph phase, tracedWall time.Duration, untraced []time.Duration, ringUS float64) map[string]metric {
	m := map[string]metric{}
	p50 := func(metricName, spanName string) {
		m[metricName] = metric{quantile(t.durations(spanName), 0.5), "ms"}
	}
	p50("samples.resolve_ms", "samples.resolve")
	p50("samples.spec_decode_ms", "samples.spec_decode")
	p50("samples.spec_hash_ms", "samples.spec_hash")
	p50("guest.kernel_boot_ms", "guest.kernel_boot")
	p50("scenario.record_ms", "scenario.record")
	p50("vm.replay_plain_ms", "vm.replay_plain")
	p50("trace.encode_ms", "trace.encode")
	p50("trace.decode_ms", "trace.decode")
	p50("trace.replay_ms", "trace.replay")
	p50("provgraph.encode_ms", "provgraph.encode")
	p50("pipeline.result_encode_ms", "pipeline.result_encode")
	p50("triage.score_ms", "triage.score")
	p50("store.put_ms", "store.put")

	var resolveAllocs, farosAllocs []float64
	for _, s := range t.spans {
		switch s.Name {
		case "samples.resolve":
			resolveAllocs = append(resolveAllocs, float64(s.Allocs))
		case "core.replay_faros":
			farosAllocs = append(farosAllocs, float64(s.Allocs))
		}
	}
	m["samples.resolve_allocs"] = metric{quantile(resolveAllocs, 0.5), "count"}
	m["core.faros_allocs"] = metric{quantile(farosAllocs, 0.5), "count"}

	// Shares are per execution: FAROS-only minus plain replay, and the
	// detect plugins minus FAROS-only, each over one recording.
	plain, faros, detect := t.byJob("vm.replay_plain"), t.byJob("core.replay_faros"), t.byJob("baseline.replay_detect")
	var farosShare, baselineShare []float64
	for job, f := range faros {
		farosShare = append(farosShare, f-plain[job])
		if d, ok := detect[job]; ok {
			baselineShare = append(baselineShare, d-f)
		}
	}
	m["core.faros_share_ms"] = metric{quantile(farosShare, 0.5), "ms"}
	m["baseline.share_ms"] = metric{quantile(baselineShare, 0.5), "ms"}
	m["cluster.ring_owner_us"] = metric{ringUS, "us"}

	// Coverage: the traced layer time of one request over the e2e span it
	// should explain — the server's run span for executed jobs, or the
	// client round trip where most requests never run.
	var jobs int
	for _, s := range t.spans {
		if s.Name == "request" {
			jobs++
		}
	}
	var layerSum, e2eSum float64
	var e2eN int
	if w.rttCoverage {
		for _, s := range t.spans {
			if s.Parent >= 0 && t.spans[s.Parent].Name == "request" && s.Name != "pipeline.run" {
				layerSum += float64(s.End-s.Start) / 1e6
			}
		}
		layerSum += t.childSum("pipeline.run")
		for _, s := range ph.samples {
			e2eSum += float64(s.rtt) / 1e6
			e2eN++
		}
	} else {
		layerSum = t.childSum("pipeline.run")
		for _, s := range ph.samples {
			if s.executed {
				e2eSum += float64(s.run) / 1e6
				e2eN++
			}
		}
	}
	coverage := 0.0
	if jobs > 0 && e2eN > 0 && e2eSum > 0 {
		coverage = (layerSum / float64(jobs)) / (e2eSum / float64(e2eN))
	}
	m["trace.coverage"] = metric{coverage, "ratio"}
	var u time.Duration
	for _, d := range untraced {
		u += d
	}
	m["trace.overhead"] = metric{float64(tracedWall) / (float64(u) / float64(len(untraced))), "ratio"}
	return m
}
