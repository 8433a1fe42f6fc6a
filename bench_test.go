// Package faros_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (run them all with
// `go test -bench=. -benchmem`), plus engine microbenchmarks. Each
// experiment's full rendered output is regenerated by cmd/farosbench.
package faros_test

import (
	"context"
	"fmt"
	"testing"

	"faros"
	"faros/internal/core"
	"faros/internal/experiments"
	"faros/internal/pipeline"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/taint"
)

// runExperiment drives a named farosbench experiment b.N times.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(name)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

// BenchmarkDetection reproduces §VI: all six in-memory injection attacks
// detected end-to-end (record + replay with FAROS, Cuckoo, malfind).
func BenchmarkDetection(b *testing.B) { runExperiment(b, "detect") }

// BenchmarkTable2Output reproduces Table II (flagged addresses with
// provenance lists for the reflective DLL injection).
func BenchmarkTable2Output(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig7ReflectiveDLL reproduces Figure 7.
func BenchmarkFig7ReflectiveDLL(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8ReverseTCPDNS reproduces Figure 8.
func BenchmarkFig8ReverseTCPDNS(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Bypassuac reproduces Figure 9.
func BenchmarkFig9Bypassuac(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10Hollowing reproduces Figure 10.
func BenchmarkFig10Hollowing(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkTable3JIT reproduces Table III (20 JIT workloads; 2 false
// positives expected).
func BenchmarkTable3JIT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		flagged := 0
		for _, spec := range samples.JITWorkloads() {
			res, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{Faros: &core.Config{}}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.Flagged() {
				flagged++
			}
		}
		if flagged != 2 {
			b.Fatalf("JIT false positives = %d, want 2", flagged)
		}
	}
	b.ReportMetric(2, "false-positives")
}

// BenchmarkTable4Corpus reproduces Table IV (90 non-injecting malware + 14
// benign; zero false positives expected).
func BenchmarkTable4Corpus(b *testing.B) {
	specs := append(samples.MalwareCorpus(), samples.BenignPrograms()...)
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			res, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{Faros: &core.Config{}}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.Flagged() {
				b.Fatalf("%s: false positive", spec.Name)
			}
		}
	}
	b.ReportMetric(float64(len(specs)), "samples")
	b.ReportMetric(0, "false-positives")
}

// BenchmarkTable5Perf reproduces Table V, reporting the measured FAROS
// replay slowdown per application as a custom metric.
func BenchmarkTable5Perf(b *testing.B) {
	for _, w := range samples.PerfWorkloads() {
		w := w
		b.Run(w.Display, func(b *testing.B) {
			var last experiments.PerfRow
			for i := 0; i < b.N; i++ {
				row, err := experiments.MeasurePerf(w)
				if err != nil {
					b.Fatal(err)
				}
				last = row
			}
			b.ReportMetric(last.Slowdown, "x-slowdown")
			b.ReportMetric(float64(last.Instructions), "guest-instrs")
		})
	}
}

// BenchmarkTable5LiveFAROS runs the job farosd runs for each Table V
// application: one live pass with FAROS alone, released afterwards. One op
// covers all six applications. It reports the micro-ops the block
// executors dispatched per 1,000 retired instructions, which is what
// micro-op fusion lowers.
func BenchmarkTable5LiveFAROS(b *testing.B) {
	workloads := samples.PerfWorkloads()
	b.ResetTimer()
	var instrs, uops uint64
	for i := 0; i < b.N; i++ {
		instrs, uops = 0, 0
		for _, w := range workloads {
			res, err := scenario.RunLiveContext(context.Background(), w.Spec, scenario.Plugins{Faros: &core.Config{}}, nil)
			if err != nil {
				b.Fatalf("%s: %v", w.Display, err)
			}
			st := res.Faros.Stats()
			instrs += st.Instructions
			uops += st.Instructions - st.Block.FusedOps
			res.Release()
		}
	}
	b.ReportMetric(1000*float64(uops)/float64(instrs), "uops/kinstr")
}

// BenchmarkCuckooComparison reproduces the §VI.B tool comparison.
func BenchmarkCuckooComparison(b *testing.B) { runExperiment(b, "cuckoo") }

// BenchmarkIndirectFlows reproduces the Figure 1/2 indirect-flow study.
func BenchmarkIndirectFlows(b *testing.B) { runExperiment(b, "indirect") }

// BenchmarkAblateAddrDeps measures the overtainting ablation.
func BenchmarkAblateAddrDeps(b *testing.B) { runExperiment(b, "ablate-addr") }

// BenchmarkAblateProcTag measures the process-tag ablation.
func BenchmarkAblateProcTag(b *testing.B) { runExperiment(b, "ablate-proctag") }

// BenchmarkAblateListCap measures the provenance-list-cap sweep.
func BenchmarkAblateListCap(b *testing.B) { runExperiment(b, "ablate-cap") }

// BenchmarkGuestExecutionPlain measures raw guest instruction throughput
// (the "replay w/o FAROS" baseline of Table V), in guest instructions per
// benchmark op.
func BenchmarkGuestExecutionPlain(b *testing.B) {
	spec := samples.PerfWorkloads()[2].Spec // Bozok, medium
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Summary.Instructions
	}
	b.ReportMetric(float64(instrs), "guest-instrs/op")
}

// BenchmarkGuestExecutionFAROS is the same workload with the DIFT engine
// attached.
func BenchmarkGuestExecutionFAROS(b *testing.B) {
	spec := samples.PerfWorkloads()[2].Spec
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{Faros: &core.Config{}}, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Summary.Instructions
	}
	b.ReportMetric(float64(instrs), "guest-instrs/op")
}

// BenchmarkDetectSmallCorpus measures a small job's fixed cost: one op is
// a live analyst-workflow pass (FAROS plus the Cuckoo, malfind and OSI
// baselines) plus Release over every registry scenario except
// process_hollowing, the one large job, so boot, image loading and the
// byte-moving hooks dominate rather than guest loops. Reports ns, bytes
// and allocations per corpus pass.
func BenchmarkDetectSmallCorpus(b *testing.B) {
	benchSmallCorpus(b, scenario.DetectPlugins)
}

// BenchmarkDetectSmallCorpusFAROS runs the same corpus loop with FAROS
// alone, the job farosd runs: the baselines' scans do not dilute the cost
// of booting, decoding and taint tracking.
func BenchmarkDetectSmallCorpusFAROS(b *testing.B) {
	benchSmallCorpus(b, func() scenario.Plugins { return scenario.Plugins{Faros: &core.Config{}} })
}

// benchSmallCorpus runs every registry scenario but process_hollowing
// live with plugins() attached, releasing each run, once per op.
func benchSmallCorpus(b *testing.B, plugins func() scenario.Plugins) {
	var specs []faros.Spec
	for _, name := range faros.ScenarioNames() {
		if name != "process_hollowing" {
			spec, _ := faros.Scenario(name)
			specs = append(specs, spec)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			res, err := scenario.RunLiveContext(context.Background(), spec, plugins(), nil)
			if err != nil {
				b.Fatalf("%s: %v", spec.Name, err)
			}
			res.Release()
		}
	}
	b.ReportMetric(float64(len(specs)), "jobs/op")
}

// BenchmarkPipelineThroughput pushes N small scenarios through analysis
// pools of 1, 4, and 8 workers (caching disabled so every op does real
// guest work), reporting scenarios/sec. The spread shows how far the
// embarrassingly-parallel corpus sweep scales on this host.
func BenchmarkPipelineThroughput(b *testing.B) {
	specs := append(samples.JITWorkloads(), samples.BenignPrograms()...)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p, err := pipeline.New(pipeline.Config{Workers: workers, QueueDepth: len(specs) + 1})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			reqs := make([]pipeline.Request, len(specs))
			for i, spec := range specs {
				reqs[i] = pipeline.Request{Spec: spec, Mode: pipeline.ModeLive, NoCache: true}
			}
			b.ResetTimer()
			jobs := make([]*pipeline.Job, len(reqs))
			for i := 0; i < b.N; i++ {
				for j, req := range reqs {
					if jobs[j], err = p.Submit(req); err != nil {
						b.Fatalf("%s: %v", req.Spec.Name, err)
					}
				}
				for _, job := range jobs {
					view, err := p.Wait(context.Background(), job)
					if err != nil {
						b.Fatal(err)
					}
					if view.Error != "" {
						b.Fatalf("%s: %s", view.Scenario, view.Error)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "scenarios/sec")
		})
	}
}

// BenchmarkCacheHitByName measures the result-server path in-process: a
// by-name POST /analyze that the result cache answers, through
// pipeline.NewHandler and httptest, with no network in between. One op is
// one request; its allocations are what TestScenarioLookupAllocationBound
// bounds.
func BenchmarkCacheHitByName(b *testing.B) {
	post := cacheHitByName(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		post()
	}
}

// BenchmarkTaintMap measures the post-run taint-map walk on the benchmark
// workload. The walk now consults the shadow store's per-frame live
// counters to skip untainted pages whole; before that fix it probed every
// byte of every VAD through MemGet, so this benchmark is the satellite
// evidence for the page-skip win (compare by reverting the TaintMap body).
func BenchmarkTaintMap(b *testing.B) {
	spec := samples.PerfWorkloads()[2].Spec // Bozok, medium
	res, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{Faros: &core.Config{}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var regions int
	for i := 0; i < b.N; i++ {
		regions = len(res.Faros.TaintMap())
	}
	b.ReportMetric(float64(regions), "regions")
}

// BenchmarkTaintUnion measures provenance-list union throughput, the hot
// operation of the propagation rules.
func BenchmarkTaintUnion(b *testing.B) {
	s := taint.NewStore(0)
	ids := make([]taint.ProvID, 16)
	for i := range ids {
		id := s.Single(s.InternProcess(uint32(i+1), uint32(i), "p"))
		if i%2 == 0 {
			id = s.Prepend(id, s.InternFile("f", uint32(i)))
		}
		ids[i] = id
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Union(ids[i%len(ids)], ids[(i+7)%len(ids)])
	}
}

// BenchmarkTaintPrepend measures tag-insertion throughput.
func BenchmarkTaintPrepend(b *testing.B) {
	s := taint.NewStore(0)
	nf := s.InternNetflow(taint.NetflowTag{SrcIP: "1.2.3.4", SrcPort: 4444})
	procs := make([]taint.Tag, 8)
	for i := range procs {
		procs[i] = s.InternProcess(uint32(i+1)*0x1000, uint32(i), "p")
	}
	id := s.Single(nf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id = s.Prepend(id, procs[i%len(procs)])
	}
}
