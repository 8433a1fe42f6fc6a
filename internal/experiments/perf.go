package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"faros/internal/core"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// The perf experiment emits the machine-readable performance snapshot
// committed as BENCH_3.json: the guest-execution microbenchmark measured
// live against its recorded pre-optimization baseline, the Table V
// replay-overhead rows, the taint-heavy process-hollowing replay (the
// workload where FAROS's policy check dominates, measured the Table V way),
// and the taint engine's fast-path counters (memo hit rates, whole-page
// skips) that explain where the time went.

// Pre-optimization measurements of the guest-execution benchmark
// (BenchmarkGuestExecutionPlain / BenchmarkGuestExecutionFAROS at the
// taint-fast-path PR's base commit, 100 ops, same reference machine the
// "after" numbers are measured on). They anchor the before/after
// comparison in BENCH_3.json.
const (
	baselinePlainNS = 3715767
	baselineFAROSNS = 6651445
)

// perfGuestExec is the live re-measurement of the guest-execution
// benchmark workload.
type perfGuestExec struct {
	Workload         string  `json:"workload"`
	Instructions     uint64  `json:"instructions"`
	PlainNSPerOp     int64   `json:"plain_ns_per_op"`
	FarosNSPerOp     int64   `json:"faros_ns_per_op"`
	Slowdown         float64 `json:"slowdown"`
	BaselinePlainNS  int64   `json:"baseline_plain_ns_per_op"`
	BaselineFarosNS  int64   `json:"baseline_faros_ns_per_op"`
	SpeedupPlain     float64 `json:"speedup_plain"`
	SpeedupFaros     float64 `json:"speedup_faros"`
	BaselineSlowdown float64 `json:"baseline_slowdown"`
}

// perfTableVRow is one Table V application in machine-readable form.
type perfTableVRow struct {
	Application  string  `json:"application"`
	Instructions uint64  `json:"instructions"`
	PlainNS      int64   `json:"plain_ns"`
	FarosNS      int64   `json:"faros_ns"`
	Slowdown     float64 `json:"slowdown"`
}

// perfSnapshot is the full snapshot payload (committed as BENCH_3.json at
// the taint-fast-path PR, BENCH_8.json at the block-dispatch PR,
// BENCH_16.json at the one-pass-detect PR, BENCH_39.json as the bench
// gate's first ratio baseline, BENCH_40.json once both executors batched
// counted loops, BENCH_42.json once FAROS's batches applied their shadow
// effects a provenance run at a time). The gate holds two ratios:
// GuestExecution's slowdown, and Hollowing's, process_hollowing replayed
// without and with FAROS, since the Table V workloads barely exercise the
// policy check.
// Taint and Block are the engine's own counters from one FAROS run of the
// benchmark workload — memo and whole-page fast paths, predecode
// amortization, fused and untainted fast loops — next to the hit rates
// derived from them.
type perfSnapshot struct {
	GuestExecution perfGuestExec   `json:"guest_execution"`
	TableV         []perfTableVRow `json:"table5"`
	TableVAvg      float64         `json:"table5_avg_slowdown"`
	Hollowing      perfTableVRow   `json:"hollowing"`
	Taint          struct {
		core.TaintStats
		PrependHitRate float64 `json:"prepend_hit_rate"`
		UnionHitRate   float64 `json:"union_hit_rate"`
	} `json:"taint"`
	Block struct {
		core.BlockStats
		HitRate float64 `json:"hit_rate"`
	} `json:"block"`
}

// Perf measures the guest-execution benchmark workload live (plain and
// with FAROS), sweeps Table V, and renders the combined snapshot as JSON.
// The plain and FAROS runs alternate, as in MeasurePerf, so a slow spell
// of the machine lands on both sides of guest_execution.slowdown.
func Perf() (string, error) {
	w := samples.PerfWorkloads()[2] // Bozok — the bench_test.go workload
	plainNS, farosNS := int64(math.MaxInt64), int64(math.MaxInt64)
	var plainRes, farosRes *scenario.Result
	var err error
	for i := 0; i < perfRepeats; i++ {
		if plainRes, err = scenario.RunLiveContext(context.Background(), w.Spec, scenario.Plugins{}, nil); err != nil {
			return "", fmt.Errorf("perf plain: %w", err)
		}
		if farosRes, err = scenario.RunLiveContext(context.Background(), w.Spec, scenario.Plugins{Faros: &core.Config{}}, nil); err != nil {
			return "", fmt.Errorf("perf faros: %w", err)
		}
		plainNS = min(plainNS, plainRes.WallTime.Nanoseconds())
		farosNS = min(farosNS, farosRes.WallTime.Nanoseconds())
	}

	snap := perfSnapshot{
		GuestExecution: perfGuestExec{
			Workload:         w.Display,
			Instructions:     plainRes.Summary.Instructions,
			PlainNSPerOp:     plainNS,
			FarosNSPerOp:     farosNS,
			Slowdown:         ratio(farosNS, plainNS),
			BaselinePlainNS:  baselinePlainNS,
			BaselineFarosNS:  baselineFAROSNS,
			SpeedupPlain:     ratio(baselinePlainNS, plainNS),
			SpeedupFaros:     ratio(baselineFAROSNS, farosNS),
			BaselineSlowdown: ratio(baselineFAROSNS, baselinePlainNS),
		},
	}

	st := farosRes.Faros.Stats()
	snap.Taint.TaintStats = st.Taint
	snap.Taint.PrependHitRate = hitRate(st.Taint.PrependMemoHits, st.Taint.Prepends)
	snap.Taint.UnionHitRate = hitRate(st.Taint.UnionMemoHits, st.Taint.Unions)
	snap.Block.BlockStats = st.Block
	snap.Block.HitRate = hitRate(st.Block.Hits, st.Block.Built+st.Block.Hits)

	var total float64
	for _, pw := range samples.PerfWorkloads() {
		row, err := measureRow(pw)
		if err != nil {
			return "", err
		}
		snap.TableV = append(snap.TableV, row)
		total += row.Slowdown
	}
	snap.TableVAvg = total / float64(len(snap.TableV))
	hollowing := samples.ProcessHollowing()
	if snap.Hollowing, err = measureRow(samples.PerfWorkload{Display: hollowing.Name, Spec: hollowing}); err != nil {
		return "", err
	}

	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// PerfRow is one Table V measurement.
type PerfRow struct {
	Application   string
	ReplayPlain   time.Duration
	ReplayFAROS   time.Duration
	Slowdown      float64
	Instructions  uint64
	RecordedBytes int
}

// perfRepeats is how many times each replay, and each guest-execution
// run, is timed; the fastest run is reported (standard microbenchmark
// practice — noise only ever adds time).
const perfRepeats = 7

// MeasurePerf records a workload once, then replays it repeatedly without
// any plugin and with FAROS, timing both (the Table V methodology; each
// configuration reports its fastest of perfRepeats runs). The two
// configurations are interleaved — plain, FAROS, plain, FAROS, ... — so a
// machine-speed drift mid-measurement inflates both numerators alike
// instead of skewing the ratio.
func MeasurePerf(w samples.PerfWorkload) (PerfRow, error) {
	log, _, err := scenario.RecordContext(context.Background(), w.Spec, nil)
	if err != nil {
		return PerfRow{}, err
	}
	one := func(plugins scenario.Plugins) (time.Duration, uint64, error) {
		res, err := scenario.ReplayContext(context.Background(), w.Spec, log, plugins, nil)
		if err != nil {
			return 0, 0, err
		}
		return res.WallTime, res.Summary.Instructions, nil
	}
	var plainT, farosT time.Duration
	var instrs uint64
	for i := 0; i < perfRepeats; i++ {
		pT, n, err := one(scenario.Plugins{})
		if err != nil {
			return PerfRow{}, err
		}
		fT, _, err := one(scenario.Plugins{Faros: &core.Config{}})
		if err != nil {
			return PerfRow{}, err
		}
		instrs = n
		if plainT == 0 || pT < plainT {
			plainT = pT
		}
		if farosT == 0 || fT < farosT {
			farosT = fT
		}
	}
	row := PerfRow{
		Application:  w.Display,
		ReplayPlain:  plainT,
		ReplayFAROS:  farosT,
		Instructions: instrs,
	}
	if plainT > 0 {
		row.Slowdown = float64(farosT) / float64(plainT)
	}
	if raw, _, err := scenario.EncodeTrace(w.Spec, log); err == nil {
		row.RecordedBytes = len(raw)
	}
	return row, nil
}

// measureRow times one workload's replay without and with FAROS
// (MeasurePerf) as a snapshot row.
func measureRow(w samples.PerfWorkload) (perfTableVRow, error) {
	row, err := MeasurePerf(w)
	if err != nil {
		return perfTableVRow{}, fmt.Errorf("%s: %w", w.Display, err)
	}
	return perfTableVRow{
		Application:  row.Application,
		Instructions: row.Instructions,
		PlainNS:      row.ReplayPlain.Nanoseconds(),
		FarosNS:      row.ReplayFAROS.Nanoseconds(),
		Slowdown:     row.Slowdown,
	}, nil
}

// ratio is a/b as float, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// hitRate is hits/total, 0 when total is 0.
func hitRate(hits, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
