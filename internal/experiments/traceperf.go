package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"faros/internal/core"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/trace"
)

// The trace-perf experiment emits the machine-readable snapshot committed
// as BENCH_7.json: for each Table V application it compares a full
// live-execution analysis job (record + analyze, what farosd mode "live"
// runs) against an analysis-only replay of the same run's encoded trace
// (decode + verify + analyze, what the replay farm runs per stored trace),
// plus the codec's encode/decode throughput and the on-disk trace sizes.
// The acceptance bar is speedup >= 1 on average: re-analyzing a recording
// must never cost more than executing it again.

// tracePerfRow is one application's live-vs-replay measurement.
type tracePerfRow struct {
	Application  string  `json:"application"`
	Instructions uint64  `json:"instructions"`
	Events       uint64  `json:"events"`
	TraceBytes   int     `json:"trace_bytes"`
	EncodeNS     int64   `json:"encode_ns"`
	DecodeNS     int64   `json:"decode_ns"`
	LiveNS       int64   `json:"live_analysis_ns"`
	ReplayNS     int64   `json:"trace_replay_ns"`
	Speedup      float64 `json:"speedup"`
}

// tracePerfSnapshot is the full BENCH_7.json payload.
type tracePerfSnapshot struct {
	Rows []tracePerfRow `json:"rows"`
	// Aggregate job throughput over the corpus, single worker.
	LiveJobsPerSec   float64 `json:"live_jobs_per_sec"`
	ReplayJobsPerSec float64 `json:"replay_jobs_per_sec"`
	AvgSpeedup       float64 `json:"avg_speedup"`
	// Codec throughput over the corpus's encoded bytes.
	EncodeMBPerSec float64 `json:"encode_mb_per_sec"`
	DecodeMBPerSec float64 `json:"decode_mb_per_sec"`
	TotalBytes     int     `json:"total_trace_bytes"`
}

// TracePerf measures the record-once/analyze-many split over the Table V
// corpus and renders the snapshot as JSON.
func TracePerf() (string, error) {
	snap := tracePerfSnapshot{}
	var liveTotal, replayTotal, encodeTotal, decodeTotal int64
	for _, pw := range samples.PerfWorkloads() {
		spec := pw.Spec
		plugins := scenario.Plugins{Faros: &core.Config{}}

		// The recording that seeds the trace (and the replay bound).
		log, rec, err := scenario.RecordContext(context.Background(), spec, nil)
		if err != nil {
			return "", fmt.Errorf("%s: record: %w", pw.Display, err)
		}

		// Codec cost, best-of like every other measurement.
		var data []byte
		encodeNS := bestOf(func() error {
			data, _, err = scenario.EncodeTrace(spec, log)
			return err
		})
		if err != nil {
			return "", fmt.Errorf("%s: encode: %w", pw.Display, err)
		}
		var meta trace.Meta
		decodeNS := bestOf(func() error {
			meta, _, err = trace.DecodeBytes(data)
			return err
		})
		if err != nil {
			return "", fmt.Errorf("%s: decode: %w", pw.Display, err)
		}

		// One live-execution analysis job vs one analysis-only replay job.
		// The draws are interleaved so transient machine load penalizes both
		// sides equally instead of whichever happened to run later.
		var liveNS, replayNS int64
		for i := 0; i < tracePerfRepeats; i++ {
			start := time.Now()
			if _, err := scenario.RunLiveContext(context.Background(), spec, plugins, nil); err != nil {
				return "", fmt.Errorf("%s: live: %w", pw.Display, err)
			}
			if ns := time.Since(start).Nanoseconds(); liveNS == 0 || ns < liveNS {
				liveNS = ns
			}
			start = time.Now()
			if _, err := scenario.ReplayTraceContext(context.Background(), data, plugins); err != nil {
				return "", fmt.Errorf("%s: replay: %w", pw.Display, err)
			}
			if ns := time.Since(start).Nanoseconds(); replayNS == 0 || ns < replayNS {
				replayNS = ns
			}
		}

		snap.Rows = append(snap.Rows, tracePerfRow{
			Application:  pw.Display,
			Instructions: rec.Summary.Instructions,
			Events:       meta.Events,
			TraceBytes:   len(data),
			EncodeNS:     encodeNS,
			DecodeNS:     decodeNS,
			LiveNS:       liveNS,
			ReplayNS:     replayNS,
			Speedup:      ratio(liveNS, replayNS),
		})
		liveTotal += liveNS
		replayTotal += replayNS
		encodeTotal += encodeNS
		decodeTotal += decodeNS
		snap.TotalBytes += len(data)
	}

	n := float64(len(snap.Rows))
	if liveTotal > 0 {
		snap.LiveJobsPerSec = n / (float64(liveTotal) / float64(time.Second))
	}
	if replayTotal > 0 {
		snap.ReplayJobsPerSec = n / (float64(replayTotal) / float64(time.Second))
	}
	var sum float64
	for _, r := range snap.Rows {
		sum += r.Speedup
	}
	snap.AvgSpeedup = sum / n
	mb := float64(snap.TotalBytes) / (1 << 20)
	if encodeTotal > 0 {
		snap.EncodeMBPerSec = mb / (float64(encodeTotal) / float64(time.Second))
	}
	if decodeTotal > 0 {
		snap.DecodeMBPerSec = mb / (float64(decodeTotal) / float64(time.Second))
	}

	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// tracePerfRepeats is higher than perfRepeats because the quantity under
// test is a ratio of two near-equal times; more draws tighten both minima.
const tracePerfRepeats = 5

// bestOf runs fn tracePerfRepeats times and returns the fastest wall time
// in nanoseconds (noise only ever adds time).
func bestOf(fn func() error) int64 {
	var best int64
	for i := 0; i < tracePerfRepeats; i++ {
		start := time.Now()
		if fn() != nil {
			return 0
		}
		if ns := time.Since(start).Nanoseconds(); best == 0 || ns < best {
			best = ns
		}
	}
	return best
}
