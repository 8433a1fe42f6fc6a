// Command benchgate is the CI bench-regression gate. It re-runs the perf
// experiment (the measurement path behind BENCH_16.json) and compares the
// fresh numbers against the committed snapshot. The gate fails when either
// regresses past the tolerance:
//
//   - `guest_execution.faros_ns_per_op`, the absolute ceiling on the
//     guest-execution workload;
//   - `hollowing.slowdown`, FAROS over plain replay of process_hollowing,
//     the workload where the policy check is the cost. Both timings come
//     from the same machine, so the ratio does not depend on its speed.
//
// Improvements always pass — the snapshot is a ceiling, not a pin. A
// baseline without either block is an error (exit 2).
//
// Usage:
//
//	benchgate                          # compare against ./BENCH_16.json, 25% tolerance
//	benchgate -baseline BENCH_16.json -tolerance 0.25 -retries 2
//
// Timing on shared runners is noisy, so a failing attempt is retried
// (fresh measurement each time, fastest-of-N inside each attempt already);
// only when every attempt regresses does the gate fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"faros/internal/experiments"
)

// benchSnapshot is the slice of the perf snapshot payload the gate reads.
type benchSnapshot struct {
	GuestExecution struct {
		FarosNSPerOp int64   `json:"faros_ns_per_op"`
		PlainNSPerOp int64   `json:"plain_ns_per_op"`
		Slowdown     float64 `json:"slowdown"`
	} `json:"guest_execution"`
	Hollowing struct {
		Slowdown float64 `json:"slowdown"`
	} `json:"hollowing"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_16.json", "committed perf snapshot to gate against")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional regression of faros_ns_per_op and hollowing.slowdown")
	retries := flag.Int("retries", 2, "re-measurements before declaring a regression")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	var base benchSnapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: parsing %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	if base.GuestExecution.FarosNSPerOp <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %s has no guest_execution.faros_ns_per_op\n", *baselinePath)
		os.Exit(2)
	}
	if base.Hollowing.Slowdown <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %s has no hollowing.slowdown\n", *baselinePath)
		os.Exit(2)
	}
	limit := int64(float64(base.GuestExecution.FarosNSPerOp) * (1 + *tolerance))
	ratioLimit := base.Hollowing.Slowdown * (1 + *tolerance)

	var fresh benchSnapshot
	for attempt := 0; ; attempt++ {
		out, err := experiments.RunWith("perf", experiments.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: perf experiment: %v\n", err)
			os.Exit(2)
		}
		if err := json.Unmarshal([]byte(out), &fresh); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: parsing perf output: %v\n", err)
			os.Exit(2)
		}
		got := fresh.GuestExecution.FarosNSPerOp
		gotRatio := fresh.Hollowing.Slowdown
		fmt.Printf("benchgate: attempt %d: faros_ns_per_op %d (baseline %d, limit %d, slowdown %.2fx vs baseline %.2fx)\n",
			attempt+1, got, base.GuestExecution.FarosNSPerOp, limit,
			fresh.GuestExecution.Slowdown, base.GuestExecution.Slowdown)
		fmt.Printf("benchgate: attempt %d: hollowing.slowdown %.2fx (baseline %.2fx, limit %.2fx)\n",
			attempt+1, gotRatio, base.Hollowing.Slowdown, ratioLimit)
		if got <= limit && gotRatio <= ratioLimit {
			fmt.Println("benchgate: ok")
			return
		}
		if attempt >= *retries {
			if got > limit {
				fmt.Fprintf(os.Stderr, "benchgate: regression: faros_ns_per_op %d exceeds %d (baseline %d +%.0f%%) after %d attempts\n",
					got, limit, base.GuestExecution.FarosNSPerOp, 100**tolerance, attempt+1)
			}
			if gotRatio > ratioLimit {
				fmt.Fprintf(os.Stderr, "benchgate: regression: hollowing.slowdown %.2fx exceeds %.2fx (baseline %.2fx +%.0f%%) after %d attempts\n",
					gotRatio, ratioLimit, base.Hollowing.Slowdown, 100**tolerance, attempt+1)
			}
			os.Exit(1)
		}
		fmt.Println("benchgate: over limit, re-measuring")
	}
}
