// Command benchgate is the CI bench-regression gate. It re-runs the perf
// experiment (the measurement path behind BENCH_42.json) and compares the
// fresh numbers against the committed snapshot. It gates two ratios, each
// FAROS over plain execution timed alternately in the same process, so
// neither depends on the machine's speed:
//
//   - `guest_execution.slowdown`, live runs of the guest-execution
//     workload (Bozok), within 10% of the snapshot;
//   - `hollowing.slowdown`, replays of process_hollowing, the workload
//     where the policy check is the cost, within 25%: its replays are
//     long enough for a loaded machine to spread them more.
//
// Improvements always pass — the snapshot is a ceiling, not a pin. A
// baseline without either ratio is an error (exit 2).
//
// Usage:
//
//	benchgate                          # compare against ./BENCH_42.json
//	benchgate -baseline BENCH_42.json -retries 2
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
		Slowdown float64 `json:"slowdown"`
	} `json:"guest_execution"`
	Hollowing struct {
		Slowdown float64 `json:"slowdown"`
	} `json:"hollowing"`
}

// gates are the gated ratios of a snapshot and the fractional regression
// each may show.
var gates = []struct {
	name      string
	tolerance float64
	get       func(*benchSnapshot) float64
}{
	{"guest_execution.slowdown", 0.10, func(s *benchSnapshot) float64 { return s.GuestExecution.Slowdown }},
	{"hollowing.slowdown", 0.25, func(s *benchSnapshot) float64 { return s.Hollowing.Slowdown }},
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_42.json", "committed perf snapshot to gate against")
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
	for _, g := range gates {
		if g.get(&base) <= 0 {
			fmt.Fprintf(os.Stderr, "benchgate: %s has no %s\n", *baselinePath, g.name)
			os.Exit(2)
		}
	}

	for attempt := 0; ; attempt++ {
		out, err := experiments.RunWith("perf", experiments.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: perf experiment: %v\n", err)
			os.Exit(2)
		}
		var fresh benchSnapshot
		if err := json.Unmarshal([]byte(out), &fresh); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: parsing perf output: %v\n", err)
			os.Exit(2)
		}
		var over []string
		for _, g := range gates {
			got, b := g.get(&fresh), g.get(&base)
			limit := b * (1 + g.tolerance)
			fmt.Printf("benchgate: attempt %d: %s %.3fx (baseline %.3fx, limit %.3fx)\n",
				attempt+1, g.name, got, b, limit)
			if got > limit {
				over = append(over, fmt.Sprintf("%s %.3fx exceeds %.3fx (baseline %.3fx +%.0f%%)",
					g.name, got, limit, b, 100*g.tolerance))
			}
		}
		if len(over) == 0 {
			fmt.Println("benchgate: ok")
			return
		}
		if attempt >= *retries {
			for _, o := range over {
				fmt.Fprintf(os.Stderr, "benchgate: regression: %s after %d attempts\n", o, attempt+1)
			}
			os.Exit(1)
		}
		fmt.Println("benchgate: over limit, re-measuring")
	}
}
