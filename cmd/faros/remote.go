package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"faros/internal/core"
	"faros/internal/pipeline"
	"faros/internal/pipeline/client"
	"faros/internal/samples"
)

// remoteArgs is the -server slice of the flag set: what to run and where.
type remoteArgs struct {
	base      string
	scenario  string
	file      string
	traceIn   string
	list      bool
	cfg       core.Config
	timeout   time.Duration
	recordOut string
}

// runRemote is the -server path: the same analyst workflow, executed by a
// farosd (or fleet) instead of in-process. Scenarios submit by name,
// -file specs upload in the canonical wire form (payload_asm assembles
// client-side, so it works even though farosd rejects server-side file
// references), and -trace uploads the recording to POST /traces before
// replaying it by digest.
func runRemote(ctx context.Context, args remoteArgs, opts reportOpts) int {
	cli, err := client.New(client.Config{BaseURL: args.base})
	if err != nil {
		fmt.Fprintf(os.Stderr, "faros: %v\n", err)
		return 1
	}
	if args.list {
		names, err := cli.Scenarios(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: %v\n", err)
			return 1
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return 0
	}
	if args.recordOut != "" {
		fmt.Fprintln(os.Stderr, "faros: -record-out needs live in-process execution and is ignored with -server (farosd records server-side; POST /traces uploads an existing recording)")
	}
	if opts.withCuckoo || opts.withMalfind {
		fmt.Fprintln(os.Stderr, "faros: -cuckoo/-malfind need the in-process baseline plugins and are ignored with -server")
	}

	req := pipeline.AnalyzeRequest{Wait: true}
	if args.timeout > 0 {
		req.TimeoutMS = args.timeout.Milliseconds()
	}
	if args.cfg != (core.Config{}) {
		req.Config = &args.cfg
	}
	switch {
	case args.traceIn != "":
		data, err := os.ReadFile(args.traceIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: %v\n", err)
			return 1
		}
		digest, created, err := cli.PutTrace(ctx, data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: trace upload: %v\n", err)
			return 1
		}
		verb := "already stored"
		if created {
			verb = "uploaded"
		}
		fmt.Printf("trace %s %s (%d bytes)\n", digest, verb, len(data))
		req.Trace = digest
	case args.file != "":
		spec, err := samples.LoadScenarioFile(args.file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: %v\n", err)
			return 1
		}
		raw, err := samples.MarshalSpec(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: %v\n", err)
			return 1
		}
		req.Spec = raw
	case args.scenario != "":
		req.Scenario = args.scenario
	default:
		fmt.Fprintln(os.Stderr, "faros: -server needs -scenario, -file, or -trace (or -list)")
		return 1
	}
	if req.Trace == "" {
		req.Mode = string(analysisMode(args.cfg))
	}

	fmt.Printf("submitting to %s...\n", args.base)
	view, err := cli.Analyze(ctx, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faros: %v\n", err)
		return 1
	}
	return reportRemote(view, opts)
}

// reportRemote prints a remote job view's summary and findings, with the
// risk farosd stamped on them, and hands its Result to writeResult.
func reportRemote(view *pipeline.JobView, opts reportOpts) int {
	res := view.Result
	if view.State != pipeline.StateDone || res == nil {
		msg := view.Error
		if msg == "" {
			msg = "no result"
		}
		fmt.Fprintf(os.Stderr, "faros: remote job %s %s: %s\n", view.ID, view.State, msg)
		return 1
	}
	hit := ""
	if view.CacheHit {
		hit = ", served from cache"
	}
	fmt.Printf("remote analysis finished: %s (mode %s, %d instructions, %v wall%s)\n\n",
		res.Scenario, res.Mode, res.Instructions, res.WallTime, hit)
	if res.Degraded != "" {
		fmt.Printf("degraded: %s\n\n", res.Degraded)
	}
	if !res.Flagged {
		fmt.Println("no injection detected")
	}
	for _, f := range res.Findings {
		line := fmt.Sprintf("FLAGGED [%s] %s/%d", f.Rule, f.Process, f.PID)
		if f.API != "" {
			line += " via " + f.API
		}
		if f.Risk != "" {
			line += fmt.Sprintf(" (server risk %s, rule %s)", f.Risk, f.RiskRule)
		}
		fmt.Println(line)
	}
	if res.Risk != "" {
		fmt.Printf("server overall risk: %s (policy %.12s)\n", res.Risk, res.RiskPolicy)
	}
	return writeResult(res, opts)
}
