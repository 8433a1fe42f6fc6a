package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"faros/internal/core"
	"faros/internal/pipeline"
	"faros/internal/pipeline/client"
	"faros/internal/provgraph"
	"faros/internal/samples"
	"faros/internal/triage"
)

// remoteArgs is the -server slice of the flag set: what to run and where.
type remoteArgs struct {
	base      string
	scenario  string
	file      string
	traceIn   string
	list      bool
	strict    bool
	addrDeps  bool
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
	if args.strict || args.addrDeps {
		req.Config = &core.Config{
			StrictExecCheck:   args.strict,
			PropagateAddrDeps: args.addrDeps,
		}
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
		req.Mode = "detect"
		if req.Config != nil {
			// Non-default engine knobs need mode "live": detect always
			// runs the paper's default policy.
			req.Mode = "live"
		}
	}

	fmt.Printf("submitting to %s...\n", args.base)
	view, err := cli.Analyze(ctx, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faros: %v\n", err)
		return 1
	}
	return reportRemote(view, opts)
}

// reportRemote renders a remote job view with the same sections as the
// in-process report: findings, optional client-side triage re-scoring,
// and the merged provenance graph in the requested format.
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
	// -triage-policy re-scores client-side over the returned provenance
	// graphs — an analyst can try a candidate policy against a fleet's
	// results without redeploying it.
	if opts.policy != nil {
		scores := make([]triage.Score, 0, len(res.Findings))
		fmt.Printf("\ntriage (policy %s, %.12s):\n", opts.policy.Name, opts.policy.Hash())
		for _, f := range res.Findings {
			a := opts.policy.ScoreFinding(f.Rule, f.Prov)
			scores = append(scores, a.Score)
			fmt.Printf("  [%-6s] %s %s/%d (rule %s)\n", a.Score, f.Rule, f.Process, f.PID, a.Rule)
		}
		fmt.Printf("overall risk: %s\n", triage.Aggregate(scores...))
	}
	if opts.provFormat != "text" {
		g := res.Prov
		if g == nil {
			g = provgraph.Merge()
		}
		body, err := g.Encode(opts.provFormat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: %v\n", err)
			return 1
		}
		fmt.Println()
		fmt.Print(body)
	}
	if opts.jsonOut != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(opts.jsonOut, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: json: %v\n", err)
			return 1
		}
		fmt.Printf("JSON result written to %s\n", opts.jsonOut)
	}
	if opts.dotOut != "" && len(res.Findings) > 0 && res.Findings[0].Prov != nil {
		dot, err := res.Findings[0].Prov.Encode("dot")
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: dot: %v\n", err)
			return 1
		}
		if err := os.WriteFile(opts.dotOut, []byte(dot), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "faros: dot: %v\n", err)
			return 1
		}
		fmt.Printf("provenance graph written to %s\n", opts.dotOut)
	}
	return 0
}
