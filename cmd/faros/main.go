// Command faros is the analyst CLI: run a built-in scenario through the
// record-then-replay workflow and print the FAROS report alongside the
// baseline tools' views (§V.C usage scenario).
//
// Usage:
//
//	faros -list                          # list scenarios
//	faros -scenario reflective_dll_inject
//	faros -scenario process_hollowing -cuckoo -malfind
//	faros -scenario darkcomet -record-out run.ftrc -json report.json
//	faros -trace run.ftrc                # replay-analyze a recorded trace
//	faros -file my_attack.json           # bring-your-own-shellcode scenario
//	faros -scenario evasion_hardcoded_stubs -strict
//	faros -scenario darkcomet -timeout 30s
//	faros -server http://localhost:7373 -scenario njrat
//	faros -server http://localhost:7373 -trace run.ftrc -prov-format dot
//
// With -server, the analysis runs on a farosd (or farosd fleet) instead
// of in-process: scenarios submit by name, -file specs upload in the
// canonical wire form, and -trace uploads the recording to POST /traces
// and replays it remotely. -triage-policy then re-scores the returned
// findings client-side (scoring is a pure view over the provenance
// graphs, so the findings themselves are untouched), and -prov-format
// renders the returned merged graph. -cuckoo and -malfind need the
// in-process baseline plugins and are ignored remotely.
//
// A trace file (-record-out) is the versioned internal/trace wire format:
// self-contained (the spec rides in the header), verified end-to-end by
// checksums, and accepted by farosd's POST /traces for replay analysis
// under any engine config. -trace analyzes such a file without executing
// the guest live — the same recording can be re-analyzed under different
// flags (-strict, -addr-deps) indefinitely.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"faros"
	"faros/internal/core"
	"faros/internal/record"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/trace"
	"faros/internal/triage"
)

func main() {
	os.Exit(runRecovered())
}

// runRecovered is the last-resort boundary: library code returns errors on
// bad input, so anything that still panics is a bug — report it cleanly
// instead of dumping a goroutine trace on the analyst.
func runRecovered() (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "faros: internal error: %v\n", r)
			code = 2
		}
	}()
	return run()
}

// reportOpts carries the output flags shared by the live and trace paths.
type reportOpts struct {
	provFormat  string
	jsonOut     string
	dotOut      string
	withCuckoo  bool
	withMalfind bool
	policy      *triage.Policy
}

func run() int {
	name := flag.String("scenario", "", "scenario to analyze")
	file := flag.String("file", "", "load a custom scenario description (JSON, see samples.ScenarioFile)")
	traceIn := flag.String("trace", "", "replay-analyze a recorded trace file instead of executing live (-scenario/-file not needed)")
	list := flag.Bool("list", false, "list scenario names")
	withCuckoo := flag.Bool("cuckoo", false, "also print the Cuckoo-style report")
	withMalfind := flag.Bool("malfind", false, "also print the malfind snapshot report")
	recordOut := flag.String("record-out", "", "capture the recording to this file (trace wire format, uploadable to farosd /traces)")
	save := flag.String("save", "", "alias for -record-out")
	addrDeps := flag.Bool("addr-deps", false, "propagate address dependencies (overtainting ablation)")
	strict := flag.Bool("strict", false, "enable the StrictExecCheck policy extension")
	jsonOut := flag.String("json", "", "write the findings as JSON to this file")
	dotOut := flag.String("dot", "", "write the first finding's provenance graph (Graphviz) to this file")
	provFormat := flag.String("prov-format", "text", "render the merged provenance graph: text (default, paper-style chains only), json, or dot")
	timeout := flag.Duration("timeout", 0, "abort the analysis after this wall time (0 = no limit)")
	triagePolicy := flag.String("triage-policy", "", "risk-score findings: 'default' for the built-in policy, or a policy JSON file path (empty = off)")
	server := flag.String("server", "", "farosd base URL: run the analysis remotely instead of in-process")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	plugins := scenario.Plugins{
		Faros:   &core.Config{PropagateAddrDeps: *addrDeps, StrictExecCheck: *strict},
		Cuckoo:  *withCuckoo,
		Malfind: *withMalfind,
		OSI:     true,
	}
	opts := reportOpts{
		provFormat: *provFormat, jsonOut: *jsonOut, dotOut: *dotOut,
		withCuckoo: *withCuckoo, withMalfind: *withMalfind,
	}
	switch *triagePolicy {
	case "":
		// scoring off; output identical to pre-triage versions
	case "default":
		opts.policy = triage.Default()
	default:
		pol, err := triage.Load(*triagePolicy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: %v\n", err)
			return 1
		}
		opts.policy = pol
	}

	if *server != "" {
		return runRemote(ctx, remoteArgs{
			base:      *server,
			scenario:  *name,
			file:      *file,
			traceIn:   *traceIn,
			list:      *list,
			strict:    *strict,
			addrDeps:  *addrDeps,
			timeout:   *timeout,
			recordOut: firstNonEmpty(*recordOut, *save),
		}, opts)
	}

	if *list {
		for _, n := range faros.ScenarioNames() {
			fmt.Println(n)
		}
		return 0
	}

	if *traceIn != "" {
		return runFromTrace(ctx, *traceIn, plugins, opts)
	}

	var spec faros.Spec
	if *file != "" {
		loaded, err := samples.LoadScenarioFile(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: %v\n", err)
			return 1
		}
		spec = loaded
	} else {
		loaded, ok := faros.Scenario(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "faros: unknown scenario %q (use -list)\n", *name)
			return 1
		}
		spec = loaded
	}

	fmt.Printf("recording scenario %s...\n", spec.Name)
	log, rec, err := scenario.RecordContext(ctx, spec, nil)
	if err != nil {
		printRunErr("record", err)
		return 1
	}
	fmt.Printf("recorded %d events over %d instructions (%v wall)\n",
		len(log.Events), rec.Summary.Instructions, rec.WallTime)
	out := *recordOut
	if out == "" {
		out = *save
	}
	if out != "" {
		raw, digest, err := scenario.EncodeTrace(spec, log)
		if err == nil {
			err = os.WriteFile(out, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: record-out: %v\n", err)
			return 1
		}
		fmt.Printf("trace saved to %s (%d bytes, digest %s)\n", out, len(raw), digest)
	}

	fmt.Println("replaying with FAROS taint analysis...")
	res, err := scenario.ReplayContext(ctx, spec, log, plugins, nil)
	if err != nil {
		printRunErr("replay", err)
		return 1
	}
	return report(res, opts)
}

// runFromTrace is the -trace path: decode, verify, and replay-analyze a
// recorded trace file; no live guest execution happens.
func runFromTrace(ctx context.Context, path string, plugins scenario.Plugins, opts reportOpts) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faros: %v\n", err)
		return 1
	}
	meta, err := trace.ReadMeta(bytes.NewReader(data))
	if err != nil {
		printRunErr("trace", err)
		return 1
	}
	fmt.Printf("replaying trace %s (scenario %s, %d events, %d instructions) with FAROS taint analysis...\n",
		path, meta.Scenario, meta.Events, meta.FinalInstr)
	res, err := scenario.ReplayTraceContext(ctx, data, plugins)
	if err != nil {
		printRunErr("trace replay", err)
		return 1
	}
	return report(res, opts)
}

// printRunErr renders a failure with a hint when the error type admits one.
func printRunErr(stage string, err error) {
	var de *scenario.DeadlineError
	var mm *trace.MismatchError
	var le *trace.LegacyFormatError
	var dv *record.DivergenceError
	switch {
	case errors.As(err, &de):
		fmt.Fprintf(os.Stderr, "faros: %v (raise -timeout)\n", de)
	case errors.As(err, &mm):
		fmt.Fprintf(os.Stderr, "faros: %s: %v (the trace was recorded against a different binary or sample set)\n", stage, mm)
	case errors.As(err, &le):
		fmt.Fprintf(os.Stderr, "faros: %s: %v\n", stage, le)
	case errors.As(err, &dv):
		fmt.Fprintf(os.Stderr, "faros: %s: %v\n", stage, dv)
	default:
		fmt.Fprintf(os.Stderr, "faros: %s: %v\n", stage, err)
	}
}

// report prints the analysis outputs shared by the live and trace paths.
func report(res *scenario.Result, opts reportOpts) int {
	fmt.Printf("replay finished: %d instructions (%v wall)\n\n", res.Summary.Instructions, res.WallTime)
	fmt.Print(res.Faros.Report())
	if res.Flagged() {
		fmt.Println()
		fmt.Print(res.Faros.TableII())
	}
	// -triage-policy scores each finding against the policy's graph-shape
	// rules; the scores are a pure view over the provenance graphs, so the
	// findings above are unchanged by this section's presence.
	if opts.policy != nil {
		findings := res.Faros.Findings()
		scores := make([]triage.Score, 0, len(findings))
		fmt.Printf("\ntriage (policy %s, %.12s):\n", opts.policy.Name, opts.policy.Hash())
		for _, f := range findings {
			a := opts.policy.ScoreFinding(f.Rule, f.Prov)
			scores = append(scores, a.Score)
			fmt.Printf("  [%-6s] %s %s/%d (rule %s)\n", a.Score, f.Rule, f.ProcName, f.PID, a.Rule)
		}
		fmt.Printf("overall risk: %s\n", triage.Aggregate(scores...))
	}
	// -prov-format text keeps the output exactly as before (the report and
	// Table II already render the chains); json/dot additionally print the
	// merged provenance graph for downstream tooling.
	if opts.provFormat != "text" {
		body, err := res.ProvGraph().Encode(opts.provFormat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: %v\n", err)
			return 1
		}
		fmt.Println()
		fmt.Print(body)
	}
	st := res.Faros.Stats()
	fmt.Printf("\ntaint stats: %d tainted bytes, %d lists, %d export-table reads checked\n",
		st.Taint.TaintedBytes, st.Taint.ListsInterned, st.ExportReads)

	if opts.jsonOut != "" {
		raw, err := res.Faros.JSON()
		if err == nil {
			err = os.WriteFile(opts.jsonOut, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "faros: json: %v\n", err)
			return 1
		}
		fmt.Printf("JSON report written to %s\n", opts.jsonOut)
	}
	if opts.dotOut != "" && res.Flagged() {
		dot := res.Faros.DOT(res.Faros.Findings()[0])
		if err := os.WriteFile(opts.dotOut, []byte(dot), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "faros: dot: %v\n", err)
			return 1
		}
		fmt.Printf("provenance graph written to %s\n", opts.dotOut)
	}

	if opts.withCuckoo && res.Cuckoo != nil {
		fmt.Println()
		fmt.Print(res.Cuckoo.String())
	}
	if opts.withMalfind && res.Malfind != nil {
		fmt.Println()
		fmt.Print(res.Malfind.String())
	}
	return 0
}
