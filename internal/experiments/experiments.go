// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) plus the ablations called out in DESIGN.md. Each
// experiment returns its rendered output; cmd/farosbench prints them and
// the root bench_test.go wraps them in testing.B benchmarks. The corpus
// sweeps fan their live runs out over the cores (see pool.go) instead of
// running them serially.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"faros/internal/core"
	"faros/internal/provgraph"
	"faros/internal/report"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/taint"
)

// Detection reproduces the §VI headline: FAROS flags all six in-memory
// injection attacks.
func Detection() (string, error) {
	t := report.New("Detection of in-memory injection attacks (paper §VI: 6/6 flagged)",
		"Attack", "Technique", "Victim", "Flagged", "Rule", "Findings")
	techniques := map[string]string{
		"reflective_dll_inject": "reflective DLL injection",
		"reverse_tcp_dns":       "reflective DLL injection (self)",
		"bypassuac_injection":   "reflective DLL injection",
		"process_hollowing":     "process hollowing/replacement",
		"darkcomet":             "code/process injection",
		"njrat":                 "code/process injection",
	}
	specs := samples.Attacks()
	results, err := detectAll(specs)
	if err != nil {
		return "", err
	}
	for i, spec := range specs {
		res := results[i]
		victim, rule := "-", "-"
		if res.Flagged() {
			fd := res.Faros.Findings()[0]
			victim, rule = fd.ProcName, fd.Rule
		}
		t.Add(spec.Name, techniques[spec.Name], victim,
			report.YesNo(res.Flagged()), rule, len(res.Faros.Findings()))
	}
	return t.String(), nil
}

// tableIIWithGraph reproduces the paper's Table II — FAROS output for the
// reflective DLL injection: flagged instruction addresses with their
// provenance lists — and also returns the run's merged provenance graph
// (the structured source the text is a view over).
func tableIIWithGraph() (string, *provgraph.Graph, error) {
	res, err := scenario.RunLiveContext(context.Background(), samples.ReflectiveDLLInject(), scenario.DetectPlugins(), nil)
	if err != nil {
		return "", nil, err
	}
	if !res.Flagged() {
		return "", nil, fmt.Errorf("reflective injection not flagged")
	}
	return "Table II — FAROS output for reflective DLL injection\n" + res.Faros.TableII(), res.ProvGraph(), nil
}

// figureSpec maps figure numbers to their scenarios.
func figureSpec(n int) (samples.Spec, string, error) {
	switch n {
	case 7:
		return samples.ReflectiveDLLInject(), "Fig 7 — reflective DLL injection (Meterpreter module)", nil
	case 8:
		return samples.ReverseTCPDNS(), "Fig 8 — reflective DLL injection (reverse_tcp_dns, self-injection)", nil
	case 9:
		return samples.BypassUAC(), "Fig 9 — reflective DLL injection (bypassuac_injection, firefox.exe)", nil
	case 10:
		return samples.ProcessHollowing(), "Fig 10 — process hollowing/replacement (svchost.exe)", nil
	}
	return samples.Spec{}, "", fmt.Errorf("no figure %d", n)
}

// figureWithGraph reproduces one of Figures 7–10 — the provenance chain
// captured for the flagged instruction — and also returns the flagged
// finding's provenance graph.
func figureWithGraph(n int) (string, *provgraph.Graph, error) {
	spec, title, err := figureSpec(n)
	if err != nil {
		return "", nil, err
	}
	res, err := scenario.RunLiveContext(context.Background(), spec, scenario.DetectPlugins(), nil)
	if err != nil {
		return "", nil, err
	}
	if !res.Flagged() {
		return "", nil, fmt.Errorf("%s: not flagged", spec.Name)
	}
	fd := res.Faros.Findings()[0]
	var sb strings.Builder
	sb.WriteString(title + "\n")
	sb.WriteString(res.Faros.RenderFinding(fd))
	return sb.String(), fd.Prov, nil
}

// TableIII reproduces the JIT false-positive analysis: 10 Java applets and
// 10 AJAX websites; the paper flags 2 of the applets (10%).
func TableIII() (string, error) {
	t := report.New("Table III — JIT workloads (Java applets / AJAX websites)",
		"Workload", "Kind", "Flagged", "Rule")
	applets := samples.JavaApplets()
	flagged := 0
	specs := samples.JITWorkloads()
	results, err := liveAll(specs, core.Config{})
	if err != nil {
		return "", err
	}
	for i, spec := range specs {
		res := results[i]
		kind := "AJAX website"
		name := spec.Name
		if i < len(applets) {
			kind = "Java applet"
			name = applets[i]
		} else {
			name = samples.AJAXSites()[i-len(applets)]
		}
		rule := ""
		if res.Flagged() {
			flagged++
			rule = res.Faros.Findings()[0].Rule
		}
		t.Add(name, kind, report.YesNo(res.Flagged()), rule)
	}
	out := t.String()
	out += fmt.Sprintf("\nflagged %d/20 (paper: 2/20, both Java applets)\n", flagged)
	return out, nil
}

// TableIV reproduces the false-positive corpus: 90 non-injecting malware
// samples plus 14 benign programs; the paper reports a 0%% rate on this
// set.
func TableIV() (string, error) {
	famTable := report.New("Table IV — malware families and behaviours (17 families, 90 sample variants)",
		"Family", "Idle", "Run", "Audio", "FileXfer", "Keylog", "RDesk", "Upload", "Download", "Shell")
	for _, fam := range samples.MalwareFamilies() {
		has := make(map[samples.Behavior]bool)
		for _, b := range fam.Behaviors {
			has[b] = true
		}
		famTable.Add(fam.Name,
			report.Check(has[samples.BIdle]), report.Check(has[samples.BRun]),
			report.Check(has[samples.BAudioRecord]), report.Check(has[samples.BFileTransfer]),
			report.Check(has[samples.BKeylogger]), report.Check(has[samples.BRemoteDesktop]),
			report.Check(has[samples.BUpload]), report.Check(has[samples.BDownload]),
			report.Check(has[samples.BRemoteShell]))
	}

	run := func(specs []samples.Spec) (int, int, []string, error) {
		results, err := liveAll(specs, core.Config{})
		if err != nil {
			return 0, 0, nil, err
		}
		fps := 0
		var names []string
		for i, res := range results {
			if res.Flagged() {
				fps++
				names = append(names, specs[i].Name)
			}
		}
		return len(specs), fps, names, nil
	}
	malN, malFP, malNames, err := run(samples.MalwareCorpus())
	if err != nil {
		return "", err
	}
	benSpecs := samples.BenignPrograms()
	benN, benFP, benNames, err := run(benSpecs)
	if err != nil {
		return "", err
	}

	var sb strings.Builder
	sb.WriteString(famTable.String())
	sum := report.New("\nFalse-positive summary", "Corpus", "Samples", "False positives", "Rate")
	rate := func(fp, n int) string { return fmt.Sprintf("%.1f%%", 100*float64(fp)/float64(n)) }
	sum.Add("non-injecting malware", malN, malFP, rate(malFP, malN))
	sum.Add("benign software", benN, benFP, rate(benFP, benN))
	sum.Add("total", malN+benN, malFP+benFP, rate(malFP+benFP, malN+benN))
	sb.WriteString(sum.String())
	if malFP+benFP > 0 {
		fmt.Fprintf(&sb, "false positives: %v %v\n", malNames, benNames)
	}
	sb.WriteString("(paper: 0% on this corpus; its overall 2% comes from the Table III JIT workloads)\n")
	return sb.String(), nil
}

// TableV reproduces the performance evaluation: replay time without and
// with the FAROS plugin for six applications. Absolute times reflect this
// Go simulator, not QEMU on the paper's i7-6700K; the shape (slowdown ≫1×,
// growing with workload complexity) is the reproduction target.
func TableV() (string, error) {
	t := report.New("Table V — replay time without/with FAROS",
		"Application", "Instructions", "Replay w/o FAROS", "Replay w/ FAROS", "X overhead")
	var total float64
	rows := 0
	for _, w := range samples.PerfWorkloads() {
		row, err := MeasurePerf(w)
		if err != nil {
			return "", fmt.Errorf("%s: %w", w.Display, err)
		}
		t.Add(row.Application, row.Instructions, row.ReplayPlain, row.ReplayFAROS, row.Slowdown)
		total += row.Slowdown
		rows++
	}
	out := t.String()
	out += fmt.Sprintf("\naverage slowdown: %.1fx (paper: 14x vs PANDA replay on real hardware)\n", total/float64(rows))
	return out, nil
}

// CuckooComparison reproduces §VI.B: what each tool can conclude about
// each attack class, including the transient variant that defeats the
// snapshot scanner.
func CuckooComparison() (string, error) {
	t := report.New("§VI.B — FAROS vs CuckooBox/malfind",
		"Attack", "Cuckoo flags", "malfind flags", "FAROS flags", "Provenance", "Netflow link")
	cases := []samples.Spec{
		samples.ReflectiveDLLInject(),
		samples.ProcessHollowing(),
		samples.DarkComet(),
		samples.TransientReflective(),
	}
	results, err := detectAll(cases)
	if err != nil {
		return "", err
	}
	for i, spec := range cases {
		res := results[i]
		cuckooFlag := res.Cuckoo != nil && res.Cuckoo.FlaggedInjection()
		malfindFlag := res.Malfind != nil && res.Malfind.Flagged()
		prov, netlink := "none", "no"
		if res.Flagged() {
			prov = "full chronology"
			fd := res.Faros.Findings()[0]
			if res.Faros.T.Has(fd.InstrProv, taint.TagNetflow) {
				netlink = "yes"
			}
		}
		t.Add(spec.Name, report.YesNo(cuckooFlag), report.YesNo(malfindFlag),
			report.YesNo(res.Flagged()), prov, netlink)
	}
	out := t.String()
	out += "\nCuckoo sees API sequences but never the injected module or its origin;\n" +
		"malfind needs the payload to persist until the snapshot (the transient\n" +
		"variant erases itself); only FAROS links the attack to its netflow.\n"
	return out, nil
}

// IndirectFlows reproduces Figures 1–2: what the default policy does with
// address and control dependencies, and what the address-dependency
// ablation changes.
func IndirectFlows() (string, error) {
	t := report.New("Figs 1-2 — indirect flows under the FAROS policy",
		"Workload", "Policy", "Output tainted", "Tainted bytes total")
	runOne := func(w samples.IndirectWorkload, cfg core.Config, policy string) error {
		res, err := scenario.RunLiveContext(context.Background(), w.Spec, scenario.Plugins{Faros: &cfg}, nil)
		if err != nil {
			return err
		}
		procs := res.Kernel.Processes()
		p := procs[len(procs)-1]
		id := res.Faros.ProvOf(p.Space, w.DstVA, int(w.Len))
		tainted := res.Faros.T.Has(id, taint.TagNetflow)
		t.Add(w.Spec.Name, policy, report.YesNo(tainted), res.Faros.T.TaintedBytes())
		return nil
	}
	fig1 := samples.Figure1Workload()
	if err := runOne(fig1, core.Config{}, "default (no indirect flows)"); err != nil {
		return "", err
	}
	if err := runOne(samples.Figure1Workload(), core.Config{PropagateAddrDeps: true}, "address deps propagated"); err != nil {
		return "", err
	}
	if err := runOne(samples.Figure2Workload(), core.Config{}, "default (no indirect flows)"); err != nil {
		return "", err
	}
	if err := runOne(samples.Figure2Workload(), core.Config{PropagateAddrDeps: true}, "address deps propagated"); err != nil {
		return "", err
	}
	out := t.String()
	out += "\nFigure 1's lookup copy is invisible without address-dependency propagation\n" +
		"(undertainting); Figure 2's bit-wise copy evades even that (control deps are\n" +
		"never propagated) — the paper's motivation for confluence-based policy.\n"
	return out, nil
}

// AblateAddrDeps quantifies the overtainting blow-up when address
// dependencies are propagated, on a decoder-style workload (three
// generations of table lookups over a 1 KiB tainted download).
func AblateAddrDeps() (string, error) {
	t := report.New("Ablation — address-dependency propagation (overtainting)",
		"Policy", "Tainted bytes", "Final output tainted", "Shadow writes", "Flagged")
	for _, cfg := range []struct {
		name string
		c    core.Config
	}{
		{"default", core.Config{}},
		{"addr-deps on", core.Config{PropagateAddrDeps: true}},
	} {
		w := samples.OvertaintWorkload()
		res, err := scenario.RunLiveContext(context.Background(), w.Spec, scenario.Plugins{Faros: &cfg.c}, nil)
		if err != nil {
			return "", err
		}
		procs := res.Kernel.Processes()
		p := procs[len(procs)-1]
		id := res.Faros.ProvOf(p.Space, w.DstVA, int(w.Len))
		st := res.Faros.Stats()
		t.Add(cfg.name, st.Taint.TaintedBytes,
			report.YesNo(res.Faros.T.Has(id, taint.TagNetflow)),
			st.Taint.ShadowWrites, report.YesNo(res.Flagged()))
	}
	out := t.String()
	out += "\nPropagating address dependencies multiplies the tainted working set on an\n" +
		"ordinary decoder; the default policy keeps taint tight and relies on tag\n" +
		"confluence instead (§IV).\n"
	return out, nil
}

// AblateProcTag shows that process-tag insertion is load-bearing: without
// it the hollowing attack (no netflow tag) cannot be flagged.
func AblateProcTag() (string, error) {
	t := report.New("Ablation — process-tag insertion on stores",
		"Policy", "Hollowing flagged", "Reflective flagged")
	for _, cfg := range []struct {
		name string
		c    core.Config
	}{
		{"default", core.Config{}},
		{"proc tags off", core.Config{NoProcessTags: true}},
	} {
		h, err := scenario.RunLiveContext(context.Background(), samples.ProcessHollowing(), scenario.Plugins{Faros: &cfg.c}, nil)
		if err != nil {
			return "", err
		}
		cfg2 := cfg.c
		r, err := scenario.RunLiveContext(context.Background(), samples.ReflectiveDLLInject(), scenario.Plugins{Faros: &cfg2}, nil)
		if err != nil {
			return "", err
		}
		t.Add(cfg.name, report.YesNo(h.Flagged()), report.YesNo(r.Flagged()))
	}
	return t.String(), nil
}

// AblateListCap sweeps the provenance-list cap: detection must survive
// truncation because the cap preserves the origin tag.
func AblateListCap() (string, error) {
	t := report.New("Ablation — provenance list cap",
		"Cap", "Flagged", "Lists interned", "Lists truncated")
	caps := []int{2, 4, 8, 16, 32}
	runs := make([]sweepRun, len(caps))
	for i, capSize := range caps {
		runs[i] = sweepRun{samples.ReflectiveDLLInject(), scenario.Plugins{Faros: &core.Config{ListCap: capSize}}}
	}
	results, err := runAll(runs)
	if err != nil {
		return "", err
	}
	for i, res := range results {
		st := res.Faros.Stats()
		t.Add(caps[i], report.YesNo(res.Flagged()), st.Taint.ListsInterned, st.Taint.ListsTruncated)
	}
	return t.String(), nil
}

// Evasion reproduces the §VI.D discussion: attacker techniques aimed at
// the policy, under the default policy and the StrictExecCheck extension
// ("it will be possible to update the policy, and even to do so
// proactively").
func Evasion() (string, error) {
	t := report.New("§VI.D — evasion techniques vs policy variants",
		"Technique", "Default policy", "Strict exec policy", "Notes")
	type rowSpec struct {
		spec  samples.Spec
		label string
		notes string
	}
	rows := []rowSpec{
		{samples.ReflectiveDLLInject(), "export-table walk (baseline attack)", "the normal case"},
		{samples.EvasionHardcodedStubs(), "hardcoded API stub addresses", "no tagged read; strict mode flags tainted code executing"},
		{samples.EvasionBitLaundering(), "bit-by-bit taint laundering", "control-dependency copy strips tags (acknowledged limit)"},
	}
	runs := make([]sweepRun, 0, 2*len(rows))
	for _, r := range rows {
		runs = append(runs,
			sweepRun{r.spec, scenario.Plugins{Faros: &core.Config{}}},
			sweepRun{r.spec, scenario.Plugins{Faros: &core.Config{StrictExecCheck: true}}})
	}
	results, err := runAll(runs)
	if err != nil {
		return "", err
	}
	for i, r := range rows {
		def, strict := results[2*i], results[2*i+1]
		t.Add(r.label, report.YesNo(def.Flagged()), report.YesNo(strict.Flagged()), r.notes)
	}
	out := t.String()
	out += "\nStrict mode trades precision for recall: it also flags benign software\n" +
		"that executes downloaded code (e.g. the plugin updater in the benign\n" +
		"corpus), which is why it ships off by default.\n"
	return out, nil
}

// experiment is one registry entry: a name and the function that runs it,
// returning the text output and, for Table II and the figures, the
// provenance graph the text is a view over.
type experiment struct {
	name string
	run  func() (string, *provgraph.Graph, error)
}

// registry holds every experiment, in run order.
var registry = []experiment{
	{"detect", graphless(Detection)},
	{"table2", tableIIWithGraph},
	{"fig7", figure(7)},
	{"fig8", figure(8)},
	{"fig9", figure(9)},
	{"fig10", figure(10)},
	{"table3", graphless(TableIII)},
	{"table4", graphless(TableIV)},
	{"table5", graphless(TableV)},
	{"perf", graphless(Perf)},
	{"cuckoo", graphless(CuckooComparison)},
	{"indirect", graphless(IndirectFlows)},
	{"ablate-addr", graphless(AblateAddrDeps)},
	{"ablate-proctag", graphless(AblateProcTag)},
	{"ablate-cap", graphless(AblateListCap)},
	{"evasion", graphless(Evasion)},
	{"chaos", graphless(Chaos)},
	{"triage", graphless(TriageSweep)},
}

// graphless adapts an experiment that renders no provenance graph.
func graphless(run func() (string, error)) func() (string, *provgraph.Graph, error) {
	return func() (string, *provgraph.Graph, error) {
		out, err := run()
		return out, nil, err
	}
}

// figure is the registry entry for Figure n.
func figure(n int) func() (string, *provgraph.Graph, error) {
	return func() (string, *provgraph.Graph, error) { return figureWithGraph(n) }
}

// Names returns the experiment identifiers.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// lookup runs the named experiment.
func lookup(name string) (string, *provgraph.Graph, error) {
	for _, e := range registry {
		if e.name == name {
			return e.run()
		}
	}
	return "", nil, fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
}

// Options tunes how RunWith renders an experiment.
type Options struct {
	// ProvFormat additionally renders the experiment's provenance graph
	// after the classic text output: "json" or "dot". "" or "text" keeps
	// the output exactly as Run produces it (the figures and Table II
	// already render the chains as text). Experiments without a provenance
	// graph (the sweeps and ablations) ignore it.
	ProvFormat string
}

// RunWith executes one named experiment with rendering options.
func RunWith(name string, opts Options) (string, error) {
	out, g, err := lookup(name)
	if err != nil {
		return "", err
	}
	if g == nil || opts.ProvFormat == "" || opts.ProvFormat == "text" {
		return out, nil
	}
	body, err := g.Encode(opts.ProvFormat)
	if err != nil {
		return "", err
	}
	return out + "\n" + body, nil
}

// Run executes one named experiment.
func Run(name string) (string, error) {
	out, _, err := lookup(name)
	return out, err
}
