// Package faros is a from-scratch reproduction of FAROS (DSN 2018):
// provenance-based whole-system dynamic information flow tracking for
// flagging in-memory injection attacks.
//
// The package is a facade over the engine's layers:
//
//   - internal/isa, internal/mem, internal/vm — the FAROS-32 CPU and the
//     whole-system virtual machine with PANDA-style plugin hooks;
//   - internal/guest (+gfs, gnet) — WinMini, the Windows-like guest OS:
//     processes, Nt syscalls, loader, kernel export table, files, sockets;
//   - internal/record — deterministic record & replay;
//   - internal/taint, internal/core — the FAROS DIFT engine: provenance
//     tags, shadow state, propagation, and the tag-confluence policy;
//   - internal/baseline — the CuckooBox and Volatility/malfind baselines;
//   - internal/samples, internal/scenario — the attack/benign corpus and
//     the experiment harness.
//
// The quickest path from zero to a detection:
//
//	res, err := faros.Analyze(faros.Scenarios()["reflective_dll_inject"])
//	if err != nil { ... }
//	fmt.Print(res.Faros.Report())
package faros

import (
	"sort"

	"faros/internal/core"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// Config tunes the DIFT engine; the zero value is the paper's policy.
type Config = core.Config

// Finding is one flagged in-memory-injection event.
type Finding = core.Finding

// Spec is a runnable scenario: guest programs, remote endpoints, device
// scripts.
type Spec = samples.Spec

// Result is everything observable from an analyzed run.
type Result = scenario.Result

// Plugins selects which analysis tools attach to a replay.
type Plugins = scenario.Plugins

// Detection rule names.
const (
	RuleNetflowExport     = core.RuleNetflowExport
	RuleForeignCodeExport = core.RuleForeignCodeExport
)

// Analyze runs the paper's §V.C analyst workflow on a scenario: one live
// pass with FAROS, the Cuckoo baseline, the malfind snapshot scan, and OSI
// attached. The guest is deterministic, so the report equals analyzing a
// replay of a fresh recording; record and replay (scenario.RecordContext,
// scenario.ReplayContext) are for recordings that are kept and reused.
func Analyze(spec Spec) (*Result, error) {
	return scenario.Detect(spec)
}

// AnalyzeWith runs a single live pass with only the FAROS engine attached,
// under a custom engine configuration.
func AnalyzeWith(spec Spec, cfg Config) (*Result, error) {
	return scenario.RunLive(spec, scenario.Plugins{Faros: &cfg})
}

// Scenarios returns every built-in scenario by name: the six attacks, the
// transient variant, 20 JIT workloads, 14 benign programs, and the
// 90-sample malware corpus.
func Scenarios() map[string]Spec {
	out := make(map[string]Spec)
	add := func(specs []Spec) {
		for _, s := range specs {
			out[s.Name] = s
		}
	}
	add(samples.Attacks())
	add([]Spec{samples.TransientReflective()})
	add(samples.EvasionScenarios())
	add(samples.JITWorkloads())
	add(samples.BenignPrograms())
	add(samples.MalwareCorpus())
	return out
}

// ScenarioNames returns the built-in scenario names, sorted.
func ScenarioNames() []string {
	m := Scenarios()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Attacks returns the six §VI in-memory-injection scenarios.
func Attacks() []Spec { return samples.Attacks() }
