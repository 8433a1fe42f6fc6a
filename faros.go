// Package faros is a from-scratch reproduction of FAROS (DSN 2018):
// provenance-based whole-system dynamic information flow tracking for
// flagging in-memory injection attacks.
//
// The package is a facade over the engine's layers:
//
//   - internal/isa, internal/mem, internal/vm — the FAROS-32 CPU and the
//     whole-system virtual machine, which runs guest code as cached
//     micro-op blocks that an attached engine executes with its taint
//     effects compiled in;
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
//	spec, _ := faros.Scenario("reflective_dll_inject")
//	res, err := faros.Analyze(spec)
//	if err != nil { ... }
//	fmt.Print(res.Faros.Report())
package faros

import (
	"context"
	"maps"
	"slices"
	"sync"

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
	return scenario.RunLiveContext(context.Background(), spec, scenario.DetectPlugins(), nil)
}

// AnalyzeWith runs a single live pass with only the FAROS engine attached,
// under a custom engine configuration.
func AnalyzeWith(spec Spec, cfg Config) (*Result, error) {
	return scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{Faros: &cfg}, nil)
}

// registry builds the built-in scenario namespace once: the specs by name
// and their names, sorted. The specs are shared by every caller, so no run
// may write into a spec's programs, endpoint payloads or events;
// TestSharedRegistrySafety holds every run to that.
var registry = sync.OnceValues(func() (map[string]Spec, []string) {
	byName := make(map[string]Spec)
	for _, specs := range [][]Spec{
		samples.Attacks(),
		{samples.TransientReflective()},
		samples.EvasionScenarios(),
		samples.JITWorkloads(),
		samples.BenignPrograms(),
		samples.MalwareCorpus(),
	} {
		for _, s := range specs {
			byName[s.Name] = s
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	slices.Sort(names)
	return byName, names
})

// Scenario looks up one built-in scenario by name. It does not allocate:
// the namespace is built once, on first use, and the returned spec shares
// its programs, endpoints and events with every other caller, so treat it
// as read-only.
func Scenario(name string) (Spec, bool) {
	byName, _ := registry()
	spec, ok := byName[name]
	return spec, ok
}

// Scenarios returns every built-in scenario by name: the six attacks, the
// transient variant, the two evasion variants, 20 JIT workloads, 14 benign
// programs, and the 90-sample malware corpus (133 in all). The namespace
// is built once; each call returns a fresh map the caller owns, whose
// specs are shared read-only as with Scenario.
func Scenarios() map[string]Spec {
	byName, _ := registry()
	return maps.Clone(byName)
}

// ScenarioNames returns the built-in scenario names, sorted, in a fresh
// slice the caller owns.
func ScenarioNames() []string {
	_, names := registry()
	return slices.Clone(names)
}

// Attacks returns the six §VI in-memory-injection scenarios.
func Attacks() []Spec { return samples.Attacks() }
