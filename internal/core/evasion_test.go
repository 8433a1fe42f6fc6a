package core

import (
	"strings"
	"testing"

	"faros/internal/guest"
	"faros/internal/samples"
	"faros/internal/taint"
)

// runSpec executes a sample scenario on a fresh kernel with the config.
func runSpec(t *testing.T, spec samples.Spec, cfg Config) *FAROS {
	t.Helper()
	_, f := runSpecHooked(t, spec, cfg)
	return f
}

// runSpecHooked is runSpec with hooks run against the kernel after FAROS
// attaches and before any process starts; it also returns the kernel.
func runSpecHooked(t *testing.T, spec samples.Spec, cfg Config, hooks ...func(*guest.Kernel, *FAROS)) (*guest.Kernel, *FAROS) {
	t.Helper()
	k, f := newKernelWithFAROS(t, cfg)
	for _, hook := range hooks {
		hook(k, f)
	}
	for name, data := range samples.SeedFiles() {
		k.FS.Install(name, data)
	}
	for _, p := range spec.Programs {
		k.FS.Install(p.Path, p.Bytes)
	}
	for _, ep := range spec.Endpoints {
		k.Net.AddEndpoint(ep.Addr, ep.Endpoint)
	}
	for _, ev := range spec.Events {
		k.ScheduleEvent(ev)
	}
	for _, path := range spec.AutoStart {
		if _, err := k.Spawn(path, false, 0); err != nil {
			t.Fatal(err)
		}
	}
	budget := spec.MaxInstr
	if budget == 0 {
		budget = 5_000_000
	}
	if _, err := k.Run(budget); err != nil {
		t.Fatal(err)
	}
	return k, f
}

func TestResolvedAPINamesInFindings(t *testing.T) {
	f := runSpec(t, samples.ReflectiveDLLInject(), Config{})
	if !f.Flagged() {
		t.Fatal("not flagged")
	}
	resolved := make(map[string]bool)
	for _, fd := range f.Findings() {
		if fd.ResolvedAPI != "" {
			resolved[fd.ResolvedAPI] = true
		}
	}
	// The reflective loader resolves the three functions the paper names.
	if len(resolved) == 0 {
		t.Fatal("no resolved API names attributed")
	}
	report := f.Report()
	if !strings.Contains(report, "resolving API:") {
		t.Errorf("report missing API attribution:\n%s", report)
	}
}

func TestEvasionHardcodedStubsMissedByDefault(t *testing.T) {
	f := runSpec(t, samples.EvasionHardcodedStubs(), Config{})
	if f.Flagged() {
		t.Errorf("default policy should miss the stub-address evasion:\n%s", f.Report())
	}
}

func TestEvasionHardcodedStubsCaughtByStrictMode(t *testing.T) {
	f := runSpec(t, samples.EvasionHardcodedStubs(), Config{StrictExecCheck: true})
	if !f.Flagged() {
		t.Fatal("strict mode missed the stub-address evasion")
	}
	fd := f.Findings()[0]
	if fd.Rule != RuleForeignCodeExec {
		t.Errorf("rule = %s", fd.Rule)
	}
	if !f.T.Has(fd.InstrProv, taint.TagNetflow) {
		t.Errorf("instr prov = %s", f.T.Render(fd.InstrProv))
	}
}

func TestEvasionBitLaunderingDefeatsBothPolicies(t *testing.T) {
	// The paper's acknowledged limitation (§VI.D): a control-dependency
	// copy strips taint, so neither policy can see the payload.
	for _, cfg := range []Config{{}, {StrictExecCheck: true}} {
		f := runSpec(t, samples.EvasionBitLaundering(), cfg)
		if f.Flagged() {
			t.Errorf("laundered payload flagged under %+v (expected documented miss):\n%s", cfg, f.Report())
		}
	}
}

func TestBitLaunderedPayloadStillExecutes(t *testing.T) {
	// Sanity: the evasion actually works as an attack (the payload runs),
	// otherwise the miss would be vacuous.
	spec := samples.EvasionBitLaundering()
	k, f := newKernelWithFAROS(t, Config{})
	for _, p := range spec.Programs {
		k.FS.Install(p.Path, p.Bytes)
	}
	for _, ep := range spec.Endpoints {
		k.Net.AddEndpoint(ep.Addr, ep.Endpoint)
	}
	for _, path := range spec.AutoStart {
		if _, err := k.Spawn(path, false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(spec.MaxInstr); err != nil {
		t.Fatal(err)
	}
	ran := false
	for _, mb := range k.MessageBoxes {
		if strings.Contains(mb, "laundered payload ran") {
			ran = true
		}
	}
	if !ran {
		t.Fatalf("laundered payload never executed; boxes=%v console=%v", k.MessageBoxes, k.Console)
	}
	if f.Flagged() {
		t.Error("unexpected flag")
	}
}

func TestStrictModeFlagsDownloadedPluginFalsePositive(t *testing.T) {
	// The documented cost of strict mode: benign software executing
	// downloaded code (the plugin updater) is flagged.
	var updater samples.Spec
	for _, s := range samples.BenignPrograms() {
		if strings.Contains(s.Name, "software_updater") {
			updater = s
		}
	}
	if updater.Name == "" {
		t.Fatal("updater scenario missing")
	}
	if f := runSpec(t, updater, Config{}); f.Flagged() {
		t.Errorf("default policy flagged the updater:\n%s", f.Report())
	}
	if f := runSpec(t, updater, Config{StrictExecCheck: true}); !f.Flagged() {
		t.Error("strict mode should flag downloaded plugin execution (documented trade-off)")
	}
}
