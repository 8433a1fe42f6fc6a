package experiments

import (
	"context"
	"fmt"
	"strings"

	"faros/internal/core"
	"faros/internal/faults"
	"faros/internal/report"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/taint"
)

// ChaosSeed is the fixed seed of the chaos experiment; one seed, one
// byte-identical report.
const ChaosSeed = 0xFA405

// chaosPlan is the published fault plan: ≥20% packet loss and corruption,
// duplication, reordering, short reads, and transient syscall failures.
func chaosPlan() *faults.Plan {
	return &faults.Plan{
		Seed: ChaosSeed,
		Net: faults.NetPlan{
			Drop:      0.25,
			Corrupt:   0.20,
			Duplicate: 0.10,
			Reorder:   0.20,
			ShortRead: 0.25,
		},
		Syscall: faults.SyscallPlan{FailRate: 0.15, MaxConsecutive: 2},
	}
}

// Chaos runs the detection and false-positive evaluations under the seeded
// fault plan, then reruns everything with the same seed and verifies the
// two reports are byte-identical — the robustness claim in one experiment:
// detection keys on information flow, not on a clean run.
func Chaos() (string, error) {
	first, err := chaosReport()
	if err != nil {
		return "", err
	}
	second, err := chaosReport()
	if err != nil {
		return "", fmt.Errorf("chaos rerun: %w", err)
	}
	out := first
	if first == second {
		out += fmt.Sprintf("\ndeterminism: rerun with seed 0x%X reproduced the report byte-for-byte\n", ChaosSeed)
	} else {
		out += "\ndeterminism: FAILED — rerun with the same seed produced a different report\n"
	}
	return out, nil
}

// chaosReport renders one full chaos pass. It must be deterministic: no
// wall-clock times, no map-order iteration.
func chaosReport() (string, error) {
	var sb strings.Builder
	plan := chaosPlan()
	fmt.Fprintf(&sb, "Chaos experiment — seed 0x%X, drop %.0f%%, corrupt %.0f%%, dup %.0f%%, reorder %.0f%%, short-read %.0f%%, syscall-fail %.0f%%\n\n",
		plan.Seed, plan.Net.Drop*100, plan.Net.Corrupt*100, plan.Net.Duplicate*100,
		plan.Net.Reorder*100, plan.Net.ShortRead*100, plan.Syscall.FailRate*100)

	// 1. All six attacks, full record+replay detection under faults.
	att := report.New("Attack detection under chaos (expect 6/6 flagged, replay bit-exact)",
		"Attack", "Flagged", "Rule", "Rule OK", "Netflow link", "Replay", "Faults injected")
	for _, spec := range samples.Attacks() {
		res, injected, err := detectChaos(spec, plan)
		if err != nil {
			return "", fmt.Errorf("%s: %w", spec.Name, err)
		}
		rule, netlink := "-", "no"
		if res.Flagged() {
			fd := res.Faros.Findings()[0]
			rule = fd.Rule
			if res.Faros.T.Has(fd.InstrProv, taint.TagNetflow) {
				netlink = "yes"
			}
		}
		att.Add(spec.Name, report.YesNo(res.Flagged()), rule,
			report.YesNo(rule == spec.ExpectRule), netlink,
			"bit-exact", injected.Total())
	}
	sb.WriteString(att.String())

	// 2. False-positive corpus under the same plan.
	fp := report.New("\nFalse positives under chaos (expect 0 new)",
		"Corpus", "Samples", "False positives")
	countFPs := func(specs []samples.Spec) (int, []string, error) {
		n := 0
		var names []string
		for _, spec := range specs {
			res, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{Faros: &core.Config{}}, plan)
			if err != nil {
				return 0, nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			if res.Err != nil {
				return 0, nil, fmt.Errorf("%s degraded: %w", spec.Name, res.Err)
			}
			if res.Flagged() {
				n++
				names = append(names, spec.Name)
			}
		}
		return n, names, nil
	}
	malware := samples.MalwareCorpus()
	malFP, malNames, err := countFPs(malware)
	if err != nil {
		return "", err
	}
	benign := samples.BenignPrograms()
	benFP, benNames, err := countFPs(benign)
	if err != nil {
		return "", err
	}
	fp.Add("non-injecting malware", len(malware), malFP)
	fp.Add("benign software", len(benign), benFP)
	sb.WriteString(fp.String())
	if malFP+benFP > 0 {
		fmt.Fprintf(&sb, "false positives: %v %v\n", malNames, benNames)
	}

	// 3. Guest-fault resilience: code flips and wild jumps aimed at a
	// bystander while the reflective injection runs.
	guestPlan := *plan
	guestPlan.Guest = faults.GuestPlan{FlipRate: 0.05, ProbeRate: 0.05, Targets: []string{"bystander.exe"}}
	res, err := scenario.RunLiveContext(context.Background(), samples.ChaosResilience(), scenario.Plugins{Faros: &core.Config{}}, &guestPlan)
	if err != nil {
		return "", fmt.Errorf("chaos_resilience: %w", err)
	}
	rs := report.New("\nGuest-fault resilience (bystander faulted, attack must still flag)",
		"Scenario", "Flagged", "Guest exceptions", "Run completed", "Faults injected")
	rs.Add(res.Name, report.YesNo(res.Flagged()), len(res.Summary.Faults),
		report.YesNo(res.Err == nil), res.Faults.Total())
	sb.WriteString(rs.String())
	for _, exc := range res.Summary.Faults {
		fmt.Fprintf(&sb, "  exception: %s\n", exc)
	}
	return sb.String(), nil
}

// detectChaos is scenario.DetectContext, but failing loudly on divergence so
// the table's "bit-exact" column is honest. It also returns the record
// pass's fault stats: network faults fire only live (replay preloads the
// logged wire stream), so the replay result alone would undercount.
func detectChaos(spec samples.Spec, plan *faults.Plan) (*scenario.Result, faults.Stats, error) {
	log, recRes, err := scenario.RecordContext(context.Background(), spec, plan)
	if err != nil {
		return nil, faults.Stats{}, err
	}
	res, err := scenario.ReplayContext(context.Background(), spec, log, scenario.Plugins{
		Faros:   &core.Config{},
		Cuckoo:  true,
		Malfind: true,
		OSI:     true,
	}, plan)
	if err != nil {
		return nil, faults.Stats{}, err
	}
	if res.Err != nil {
		return nil, faults.Stats{}, res.Err
	}
	return res, recRes.Faults, nil
}
