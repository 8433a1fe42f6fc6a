// Policy lab: explore the indirect-flow trade-off of §III–IV interactively.
// Runs the paper's Figure 1 (lookup-table copy) and Figure 2 (bit-by-bit
// copy) workloads under the default policy and under address-dependency
// propagation, plus a JIT workload, showing undertainting, overtainting,
// and why FAROS bets on tag confluence instead.
//
//	go run ./examples/policy_lab
package main

import (
	"context"
	"fmt"
	"os"

	"faros/internal/core"
	"faros/internal/report"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/taint"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "policy_lab:", err)
		os.Exit(1)
	}
}

func inspect(w samples.IndirectWorkload, cfg core.Config) (outputTainted bool, totalTainted int, err error) {
	res, err := scenario.RunLiveContext(context.Background(), w.Spec, scenario.Plugins{Faros: &cfg}, nil)
	if err != nil {
		return false, 0, err
	}
	procs := res.Kernel.Processes()
	p := procs[len(procs)-1]
	id := res.Faros.ProvOf(p.Space, w.DstVA, int(w.Len))
	return res.Faros.T.Has(id, taint.TagNetflow), res.Faros.T.TaintedBytes(), nil
}

func run() error {
	t := report.New("Indirect-flow policy lab", "Workload", "Policy", "Output tainted", "System tainted bytes")
	workloads := []struct {
		name string
		mk   func() samples.IndirectWorkload
	}{
		{"Figure 1 (lookup table)", samples.Figure1Workload},
		{"Figure 2 (bit-by-bit)", samples.Figure2Workload},
		{"decoder (3 lookup generations)", samples.OvertaintWorkload},
	}
	for _, w := range workloads {
		for _, pol := range []struct {
			name string
			cfg  core.Config
		}{
			{"default", core.Config{}},
			{"addr-deps", core.Config{PropagateAddrDeps: true}},
		} {
			tainted, total, err := inspect(w.mk(), pol.cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			t.Add(w.name, pol.name, report.YesNo(tainted), total)
		}
	}
	fmt.Print(t.String())

	fmt.Println("\nWhy it matters: the attack detection does not depend on winning this")
	fmt.Println("trade-off. A JIT-like workload under the default policy:")
	leaky := samples.JITWorkload(1, "equilibrium", true, true)
	res, err := scenario.RunLiveContext(context.Background(), leaky, scenario.Plugins{Faros: &core.Config{}}, nil)
	if err != nil {
		return err
	}
	fmt.Print(res.Faros.Report())
	fmt.Println("That is the paper's JIT false-positive mechanism: network bytes linked")
	fmt.Println("and loaded as code are indistinguishable from an injection by design.")
	return nil
}
