package faros_test

import (
	"fmt"

	"faros"
)

// ExampleAnalyze runs the paper's headline attack through the full
// record-and-replay workflow and reports the verdict.
func ExampleAnalyze() {
	spec, _ := faros.Scenario("reflective_dll_inject")
	res, err := faros.Analyze(spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fd := res.Faros.Findings()[0]
	fmt.Println("flagged:", res.Flagged())
	fmt.Println("rule:", fd.Rule)
	fmt.Println("victim:", fd.ProcName)
	fmt.Println("provenance:", res.Faros.T.Render(fd.InstrProv))
	// Output:
	// flagged: true
	// rule: netflow-export
	// victim: notepad.exe
	// provenance: NetFlow: {src ip,port: 169.254.26.161:4444, dest ip,port: 169.254.57.168:49152} ->Process: inject_client.exe ->Process: notepad.exe;
}

// ExampleAnalyzeWith shows a policy ablation: disabling the rule that
// catches local-payload hollowing makes FAROS miss it.
func ExampleAnalyzeWith() {
	spec, _ := faros.Scenario("process_hollowing")
	normal, _ := faros.AnalyzeWith(spec, faros.Config{})
	ablated, _ := faros.AnalyzeWith(spec, faros.Config{DisableForeignCodeRule: true})
	fmt.Println("default policy flags hollowing:", normal.Flagged())
	fmt.Println("without the foreign-code rule:", ablated.Flagged())
	// Output:
	// default policy flags hollowing: true
	// without the foreign-code rule: false
}
