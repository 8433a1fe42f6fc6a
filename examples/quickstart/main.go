// Quickstart: analyze the paper's headline attack — a Meterpreter-style
// reflective DLL injection into notepad.exe — and print what FAROS sees.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"faros"
)

func main() {
	spec, ok := faros.Scenario("reflective_dll_inject")
	if !ok {
		fmt.Fprintln(os.Stderr, "quickstart: no reflective_dll_inject scenario")
		os.Exit(1)
	}

	fmt.Println("running the attack with FAROS attached...")
	res, err := faros.Analyze(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}

	// Proof the payload actually ran inside the victim.
	for _, mb := range res.MessageBoxes {
		fmt.Println("guest message box:", mb)
	}

	fmt.Println()
	fmt.Print(res.Faros.Report())
	fmt.Println()
	fmt.Println("Table II view (flagged addresses with provenance):")
	fmt.Print(res.Faros.TableII())

	if !res.Flagged() {
		fmt.Fprintln(os.Stderr, "unexpected: attack not flagged")
		os.Exit(1)
	}
	fd := res.Faros.Findings()[0]
	fmt.Printf("\nflagged by rule %q inside %s — the injected code's own bytes trace\n", fd.Rule, fd.ProcName)
	fmt.Printf("back to %s\n", res.Faros.T.Render(fd.InstrProv))
}
