// Analyst workflow: the §V.C / §VI.B story end-to-end. Record a process
// hollowing attack once, then look at the same recording through three
// lenses — the Cuckoo-style event sandbox, the Volatility/malfind memory
// snapshot, and FAROS — and compare what each can conclude.
//
//	go run ./examples/analyst_workflow
package main

import (
	"context"
	"fmt"
	"os"

	"faros/internal/samples"
	"faros/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "analyst_workflow:", err)
		os.Exit(1)
	}
}

func run() error {
	spec := samples.ProcessHollowing()

	// Step 1: record the malware detonation (no analysis attached; this is
	// the cheap pass an analyst runs alongside other work).
	log, rec, err := scenario.RecordContext(context.Background(), spec, nil)
	if err != nil {
		return err
	}
	raw, _, err := scenario.EncodeTrace(spec, log)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %q: %d guest instructions, %d nondeterministic events (%d bytes serialized)\n\n",
		spec.Name, rec.Summary.Instructions, len(log.Events), len(raw))

	// Step 2: replay with every tool attached. The replay is bit-identical
	// to the recording, so the tools see the same execution.
	res, err := scenario.ReplayContext(context.Background(), spec, log, scenario.DetectPlugins(), nil)
	if err != nil {
		return err
	}

	fmt.Println("--- lens 1: event-based sandbox (CuckooBox analog) ---")
	fmt.Print(res.Cuckoo.String())
	fmt.Printf("verdict usable? the syscall surface of hollowing (CreateProcess suspended,\nUnmapViewOfSection, WriteProcessMemory, SetThreadContext) is visible, but\nnothing links it to the keylogger now running as svchost.exe.\n\n")

	fmt.Println("--- lens 2: memory snapshot (Volatility/malfind analog) ---")
	fmt.Print(res.Malfind.String())
	fmt.Printf("verdict usable? the RWX region inside svchost.exe is found, but with no\nhistory: who wrote it, when, and from where are unanswerable.\n\n")

	fmt.Println("--- lens 3: FAROS provenance-based DIFT ---")
	fmt.Print(res.Faros.Report())
	if !res.Flagged() {
		return fmt.Errorf("FAROS failed to flag the attack")
	}
	fd := res.Faros.Findings()[0]
	fmt.Printf("\nFAROS answers the questions the other lenses cannot: the code executing\ninside %s was written by another process — full chain: %s\n",
		fd.ProcName, res.Faros.T.Render(fd.InstrProv))

	// Step 3: the keylogger's loot, recovered from the guest filesystem.
	if f, ok := res.Kernel.FS.Stat("keystrokes.log"); ok {
		fmt.Printf("\ncaptured keystrokes in guest FS %q: %q\n", f.Name, string(f.Bytes()))
	}
	return nil
}
