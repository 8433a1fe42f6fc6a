package osi

import (
	"strings"
	"testing"

	"faros/internal/guest"
	"faros/internal/isa"
	"faros/internal/peimg"
)

func installExit(t *testing.T, k *guest.Kernel, name string) {
	t.Helper()
	b := peimg.NewBuilder(name)
	b.Text.Movi(isa.EBX, 0)
	b.CallImport("ExitProcess")
	raw, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	k.FS.Install(name, raw)
}

func TestTrackerProcessesAndEvents(t *testing.T) {
	k, err := guest.NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	tr := Attach(k)
	installExit(t, k, "a.exe")
	installExit(t, k, "b.exe")
	if _, err := k.Spawn("a.exe", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("b.exe", true, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(100_000); err != nil {
		t.Fatal(err)
	}

	procs := tr.Processes()
	if len(procs) != 2 {
		t.Fatalf("processes = %+v", procs)
	}
	if procs[0].Name != "a.exe" || procs[0].State != "dead" {
		t.Errorf("proc[0] = %+v", procs[0])
	}
	if procs[1].State != "suspended" {
		t.Errorf("proc[1] = %+v", procs[1])
	}

	var createdSeen, exitedSeen bool
	for _, ev := range tr.Events {
		if strings.Contains(ev, "created") && strings.Contains(ev, "a.exe") {
			createdSeen = true
		}
		if strings.Contains(ev, "exited") && strings.Contains(ev, "a.exe") {
			exitedSeen = true
		}
	}
	if !createdSeen || !exitedSeen {
		t.Errorf("events = %v", tr.Events)
	}
}
