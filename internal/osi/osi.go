// Package osi is the operating-system-introspection plugin, the analog of
// PANDA's OSI/Win7x86intro in the paper's architecture (Figure 3). It
// observes process lifecycle events from the kernel and answers
// process-related queries for other plugins (the FAROS core, the
// Volatility-style baseline's pslist).
package osi

import (
	"fmt"

	"faros/internal/guest"
)

// ProcessInfo is an introspected process snapshot.
type ProcessInfo struct {
	PID    uint32
	CR3    uint32
	Parent uint32
	Name   string
	State  string
}

// Tracker subscribes to kernel process events and provides introspection.
type Tracker struct {
	k *guest.Kernel
	// Events is the lifecycle journal, in order.
	Events []string
}

// Attach registers the tracker on a kernel.
func Attach(k *guest.Kernel) *Tracker {
	t := &Tracker{k: k}
	k.OnProcEvent(func(p *guest.Process, ev guest.ProcEventKind) {
		t.Events = append(t.Events, fmt.Sprintf("%s pid=%d name=%s cr3=%#x", ev, p.PID, p.Name, p.CR3()))
	})
	return t
}

// Processes lists all processes (including dead ones), like pslist over the
// whole recording.
func (t *Tracker) Processes() []ProcessInfo {
	var out []ProcessInfo
	for _, p := range t.k.Processes() {
		out = append(out, ProcessInfo{
			PID:    p.PID,
			CR3:    p.CR3(),
			Parent: p.Parent,
			Name:   p.Name,
			State:  p.State.String(),
		})
	}
	return out
}
