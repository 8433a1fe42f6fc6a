// Package cuckoo implements the CuckooBox-style baseline of the paper's
// Section VI.B: an event-based sandbox that observes system calls, file
// system activity, network traffic, process trees, and DLL load events —
// everything *except* memory contents.
//
// Its detection logic mirrors what real event-based sandboxes can conclude:
// it reports a process's loaded-DLL list (reflective injection never
// appears there), the process tree (hollowed children look legitimate),
// and per-process API traces. It cannot link any of it to memory or to a
// network origin, which is precisely the gap FAROS fills.
package cuckoo

import (
	"fmt"
	"sort"
	"strings"

	"faros/internal/guest"
)

// ProcessReport is the per-process section of a sandbox report.
type ProcessReport struct {
	PID        uint32
	Name       string
	Parent     uint32
	APICalls   []string
	LoadedDLLs []string
	FilesRead  []string
	FilesWrote []string
	Netflows   []string
	RegWrites  []string
	ExitState  string
}

// Report is the full sandbox output for one run.
type Report struct {
	Processes []ProcessReport
	// FSJournal is the filesystem activity journal.
	FSJournal []string
	// Verdicts lists heuristic conclusions the sandbox can draw from
	// events alone.
	Verdicts []string
}

// Sandbox observes a kernel run.
type Sandbox struct {
	k *guest.Kernel

	// apiCalls holds each pid's distinct syscall names in first-seen
	// order: the API trace the report shows, kept without a per-call log.
	apiCalls   map[uint32][]string
	dllLoads   map[uint32][]string
	filesRead  map[uint32]map[string]bool
	filesWrote map[uint32]map[string]bool
	netflows   map[uint32][]string
	regWrites  map[uint32][]string
}

// Attach installs the sandbox observers on a kernel.
func Attach(k *guest.Kernel) *Sandbox {
	s := &Sandbox{
		k:          k,
		apiCalls:   make(map[uint32][]string),
		dllLoads:   make(map[uint32][]string),
		filesRead:  make(map[uint32]map[string]bool),
		filesWrote: make(map[uint32]map[string]bool),
		netflows:   make(map[uint32][]string),
		regWrites:  make(map[uint32][]string),
	}
	k.OnSyscall(func(p *guest.Process, no uint32, args [4]uint32) {
		s.noteAPI(p.PID, guest.SyscallName(no))
		switch no {
		case guest.SysLoadLibrary:
			if name, err := p.Space.ReadCString(args[0], 256); err == nil {
				s.dllLoads[p.PID] = append(s.dllLoads[p.PID], name)
			}
		case guest.SysOpenFile, guest.SysReadFile:
			// File names only observable at open; reads tracked by handle
			// would need handle table introspection — record opens.
			if no == guest.SysOpenFile {
				if name, err := p.Space.ReadCString(args[0], 256); err == nil {
					s.mark(s.filesRead, p.PID, name)
				}
			}
		case guest.SysCreateFile:
			if name, err := p.Space.ReadCString(args[0], 256); err == nil {
				s.mark(s.filesWrote, p.PID, name)
			}
		case guest.SysConnect:
			if ip, err := p.Space.ReadCString(args[1], 256); err == nil {
				s.netflows[p.PID] = append(s.netflows[p.PID], fmt.Sprintf("%s:%d", ip, args[2]))
			}
		case guest.SysRegSet:
			if key, err := p.Space.ReadCString(args[0], 256); err == nil {
				s.regWrites[p.PID] = append(s.regWrites[p.PID], key)
			}
		}
	})
	return s
}

// noteAPI appends name to pid's API trace unless already there. It dedups
// by name, not number: every unknown number renders as the same
// "NtUnknown".
func (s *Sandbox) noteAPI(pid uint32, name string) {
	for _, seen := range s.apiCalls[pid] {
		if seen == name {
			return
		}
	}
	s.apiCalls[pid] = append(s.apiCalls[pid], name)
}

func (s *Sandbox) mark(m map[uint32]map[string]bool, pid uint32, name string) {
	if m[pid] == nil {
		m[pid] = make(map[string]bool)
	}
	m[pid][name] = true
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Analyze builds the report after the run finished.
func (s *Sandbox) Analyze() *Report {
	r := &Report{FSJournal: append([]string(nil), s.k.FS.Journal...)}
	for _, p := range s.k.Processes() {
		pr := ProcessReport{
			PID:        p.PID,
			Name:       p.Name,
			Parent:     p.Parent,
			APICalls:   s.apiCalls[p.PID],
			LoadedDLLs: append([]string(nil), s.dllLoads[p.PID]...),
			FilesRead:  sortedKeys(s.filesRead[p.PID]),
			FilesWrote: sortedKeys(s.filesWrote[p.PID]),
			Netflows:   append([]string(nil), s.netflows[p.PID]...),
			RegWrites:  append([]string(nil), s.regWrites[p.PID]...),
			ExitState:  p.State.String(),
		}
		r.Processes = append(r.Processes, pr)
	}
	r.Verdicts = s.verdicts(r)
	return r
}

// verdicts applies event-level heuristics. Deliberately mirrors the paper's
// findings: an event-based sandbox sees the *API surface* of an injection
// but cannot tie it to memory contents or provenance, and it cannot see a
// reflectively loaded DLL in any module list.
func (s *Sandbox) verdicts(r *Report) []string {
	var out []string
	for _, pr := range r.Processes {
		calls := make(map[string]bool)
		for _, c := range pr.APICalls {
			calls[c] = true
		}
		// Classic injection API sequence is visible as events...
		if calls["NtOpenProcess"] && calls["NtWriteVirtualMemory"] && calls["NtCreateThreadEx"] {
			out = append(out, fmt.Sprintf(
				"%s(%d): suspicious cross-process API sequence (OpenProcess+WriteVirtualMemory+CreateThread) — payload content, origin and injected module unknown",
				pr.Name, pr.PID))
		}
		// ...but nothing distinguishes what was written, and the loaded-DLL
		// list stays clean for reflective loads.

		// Registry persistence (Run keys) is a classic event-level verdict.
		for _, key := range pr.RegWrites {
			if strings.Contains(key, `\Run\`) || strings.HasSuffix(key, `\Run`) {
				out = append(out, fmt.Sprintf("%s(%d): registry persistence via %s", pr.Name, pr.PID, key))
			}
		}
	}
	return out
}

// FlaggedInjection reports whether any verdict names an injection-shaped
// event sequence.
func (r *Report) FlaggedInjection() bool {
	for _, v := range r.Verdicts {
		if strings.Contains(v, "suspicious cross-process API sequence") {
			return true
		}
	}
	return false
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	sb.WriteString("== Cuckoo-style sandbox report ==\n")
	for _, pr := range r.Processes {
		fmt.Fprintf(&sb, "process %s (pid %d, parent %d, %s)\n", pr.Name, pr.PID, pr.Parent, pr.ExitState)
		if len(pr.APICalls) > 0 {
			fmt.Fprintf(&sb, "  APIs: %s\n", strings.Join(pr.APICalls, ", "))
		}
		if len(pr.LoadedDLLs) > 0 {
			fmt.Fprintf(&sb, "  DLLs: %s\n", strings.Join(pr.LoadedDLLs, ", "))
		}
		if len(pr.Netflows) > 0 {
			fmt.Fprintf(&sb, "  netflows: %s\n", strings.Join(pr.Netflows, ", "))
		}
		if len(pr.FilesWrote) > 0 {
			fmt.Fprintf(&sb, "  files written: %s\n", strings.Join(pr.FilesWrote, ", "))
		}
		if len(pr.RegWrites) > 0 {
			fmt.Fprintf(&sb, "  registry writes: %s\n", strings.Join(pr.RegWrites, ", "))
		}
	}
	for _, v := range r.Verdicts {
		fmt.Fprintf(&sb, "verdict: %s\n", v)
	}
	return sb.String()
}
