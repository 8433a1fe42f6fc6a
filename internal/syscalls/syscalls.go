// Package syscalls is the syscall-tracing plugin, the analog of PANDA's
// syscalls2 in the paper's architecture (Figure 3). It records every
// syscall with its arguments and return value.
package syscalls

import (
	"fmt"
	"sort"

	"faros/internal/guest"
)

// Record is one traced syscall.
type Record struct {
	Instr  uint64
	PID    uint32
	Proc   string
	No     uint32
	Name   string
	Args   [4]uint32
	Ret    uint32
	HasRet bool
}

// String renders a strace-style line.
func (r Record) String() string {
	s := fmt.Sprintf("[%d] %s(%d) %s(%#x, %#x, %#x, %#x)",
		r.Instr, r.Proc, r.PID, r.Name, r.Args[0], r.Args[1], r.Args[2], r.Args[3])
	if r.HasRet {
		s += fmt.Sprintf(" = %#x", r.Ret)
	}
	return s
}

// Tracer accumulates syscall records.
type Tracer struct {
	records []Record
}

// Attach registers the tracer on a kernel.
func Attach(k *guest.Kernel) *Tracer {
	t := &Tracer{}
	k.OnSyscall(func(p *guest.Process, no uint32, args [4]uint32) {
		t.records = append(t.records, Record{
			Instr: k.M.InstrCount,
			PID:   p.PID,
			Proc:  p.Name,
			No:    no,
			Name:  guest.SyscallName(no),
			Args:  args,
		})
	})
	k.OnSyscallRet(func(p *guest.Process, no uint32, args [4]uint32, ret uint32) {
		// Attach the return to the most recent matching entry.
		for i := len(t.records) - 1; i >= 0; i-- {
			r := &t.records[i]
			if r.PID == p.PID && r.No == no && !r.HasRet {
				r.Ret = ret
				r.HasRet = true
				return
			}
		}
	})
	return t
}

// Records returns the full trace.
func (t *Tracer) Records() []Record { return t.records }

// ForProcess filters the trace by pid.
func (t *Tracer) ForProcess(pid uint32) []Record {
	var out []Record
	for _, r := range t.records {
		if r.PID == pid {
			out = append(out, r)
		}
	}
	return out
}

// Counts aggregates syscall names to counts.
func (t *Tracer) Counts() map[string]int {
	out := make(map[string]int)
	for _, r := range t.records {
		out[r.Name]++
	}
	return out
}

// Names returns the distinct syscall names seen, sorted.
func (t *Tracer) Names() []string {
	seen := t.Counts()
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CalledBy reports whether pid invoked the named syscall.
func (t *Tracer) CalledBy(pid uint32, name string) bool {
	for _, r := range t.records {
		if r.PID == pid && r.Name == name {
			return true
		}
	}
	return false
}
