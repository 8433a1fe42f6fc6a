// Package malfind implements the Volatility-style memory-snapshot baseline
// of the paper's Section VI.B: pslist, vadinfo, and the malfind scan.
//
// It inspects a *single point-in-time snapshot* at the end of a run: for
// each process it walks the VAD list looking for private, executable,
// writable regions that are not backed by a loaded module yet contain
// plausible code or an image header. That catches persistent injections —
// but, exactly as the paper argues, a transient payload that erased itself
// before the snapshot leaves nothing to find, and even a hit carries no
// provenance: no netflow, no injecting process, no history.
package malfind

import (
	"fmt"
	"strings"

	"faros/internal/guest"
	"faros/internal/isa"
	"faros/internal/mem"
	"faros/internal/peimg"
)

// Hit is one suspicious region found by the scan.
type Hit struct {
	PID    uint32
	Proc   string
	Base   uint32
	Size   uint32
	Perm   mem.Perm
	Reason string
	// Preview is a short disassembly of the region head.
	Preview string
}

// Report is the result of a snapshot scan.
type Report struct {
	PSList  []string
	VADInfo []string
	Hits    []Hit
}

// minCodeRun is how many consecutive valid instructions the scanner
// requires before calling bytes "code".
const minCodeRun = 4

// Scan inspects the kernel's current memory state (the end-of-run
// snapshot).
func Scan(k *guest.Kernel) *Report {
	r := &Report{}
	for _, p := range k.Processes() {
		r.PSList = append(r.PSList, fmt.Sprintf("pid=%d name=%s parent=%d state=%s", p.PID, p.Name, p.Parent, p.State))
		for _, vad := range p.VADs {
			r.VADInfo = append(r.VADInfo, fmt.Sprintf("pid=%d %s", p.PID, vad))
			if hit, ok := scanVAD(p, vad); ok {
				r.Hits = append(r.Hits, hit)
			}
		}
	}
	return r
}

// scanVAD applies the malfind heuristic to one region.
func scanVAD(p *guest.Process, vad guest.VAD) (Hit, bool) {
	// Heuristic: private (not image-backed) + writable + executable.
	if vad.Kind != guest.VADPrivate {
		return Hit{}, false
	}
	if vad.Perm&mem.PermExec == 0 || vad.Perm&mem.PermWrite == 0 {
		return Hit{}, false
	}
	// Read the head of the region from the *snapshot* (present memory).
	head := make([]byte, 0, 64)
	for i := uint32(0); i < 64 && i < vad.Size; i++ {
		b, err := p.Space.ReadByteAt(vad.Base+i, mem.AccessRead)
		if err != nil {
			break
		}
		head = append(head, b)
	}
	reason := ""
	switch {
	case peimg.IsImage(head):
		reason = "unbacked RWX region contains an MZ32 image header"
	case isa.LooksLikeCode(head, minCodeRun) && !allZero(head):
		reason = "unbacked RWX region contains valid code"
	default:
		return Hit{}, false
	}
	return Hit{
		PID:     p.PID,
		Proc:    p.Name,
		Base:    vad.Base,
		Size:    vad.Size,
		Perm:    vad.Perm,
		Reason:  reason,
		Preview: isa.DisasmBytes(head[:minCodeRun*isa.InstrSize], vad.Base),
	}, true
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Flagged reports whether the scan found anything.
func (r *Report) Flagged() bool { return len(r.Hits) > 0 }

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	sb.WriteString("== Volatility-style snapshot report ==\n")
	sb.WriteString("pslist:\n")
	for _, l := range r.PSList {
		sb.WriteString("  " + l + "\n")
	}
	if len(r.Hits) == 0 {
		sb.WriteString("malfind: no suspicious regions\n")
		return sb.String()
	}
	for _, h := range r.Hits {
		fmt.Fprintf(&sb, "malfind: %s(%d) region 0x%08X+0x%X %s — %s\n", h.Proc, h.PID, h.Base, h.Size, h.Perm, h.Reason)
	}
	return sb.String()
}
