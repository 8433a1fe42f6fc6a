// Package mem implements the physical and virtual memory model of the
// whole-system VM.
//
// Physical memory is a growing pool of 4 KiB frames. Every guest process owns
// an address space (identified by its CR3 value, exactly as the paper uses
// CR3 as the architecture-level process identity) that maps virtual page
// numbers to physical frames with read/write/execute permissions. Kernel
// regions — the export table and API stubs — are backed by shared frames
// mapped into every address space, which is what makes taint on them visible
// system-wide: the DIFT shadow memory is keyed by *physical* address.
package mem

import (
	"errors"
	"fmt"
	"sync"
)

const (
	// PageSize is the size of a page/frame in bytes.
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
	// offMask extracts the in-page offset from an address.
	offMask = PageSize - 1
)

// Perm is a page permission bitmask.
type Perm uint8

// Page permissions.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Common permission combinations.
const (
	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// String renders the permission in the rwx style used by VAD listings.
func (p Perm) String() string {
	b := []byte{'-', '-', '-'}
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AccessKind distinguishes the intent of a memory access for fault reporting
// and permission checks.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota + 1
	AccessWrite
	AccessExec
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "access?"
}

func (k AccessKind) perm() Perm {
	switch k {
	case AccessRead:
		return PermRead
	case AccessWrite:
		return PermWrite
	case AccessExec:
		return PermExec
	}
	return 0
}

// PhysAddr is a physical address: frame index * PageSize + offset.
type PhysAddr uint64

// Frame returns the frame index of the physical address.
func (pa PhysAddr) Frame() uint32 { return uint32(pa >> PageShift) }

// Offset returns the in-frame offset of the physical address.
func (pa PhysAddr) Offset() uint32 { return uint32(pa) & offMask }

// Fault describes a failed memory access. The kernel turns faults into
// process termination (access violation), mirroring a Windows AV.
type Fault struct {
	VA   uint32
	Kind AccessKind
	Why  string
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %s fault at 0x%08X: %s", f.Kind, f.VA, f.Why)
}

// ErrNoFrame is returned for out-of-range physical accesses.
var ErrNoFrame = errors.New("mem: physical frame out of range")

// Phys is the machine's physical memory: a pool of frames shared by all
// address spaces. It is not safe for concurrent use; the VM is single-CPU
// and fully deterministic.
type Phys struct {
	frames []*[PageSize]byte
}

// NewPhys returns an empty physical memory pool.
func NewPhys() *Phys {
	return &Phys{}
}

// framePool recycles the frames of released machines across the process,
// so a service running one guest after another reuses the previous guest's
// memory instead of allocating (and collecting) every frame anew.
var framePool sync.Pool

// AllocFrame allocates a zeroed frame and returns its index. The frame comes
// from a released Phys when one is pooled, cleared before reuse.
func (p *Phys) AllocFrame() uint32 {
	f, _ := framePool.Get().(*[PageSize]byte)
	if f == nil {
		f = new([PageSize]byte)
	} else {
		*f = [PageSize]byte{}
	}
	p.frames = append(p.frames, f)
	return uint32(len(p.frames) - 1)
}

// Release hands every frame back to the process-wide pool for reuse by
// later allocations and empties p: afterwards every frame index is out of
// range. The caller transfers ownership of the frames' bytes, so nothing
// may still hold a frame obtained through Frame.
func (p *Phys) Release() {
	for _, f := range p.frames {
		framePool.Put(f)
	}
	p.frames = nil
}

// AllocFrames allocates n zeroed frames and returns their indices.
func (p *Phys) AllocFrames(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = p.AllocFrame()
	}
	return out
}

// Frame returns the backing array for a frame index.
func (p *Phys) Frame(idx uint32) (*[PageSize]byte, error) {
	if int(idx) >= len(p.frames) {
		return nil, ErrNoFrame
	}
	return p.frames[idx], nil
}

// ReadByteAt reads one byte of physical memory.
func (p *Phys) ReadByteAt(pa PhysAddr) (byte, error) {
	f, err := p.Frame(pa.Frame())
	if err != nil {
		return 0, err
	}
	return f[pa.Offset()], nil
}

// WriteByteAt writes one byte of physical memory.
func (p *Phys) WriteByteAt(pa PhysAddr, v byte) error {
	f, err := p.Frame(pa.Frame())
	if err != nil {
		return err
	}
	f[pa.Offset()] = v
	return nil
}

// mapping is one virtual page's translation.
type mapping struct {
	frame uint32
	perm  Perm
}

// Space is a virtual address space. CR3 uniquely identifies it at the
// architecture level and doubles as the process tag value in provenance
// lists, as in the paper.
type Space struct {
	cr3   uint32
	phys  *Phys
	pages map[uint32]mapping // virtual page number → mapping
	gen   uint64             // bumped on any mapping change (TLB shootdown)
}

// NewSpace creates an empty address space over phys identified by cr3.
func NewSpace(phys *Phys, cr3 uint32) *Space {
	return &Space{cr3: cr3, phys: phys, pages: make(map[uint32]mapping)}
}

// CR3 returns the space's identity.
func (s *Space) CR3() uint32 { return s.cr3 }

// Phys returns the backing physical memory.
func (s *Space) Phys() *Phys { return s.phys }

// Gen returns the mapping generation; it changes whenever Map, MapShared,
// Unmap, or Protect alter the page tables, so cached translations (the
// CPU's software TLB) know when to drop.
func (s *Space) Gen() uint64 { return s.gen }

// vpn returns the virtual page number of va.
func vpn(va uint32) uint32 { return va >> PageShift }

// PageBase returns the page-aligned base of va.
func PageBase(va uint32) uint32 { return va &^ uint32(offMask) }

// PagesSpanned returns how many pages the range [va, va+size) touches.
func PagesSpanned(va uint32, size uint32) int {
	if size == 0 {
		return 0
	}
	first := vpn(va)
	last := vpn(va + size - 1)
	return int(last-first) + 1
}

// Map allocates fresh zeroed frames for npages pages starting at the
// page-aligned address va. Mapping over an existing page is an error.
func (s *Space) Map(va uint32, npages int, perm Perm) error {
	if va&offMask != 0 {
		return fmt.Errorf("mem: Map: unaligned va 0x%08X", va)
	}
	base := vpn(va)
	for i := 0; i < npages; i++ {
		if _, exists := s.pages[base+uint32(i)]; exists {
			return fmt.Errorf("mem: Map: page 0x%08X already mapped", (base+uint32(i))<<PageShift)
		}
	}
	for i := 0; i < npages; i++ {
		s.pages[base+uint32(i)] = mapping{frame: s.phys.AllocFrame(), perm: perm}
	}
	s.gen++
	return nil
}

// MapShared maps pre-allocated frames (typically kernel regions) at va.
func (s *Space) MapShared(va uint32, frames []uint32, perm Perm) error {
	if va&offMask != 0 {
		return fmt.Errorf("mem: MapShared: unaligned va 0x%08X", va)
	}
	base := vpn(va)
	for i := range frames {
		if _, exists := s.pages[base+uint32(i)]; exists {
			return fmt.Errorf("mem: MapShared: page 0x%08X already mapped", (base+uint32(i))<<PageShift)
		}
	}
	for i, fr := range frames {
		s.pages[base+uint32(i)] = mapping{frame: fr, perm: perm}
	}
	s.gen++
	return nil
}

// Unmap removes npages pages starting at va. Unmapped pages are skipped, so
// NtUnmapViewOfSection-style bulk unmaps are idempotent.
func (s *Space) Unmap(va uint32, npages int) {
	base := vpn(va)
	for i := 0; i < npages; i++ {
		delete(s.pages, base+uint32(i))
	}
	s.gen++
}

// Protect changes the permission of npages pages starting at va.
func (s *Space) Protect(va uint32, npages int, perm Perm) error {
	base := vpn(va)
	for i := 0; i < npages; i++ {
		m, ok := s.pages[base+uint32(i)]
		if !ok {
			return fmt.Errorf("mem: Protect: page 0x%08X not mapped", (base+uint32(i))<<PageShift)
		}
		m.perm = perm
		s.pages[base+uint32(i)] = m
	}
	s.gen++
	return nil
}

// Translate resolves va to a physical address, checking the permission
// required by kind. It returns a *Fault error on unmapped pages or
// permission violations.
func (s *Space) Translate(va uint32, kind AccessKind) (PhysAddr, error) {
	m, ok := s.pages[vpn(va)]
	if !ok {
		return 0, &Fault{VA: va, Kind: kind, Why: "page not mapped"}
	}
	if m.perm&kind.perm() == 0 {
		return 0, &Fault{VA: va, Kind: kind, Why: fmt.Sprintf("permission %s denied (page is %s)", kind, m.perm)}
	}
	return PhysAddr(m.frame)<<PageShift | PhysAddr(va&offMask), nil
}

// ReadByteAt reads one byte at va.
func (s *Space) ReadByteAt(va uint32, kind AccessKind) (byte, error) {
	pa, err := s.Translate(va, kind)
	if err != nil {
		return 0, err
	}
	return s.phys.ReadByteAt(pa)
}

// WriteByteAt writes one byte at va.
func (s *Space) WriteByteAt(va uint32, v byte) error {
	pa, err := s.Translate(va, AccessWrite)
	if err != nil {
		return err
	}
	return s.phys.WriteByteAt(pa, v)
}

// Read32 reads a little-endian 32-bit word at va.
func (s *Space) Read32(va uint32, kind AccessKind) (uint32, error) {
	var v uint32
	for i := uint32(0); i < 4; i++ {
		b, err := s.ReadByteAt(va+i, kind)
		if err != nil {
			return 0, err
		}
		v |= uint32(b) << (8 * i)
	}
	return v, nil
}

// Write32 writes a little-endian 32-bit word at va.
func (s *Space) Write32(va uint32, v uint32) error {
	for i := uint32(0); i < 4; i++ {
		if err := s.WriteByteAt(va+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

// ReadBytes copies n bytes starting at va into a new slice.
func (s *Space) ReadBytes(va uint32, n int, kind AccessKind) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		b, err := s.ReadByteAt(va+uint32(i), kind)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// WriteBytes copies p into memory starting at va.
func (s *Space) WriteBytes(va uint32, p []byte) error {
	for i, b := range p {
		if err := s.WriteByteAt(va+uint32(i), b); err != nil {
			return err
		}
	}
	return nil
}

// ReadCString reads a NUL-terminated string of at most maxLen bytes.
func (s *Space) ReadCString(va uint32, maxLen int) (string, error) {
	out := make([]byte, 0, 16)
	for i := 0; i < maxLen; i++ {
		b, err := s.ReadByteAt(va+uint32(i), AccessRead)
		if err != nil {
			return "", err
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, b)
	}
	return "", fmt.Errorf("mem: unterminated string at 0x%08X", va)
}

// FrameOf returns the physical frame backing va's page, if mapped.
func (s *Space) FrameOf(va uint32) (uint32, bool) {
	m, ok := s.pages[vpn(va)]
	return m.frame, ok
}

// PermOf returns the permission of va's page, if mapped.
func (s *Space) PermOf(va uint32) (Perm, bool) {
	m, ok := s.pages[vpn(va)]
	return m.perm, ok
}
