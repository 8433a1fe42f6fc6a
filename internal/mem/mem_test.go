package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

// NumFrames returns the number of allocated frames.
func (p *Phys) NumFrames() int { return len(p.frames) }

func TestPermString(t *testing.T) {
	tests := []struct {
		p    Perm
		want string
	}{
		{0, "---"},
		{PermRead, "r--"},
		{PermRW, "rw-"},
		{PermRWX, "rwx"},
		{PermRX, "r-x"},
	}
	for _, tc := range tests {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("Perm(%d) = %q, want %q", tc.p, got, tc.want)
		}
	}
}

func TestPhysAllocAndAccess(t *testing.T) {
	p := NewPhys()
	f := p.AllocFrame()
	if f != 0 || p.NumFrames() != 1 {
		t.Fatalf("first frame = %d, count %d", f, p.NumFrames())
	}
	pa := PhysAddr(f)<<PageShift | 5
	if err := p.WriteByteAt(pa, 0xAB); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadByteAt(pa)
	if err != nil || got != 0xAB {
		t.Fatalf("read back %x, %v", got, err)
	}
	if _, err := p.ReadByteAt(PhysAddr(99) << PageShift); !errors.Is(err, ErrNoFrame) {
		t.Errorf("out of range read: %v", err)
	}
}

func TestPhysAddrParts(t *testing.T) {
	pa := PhysAddr(7)<<PageShift | 123
	if pa.Frame() != 7 || pa.Offset() != 123 {
		t.Errorf("frame=%d offset=%d", pa.Frame(), pa.Offset())
	}
}

func TestSpaceMapTranslate(t *testing.T) {
	p := NewPhys()
	s := NewSpace(p, 0x1000)
	if s.CR3() != 0x1000 {
		t.Fatalf("cr3 = %#x", s.CR3())
	}
	if err := s.Map(0x10000, 2, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Write32(0x10FFE, 0xCAFEBABE); err != nil {
		t.Fatal(err) // crosses the page boundary
	}
	v, err := s.Read32(0x10FFE, AccessRead)
	if err != nil || v != 0xCAFEBABE {
		t.Fatalf("cross-page read = %#x, %v", v, err)
	}
	if _, err := s.Translate(0x10000, AccessExec); err == nil {
		t.Error("exec on rw- page should fault")
	}
	var f *Fault
	_, err = s.Translate(0x99999000, AccessRead)
	if !errors.As(err, &f) || f.VA != 0x99999000 {
		t.Errorf("unmapped read fault = %v", err)
	}
}

func TestSpaceMapErrors(t *testing.T) {
	p := NewPhys()
	s := NewSpace(p, 1)
	if err := s.Map(0x10001, 1, PermRW); err == nil {
		t.Error("unaligned map accepted")
	}
	if err := s.Map(0x10000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(0x10000, 1, PermRW); err == nil {
		t.Error("double map accepted")
	}
	if err := s.MapShared(0x10000, []uint32{0}, PermRead); err == nil {
		t.Error("MapShared over existing page accepted")
	}
}

func TestSharedMappingSeesSameBytes(t *testing.T) {
	p := NewPhys()
	frames := p.AllocFrames(1)
	a := NewSpace(p, 1)
	b := NewSpace(p, 2)
	if err := a.MapShared(0x7FF00000, frames, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := b.MapShared(0x7FF00000, frames, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteByteAt(0x7FF00010, 0x42); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadByteAt(0x7FF00010, AccessRead)
	if err != nil || got != 0x42 {
		t.Fatalf("shared read = %x, %v", got, err)
	}
	if err := b.WriteByteAt(0x7FF00010, 1); err == nil {
		t.Error("write to read-only shared page accepted")
	}
	// Both spaces must translate to the same physical address.
	paA, _ := a.Translate(0x7FF00010, AccessRead)
	paB, _ := b.Translate(0x7FF00010, AccessRead)
	if paA != paB {
		t.Errorf("shared translation differs: %#x vs %#x", paA, paB)
	}
}

func TestUnmapAndProtect(t *testing.T) {
	p := NewPhys()
	s := NewSpace(p, 1)
	if err := s.Map(0x20000, 4, PermRWX); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(0x20000, 2, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteByteAt(0x20000, 1); err == nil {
		t.Error("write after Protect(r--) accepted")
	}
	if err := s.WriteByteAt(0x22000, 1); err != nil {
		t.Errorf("page outside Protect range affected: %v", err)
	}
	s.Unmap(0x20000, 4)
	_, mapped0 := s.FrameOf(0x20000)
	_, mapped3 := s.FrameOf(0x23000)
	if mapped0 || mapped3 {
		t.Error("pages still mapped after Unmap")
	}
	if err := s.Protect(0x20000, 1, PermRead); err == nil {
		t.Error("Protect on unmapped page accepted")
	}
}

func TestReadCString(t *testing.T) {
	p := NewPhys()
	s := NewSpace(p, 1)
	if err := s.Map(0x30000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBytes(0x30000, []byte("hello\x00world")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadCString(0x30000, 64)
	if err != nil || got != "hello" {
		t.Fatalf("ReadCString = %q, %v", got, err)
	}
	if _, err := s.ReadCString(0x30006, 3); err == nil {
		t.Error("unterminated string accepted")
	}
}

func TestPagesSpanned(t *testing.T) {
	tests := []struct {
		va, size uint32
		want     int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, PageSize, 1},
		{0, PageSize + 1, 2},
		{PageSize - 1, 2, 2},
		{0x10FFF, 1, 1},
	}
	for _, tc := range tests {
		if got := PagesSpanned(tc.va, tc.size); got != tc.want {
			t.Errorf("PagesSpanned(%#x,%d) = %d, want %d", tc.va, tc.size, got, tc.want)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	p := NewPhys()
	s := NewSpace(p, 1)
	if err := s.Map(0x40000, 4, PermRW); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, v uint32) bool {
		va := 0x40000 + uint32(off)%(4*PageSize-4)
		if err := s.Write32(va, v); err != nil {
			return false
		}
		got, err := s.Read32(va, AccessRead)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBytesWriteBytes(t *testing.T) {
	p := NewPhys()
	s := NewSpace(p, 1)
	if err := s.Map(0x50000, 2, PermRW); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 6000) // spans both pages
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := s.WriteBytes(0x50000, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBytes(0x50000, len(data), AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %x, want %x", i, got[i], data[i])
		}
	}
}

// TestAllocFrameZeroedAfterRelease: frames recycled from a released Phys
// must come back zeroed, keeping AllocFrame's contract.
func TestAllocFrameZeroedAfterRelease(t *testing.T) {
	const n = 64
	old := NewPhys()
	for _, idx := range old.AllocFrames(n) {
		f, _ := old.Frame(idx)
		for i := range f {
			f[i] = 0xCC
		}
	}
	old.Release()
	if _, err := old.Frame(0); err != ErrNoFrame {
		t.Fatalf("frame read after Release: err = %v, want ErrNoFrame", err)
	}
	p := NewPhys()
	for _, idx := range p.AllocFrames(n) {
		f, _ := p.Frame(idx)
		if *f != ([PageSize]byte{}) {
			t.Fatalf("frame %d reused without zeroing", idx)
		}
	}
}
