package guest

import (
	"bytes"
	"errors"
	"testing"

	"faros/internal/mem"
)

// TestKernelCopiesStraddlePages checks the page-at-a-time kernel copies
// against byte reads: a copy across three pages lands every byte, and a
// copy running into an unmapped page faults at its first byte with every
// byte before it already written.
func TestKernelCopiesStraddlePages(t *testing.T) {
	const base = 0x10000
	s := mem.NewSpace(mem.NewPhys(), 0x1000)
	if err := s.Map(base, 3, mem.PermRead); err != nil { // read-only: kernel copies ignore it
		t.Fatal(err)
	}
	data := make([]byte, 2*mem.PageSize+100)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	va := uint32(base + mem.PageSize - 50)
	if err := kernelWriteBytes(s, va, data[:2*mem.PageSize+50]); err != nil {
		t.Fatal(err)
	}
	got, err := kernelReadBytes(s, va, 2*mem.PageSize+50)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:2*mem.PageSize+50]) {
		t.Error("straddling read-back differs from the written bytes")
	}
	for _, i := range []int{0, 49, 50, 51, mem.PageSize + 49, mem.PageSize + 50, 2*mem.PageSize + 49} {
		if b, err := s.ReadByteAt(va+uint32(i), mem.AccessRead); err != nil || b != data[i] {
			t.Errorf("byte %d = %#x, %v; want %#x", i, b, err, data[i])
		}
	}

	// The copy starting 10 bytes before the end of the last mapped page
	// writes those 10 bytes, then faults at the unmapped page's base.
	end := uint32(base + 3*mem.PageSize)
	err = kernelWriteBytes(s, end-10, data[:20])
	var fault *mem.Fault
	if !errors.As(err, &fault) || fault.VA != end || fault.Kind != mem.AccessWrite {
		t.Fatalf("write into unmapped page: err = %v, want a write fault at %#x", err, end)
	}
	if got, _ := kernelReadBytes(s, end-10, 10); !bytes.Equal(got, data[:10]) {
		t.Errorf("bytes before the fault = %v, want %v", got, data[:10])
	}
	if _, err := kernelReadBytes(s, end-10, 20); !errors.As(err, &fault) || fault.VA != end || fault.Kind != mem.AccessRead {
		t.Errorf("read from unmapped page: err = %v, want a read fault at %#x", err, end)
	}
	if _, err := kernelReadBytes(s, end+5, 1); !errors.As(err, &fault) || fault.VA != end+5 {
		t.Errorf("read at unmapped start: err = %v, want a fault at %#x", err, end+5)
	}
}
