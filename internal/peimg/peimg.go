// Package peimg defines MZ32, the miniature Portable-Executable-like image
// format of the WinMini guest.
//
// An MZ32 image carries named sections with page permissions, an import
// table of (API name hash, thunk address) pairs that the loader resolves
// against the kernel export table, and an export table for DLL images. The
// format exists so that executables are real byte artifacts: they live in
// the guest filesystem, carry file taint when loaded, can be parsed by the
// malfind baseline, and can be hollowed out and replaced in memory.
package peimg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"faros/internal/mem"
)

// Magic identifies an MZ32 image ("MZ32" little endian).
const Magic uint32 = 0x32335A4D

// Canonical image layout constants shared with the loader.
const (
	// DefaultBase is the preferred load address of WinMini programs.
	DefaultBase uint32 = 0x00400000
	// IdataOff is the import-thunk section offset from base (page 0, rw-).
	IdataOff uint32 = 0x0000
	// TextOff is the code section offset from base (r-x).
	TextOff uint32 = 0x1000
	// DataOff is the mutable data section offset from base (rw-).
	DataOff uint32 = 0x00100000
	// ThunkSlot0 is the offset of the first import thunk within .idata.
	ThunkSlot0 uint32 = 0x10
	// MaxName bounds name lengths in the serialized form.
	MaxName = 255
)

// HashName hashes an API or export name (FNV-32a), standing in for the
// name-hash trick real reflective loaders use when walking export tables.
func HashName(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// Section is one mapped region of the image.
type Section struct {
	Name string
	// VA is the section's offset from the image base.
	VA   uint32
	Perm mem.Perm
	// Data is the initialized content. Size may exceed len(Data); the
	// remainder is zero-filled (BSS-style).
	Data []byte
	Size uint32
	// DataFileOff is the offset of Data within the serialized image; set by
	// Unmarshal so the loader can map file taint onto the pages it copies.
	DataFileOff int
}

// MemSize returns the mapped size of the section in bytes.
func (s *Section) MemSize() uint32 {
	if s.Size > uint32(len(s.Data)) {
		return s.Size
	}
	return uint32(len(s.Data))
}

// Import is one entry of the import table.
type Import struct {
	// NameHash is HashName of the imported API.
	NameHash uint32
	// ThunkVA is the offset from base where the loader writes the resolved
	// address.
	ThunkVA uint32
	// Name is kept for diagnostics and reports; the loader resolves by hash.
	Name string
}

// Export is one entry of the export table.
type Export struct {
	NameHash uint32
	// VA is the exported entry point's offset from base.
	VA   uint32
	Name string
}

// Image is a parsed MZ32 binary.
type Image struct {
	Name     string
	Base     uint32
	Entry    uint32 // offset from Base
	Sections []Section
	Imports  []Import
	Exports  []Export
}

func putString(w *bytes.Buffer, s string) error {
	if len(s) > MaxName {
		return fmt.Errorf("peimg: name too long: %d", len(s))
	}
	w.WriteByte(byte(len(s)))
	w.WriteString(s)
	return nil
}

// reader is a cursor over a serialized image. Every field of the format
// is required, so running out of input anywhere, even between fields, is
// io.ErrUnexpectedEOF.
type reader struct {
	data []byte
	off  int
}

// next returns the next n bytes as a subslice of data. The bounds check
// compares in uint64, so no length converts to a negative int.
func (r *reader) next(n uint32) ([]byte, error) {
	if uint64(n) > uint64(len(r.data)-r.off) {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) u8() (byte, error) {
	b, err := r.next(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) str() (string, error) {
	n, err := r.u8()
	if err != nil {
		return "", err
	}
	b, err := r.next(uint32(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func putU32(w *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	w.Write(tmp[:])
}

// Marshal serializes the image to its on-disk MZ32 form.
func (img *Image) Marshal() ([]byte, error) {
	var w bytes.Buffer
	putU32(&w, Magic)
	if err := putString(&w, img.Name); err != nil {
		return nil, err
	}
	putU32(&w, img.Base)
	putU32(&w, img.Entry)
	putU32(&w, uint32(len(img.Sections)))
	putU32(&w, uint32(len(img.Imports)))
	putU32(&w, uint32(len(img.Exports)))
	for i := range img.Sections {
		s := &img.Sections[i]
		if err := putString(&w, s.Name); err != nil {
			return nil, err
		}
		putU32(&w, s.VA)
		w.WriteByte(byte(s.Perm))
		putU32(&w, s.Size)
		putU32(&w, uint32(len(s.Data)))
		w.Write(s.Data)
	}
	for _, im := range img.Imports {
		putU32(&w, im.NameHash)
		putU32(&w, im.ThunkVA)
		if err := putString(&w, im.Name); err != nil {
			return nil, err
		}
	}
	for _, ex := range img.Exports {
		putU32(&w, ex.NameHash)
		putU32(&w, ex.VA)
		if err := putString(&w, ex.Name); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

// Unmarshal parses an MZ32 image. It validates the magic and structural
// sanity so the loader can reject corrupted or hollow files. A truncated
// image's error matches io.ErrUnexpectedEOF under errors.Is.
func Unmarshal(data []byte) (*Image, error) {
	r := &reader{data: data}
	magic, err := r.u32()
	if err != nil {
		return nil, fmt.Errorf("peimg: magic: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("peimg: bad magic %#x", magic)
	}
	img := &Image{}
	if img.Name, err = r.str(); err != nil {
		return nil, fmt.Errorf("peimg: name: %w", err)
	}
	if img.Base, err = r.u32(); err != nil {
		return nil, err
	}
	if img.Entry, err = r.u32(); err != nil {
		return nil, err
	}
	nsec, err := r.u32()
	if err != nil {
		return nil, err
	}
	nimp, err := r.u32()
	if err != nil {
		return nil, err
	}
	nexp, err := r.u32()
	if err != nil {
		return nil, err
	}
	const maxEntries = 4096
	if nsec > maxEntries || nimp > maxEntries || nexp > maxEntries {
		return nil, fmt.Errorf("peimg: implausible entry counts %d/%d/%d", nsec, nimp, nexp)
	}
	for i := uint32(0); i < nsec; i++ {
		var s Section
		if s.Name, err = r.str(); err != nil {
			return nil, fmt.Errorf("peimg: section %d: %w", i, err)
		}
		if s.VA, err = r.u32(); err != nil {
			return nil, err
		}
		perm, err := r.u8()
		if err != nil {
			return nil, err
		}
		s.Perm = mem.Perm(perm)
		if s.Size, err = r.u32(); err != nil {
			return nil, err
		}
		dlen, err := r.u32()
		if err != nil {
			return nil, err
		}
		s.DataFileOff = r.off
		b, err := r.next(dlen)
		if err != nil {
			return nil, fmt.Errorf("peimg: section %q data: %w", s.Name, err)
		}
		s.Data = make([]byte, dlen)
		copy(s.Data, b)
		img.Sections = append(img.Sections, s)
	}
	for i := uint32(0); i < nimp; i++ {
		var im Import
		if im.NameHash, err = r.u32(); err != nil {
			return nil, err
		}
		if im.ThunkVA, err = r.u32(); err != nil {
			return nil, err
		}
		if im.Name, err = r.str(); err != nil {
			return nil, err
		}
		img.Imports = append(img.Imports, im)
	}
	for i := uint32(0); i < nexp; i++ {
		var ex Export
		if ex.NameHash, err = r.u32(); err != nil {
			return nil, err
		}
		if ex.VA, err = r.u32(); err != nil {
			return nil, err
		}
		if ex.Name, err = r.str(); err != nil {
			return nil, err
		}
		img.Exports = append(img.Exports, ex)
	}
	return img, nil
}

// IsImage cheaply tests whether data begins with the MZ32 magic. Both the
// loader and the malfind baseline use it.
func IsImage(data []byte) bool {
	return len(data) >= 4 && binary.LittleEndian.Uint32(data) == Magic
}
