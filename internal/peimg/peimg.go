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

// readFull fills buf from r. Every field of the format is required, so
// running out of input anywhere, even between fields, is
// io.ErrUnexpectedEOF.
func readFull(r *bytes.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf); err != io.EOF {
		return err
	}
	return io.ErrUnexpectedEOF
}

func getU8(r *bytes.Reader) (byte, error) {
	var tmp [1]byte
	err := readFull(r, tmp[:])
	return tmp[0], err
}

func getString(r *bytes.Reader) (string, error) {
	n, err := getU8(r)
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if err := readFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func putU32(w *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	w.Write(tmp[:])
}

func getU32(r *bytes.Reader) (uint32, error) {
	var tmp [4]byte
	if err := readFull(r, tmp[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(tmp[:]), nil
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
	r := bytes.NewReader(data)
	magic, err := getU32(r)
	if err != nil {
		return nil, fmt.Errorf("peimg: magic: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("peimg: bad magic %#x", magic)
	}
	img := &Image{}
	if img.Name, err = getString(r); err != nil {
		return nil, fmt.Errorf("peimg: name: %w", err)
	}
	if img.Base, err = getU32(r); err != nil {
		return nil, err
	}
	if img.Entry, err = getU32(r); err != nil {
		return nil, err
	}
	nsec, err := getU32(r)
	if err != nil {
		return nil, err
	}
	nimp, err := getU32(r)
	if err != nil {
		return nil, err
	}
	nexp, err := getU32(r)
	if err != nil {
		return nil, err
	}
	const maxEntries = 4096
	if nsec > maxEntries || nimp > maxEntries || nexp > maxEntries {
		return nil, fmt.Errorf("peimg: implausible entry counts %d/%d/%d", nsec, nimp, nexp)
	}
	for i := uint32(0); i < nsec; i++ {
		var s Section
		if s.Name, err = getString(r); err != nil {
			return nil, fmt.Errorf("peimg: section %d: %w", i, err)
		}
		if s.VA, err = getU32(r); err != nil {
			return nil, err
		}
		perm, err := getU8(r)
		if err != nil {
			return nil, err
		}
		s.Perm = mem.Perm(perm)
		if s.Size, err = getU32(r); err != nil {
			return nil, err
		}
		dlen, err := getU32(r)
		if err != nil {
			return nil, err
		}
		if int(dlen) > r.Len() {
			return nil, fmt.Errorf("peimg: section %q data: %w", s.Name, io.ErrUnexpectedEOF)
		}
		s.DataFileOff = len(data) - r.Len()
		s.Data = make([]byte, dlen)
		if err := readFull(r, s.Data); err != nil {
			return nil, err
		}
		img.Sections = append(img.Sections, s)
	}
	for i := uint32(0); i < nimp; i++ {
		var im Import
		if im.NameHash, err = getU32(r); err != nil {
			return nil, err
		}
		if im.ThunkVA, err = getU32(r); err != nil {
			return nil, err
		}
		if im.Name, err = getString(r); err != nil {
			return nil, err
		}
		img.Imports = append(img.Imports, im)
	}
	for i := uint32(0); i < nexp; i++ {
		var ex Export
		if ex.NameHash, err = getU32(r); err != nil {
			return nil, err
		}
		if ex.VA, err = getU32(r); err != nil {
			return nil, err
		}
		if ex.Name, err = getString(r); err != nil {
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
