// Package gfs is the WinMini in-memory filesystem.
//
// Files carry, besides their content, a parallel per-byte provenance shadow
// (opaque taint ProvIDs managed by the FAROS bridge, allocated on first
// taint, so untainted files carry none) and an access version.
// The shadow is what makes taint survive a round trip through the
// filesystem — the paper's Figure 4 lifecycle (netflow → process → file →
// another process) depends on it. The version feeds the file tag's
// "how many times a file has been accessed" field.
package gfs

import (
	"fmt"
	"sort"
)

// File is one guest file.
type File struct {
	Name string
	// Version counts opens/creates of this file (paper Figure 5's file tag
	// version field).
	Version uint32

	data []byte
	// shadow is the per-byte taint ProvID, parallel to data but only as
	// long as the last tainted byte ever stored: it is allocated on first
	// taint, and bytes past its end are untainted.
	shadow []uint32
}

// Bytes returns the file content. The returned slice must not be modified.
func (f *File) Bytes() []byte { return f.data }

// Shadow returns the per-byte provenance shadow, parallel to Bytes but
// possibly shorter: bytes past its end are untainted. The returned slice
// must not be modified.
func (f *File) Shadow() []uint32 { return f.shadow }

// grow extends the file to hold at least n bytes.
func (f *File) grow(n int) {
	if n > len(f.data) {
		f.data = append(f.data, make([]byte, n-len(f.data))...)
	}
}

// setShadow stores ids as the shadow of bytes [off, off+len(ids)). The
// shadow grows only as far as the last nonzero id, so untainted bytes past
// its end stay unmaterialized.
func (f *File) setShadow(off int, ids []uint32) {
	n := len(ids)
	for n > 0 && off+n > len(f.shadow) && ids[n-1] == 0 {
		n--
	}
	if n == 0 {
		return
	}
	if off+n > len(f.shadow) {
		f.shadow = append(f.shadow, make([]uint32, off+n-len(f.shadow))...)
	}
	copy(f.shadow[off:], ids[:n])
}

// WriteAt writes data (and its provenance shadow, which may be nil for
// untainted writes) at the given offset, extending the file as needed.
func (f *File) WriteAt(off int, data []byte, shadow []uint32) error {
	if off < 0 {
		return fmt.Errorf("gfs: negative offset %d", off)
	}
	if shadow != nil && len(shadow) != len(data) {
		return fmt.Errorf("gfs: shadow length %d != data length %d", len(shadow), len(data))
	}
	f.grow(off + len(data))
	copy(f.data[off:], data)
	if shadow != nil {
		f.setShadow(off, shadow)
	} else if off < len(f.shadow) {
		clear(f.shadow[off:min(off+len(data), len(f.shadow))])
	}
	return nil
}

// ReadAt reads up to n bytes from off, returning the bytes and their
// shadow (one id per returned byte).
func (f *File) ReadAt(off, n int) ([]byte, []uint32) {
	if off < 0 || off >= len(f.data) || n <= 0 {
		return nil, nil
	}
	end := off + n
	if end > len(f.data) {
		end = len(f.data)
	}
	data := make([]byte, end-off)
	shadow := make([]uint32, end-off)
	copy(data, f.data[off:end])
	if off < len(f.shadow) {
		copy(shadow, f.shadow[off:min(end, len(f.shadow))])
	}
	return data, shadow
}

// SetShadowAt overwrites the provenance shadow for bytes [off, off+len) —
// the FAROS bridge uses it after the kernel wrote file content.
func (f *File) SetShadowAt(off int, shadow []uint32) error {
	if off < 0 || off+len(shadow) > len(f.data) {
		return fmt.Errorf("gfs: shadow range [%d,%d) outside file of %d bytes", off, off+len(shadow), len(f.data))
	}
	f.setShadow(off, shadow)
	return nil
}

// Truncate clears the file content and shadow.
func (f *File) Truncate() {
	f.data = f.data[:0]
	f.shadow = f.shadow[:0]
}

// FS is the filesystem: a flat namespace of files, with a journal of
// create/delete activity for the Cuckoo baseline's report.
type FS struct {
	files map[string]*File

	// Journal records filesystem-level activity in order.
	Journal []string
}

// New returns an empty filesystem.
func New() *FS {
	return &FS{files: make(map[string]*File)}
}

// Install places a file with initial content without journaling (used by
// scenario setup to pre-install program images).
func (fs *FS) Install(name string, data []byte) *File {
	f := &File{Name: name, Version: 1}
	f.grow(len(data))
	copy(f.data, data)
	fs.files[name] = f
	return f
}

// Create creates (or truncates) a file, bumping its version.
func (fs *FS) Create(name string) *File {
	f, ok := fs.files[name]
	if !ok {
		f = &File{Name: name}
		fs.files[name] = f
		fs.Journal = append(fs.Journal, "create "+name)
	} else {
		f.Truncate()
		fs.Journal = append(fs.Journal, "truncate "+name)
	}
	f.Version++
	return f
}

// Open returns an existing file, bumping its version.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("gfs: %q not found", name)
	}
	f.Version++
	return f, nil
}

// Stat returns a file without bumping its version.
func (fs *FS) Stat(name string) (*File, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// Delete removes a file, as in-memory loaders do to their dropper.
func (fs *FS) Delete(name string) error {
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("gfs: %q not found", name)
	}
	delete(fs.files, name)
	fs.Journal = append(fs.Journal, "delete "+name)
	return nil
}

// List returns all file names, sorted (determinism matters: the guest run
// must not depend on Go map order).
func (fs *FS) List() []string {
	out := make([]string, 0, len(fs.files))
	for name := range fs.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
