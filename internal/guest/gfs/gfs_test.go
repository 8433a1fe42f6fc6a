package gfs

import (
	"slices"
	"testing"
)

func TestInstallAndOpen(t *testing.T) {
	fs := New()
	fs.Install("prog.exe", []byte{1, 2, 3})
	f, err := fs.Open("prog.exe")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 3 || f.Version != 2 { // install=1, open bumps to 2
		t.Errorf("size=%d version=%d", f.Size(), f.Version)
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Error("opened missing file")
	}
	if len(fs.Journal) != 0 {
		t.Error("Install journaled")
	}
}

func TestCreateTruncatesAndBumpsVersion(t *testing.T) {
	fs := New()
	f := fs.Create("log.txt")
	if f.Version != 1 {
		t.Errorf("version = %d", f.Version)
	}
	if err := f.WriteAt(0, []byte("hello"), nil); err != nil {
		t.Fatal(err)
	}
	f2 := fs.Create("log.txt")
	if f2 != f {
		t.Error("create returned a different object")
	}
	if f2.Size() != 0 || f2.Version != 2 {
		t.Errorf("after re-create: size=%d version=%d", f2.Size(), f2.Version)
	}
	if len(fs.Journal) != 2 || fs.Journal[0] != "create log.txt" || fs.Journal[1] != "truncate log.txt" {
		t.Errorf("journal = %v", fs.Journal)
	}
}

func TestWriteReadWithShadow(t *testing.T) {
	fs := New()
	f := fs.Create("data.bin")
	if err := f.WriteAt(2, []byte{10, 20, 30}, []uint32{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 5 {
		t.Fatalf("size = %d", f.Size())
	}
	data, shadow := f.ReadAt(0, 10)
	if len(data) != 5 || data[2] != 10 || shadow[3] != 8 || shadow[0] != 0 {
		t.Errorf("data=%v shadow=%v", data, shadow)
	}
	// Untainted overwrite clears shadow.
	if err := f.WriteAt(3, []byte{99}, nil); err != nil {
		t.Fatal(err)
	}
	_, shadow = f.ReadAt(3, 1)
	if shadow[0] != 0 {
		t.Error("shadow not cleared on untainted write")
	}
}

func TestWriteAtErrors(t *testing.T) {
	f := &File{}
	if err := f.WriteAt(-1, []byte{1}, nil); err == nil {
		t.Error("negative offset accepted")
	}
	if err := f.WriteAt(0, []byte{1, 2}, []uint32{1}); err == nil {
		t.Error("mismatched shadow accepted")
	}
}

func TestReadAtBounds(t *testing.T) {
	f := &File{}
	_ = f.WriteAt(0, []byte{1, 2, 3}, nil)
	if d, _ := f.ReadAt(5, 1); d != nil {
		t.Error("read past end returned data")
	}
	if d, _ := f.ReadAt(0, 0); d != nil {
		t.Error("zero-length read returned data")
	}
	d, _ := f.ReadAt(2, 100)
	if len(d) != 1 || d[0] != 3 {
		t.Errorf("clamped read = %v", d)
	}
}

func TestDeleteAndList(t *testing.T) {
	fs := New()
	fs.Install("b.exe", nil)
	fs.Install("a.exe", nil)
	fs.Install("c.txt", nil)
	got := fs.List()
	want := []string{"a.exe", "b.exe", "c.txt"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v", got)
		}
	}
	if err := fs.Delete("b.exe"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("b.exe"); err == nil {
		t.Error("double delete accepted")
	}
	if _, ok := fs.Stat("b.exe"); ok {
		t.Error("deleted file still stats")
	}
	if fs.Journal[len(fs.Journal)-1] != "delete b.exe" {
		t.Errorf("journal = %v", fs.Journal)
	}
}

// shadowOf reads a file's whole shadow through ReadAt, which pads the
// unmaterialized tail with untainted ids.
func shadowOf(f *File) []uint32 {
	_, shadow := f.ReadAt(0, f.Size())
	return shadow
}

func TestShadowAllocatedOnFirstTaint(t *testing.T) {
	fs := New()
	f := fs.Install("prog.exe", make([]byte, 4096))
	if f.Shadow() != nil {
		t.Errorf("Install allocated a %d-id shadow", len(f.Shadow()))
	}
	if err := f.WriteAt(4000, make([]byte, 200), nil); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(10, []byte{1, 2}, []uint32{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetShadowAt(0, make([]uint32, 100)); err != nil {
		t.Fatal(err)
	}
	if f.Shadow() != nil {
		t.Errorf("untainted writes allocated a %d-id shadow", len(f.Shadow()))
	}
	if got := shadowOf(f); len(got) != 4200 || got[4199] != 0 {
		t.Errorf("untainted shadow read back as %d ids", len(got))
	}
	// A tainted store materializes the shadow up to its last tainted byte.
	if err := f.SetShadowAt(8, []uint32{0, 5, 6, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := f.Shadow(); len(got) != 11 || got[9] != 5 || got[10] != 6 {
		t.Errorf("shadow after tainted store = %v", got)
	}
}

func TestReadAtPastMaterializedShadow(t *testing.T) {
	f := &File{}
	if err := f.WriteAt(0, []byte{1, 2, 3, 4, 5, 6}, []uint32{7, 8, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if len(f.Shadow()) != 2 {
		t.Fatalf("materialized %d ids, want 2", len(f.Shadow()))
	}
	data, shadow := f.ReadAt(1, 4)
	if len(data) != 4 || len(shadow) != 4 || shadow[0] != 8 || shadow[1] != 0 || shadow[3] != 0 {
		t.Errorf("ReadAt(1, 4) = %v, %v", data, shadow)
	}
	data, shadow = f.ReadAt(3, 10)
	if len(data) != 3 || len(shadow) != 3 || shadow[0]|shadow[1]|shadow[2] != 0 {
		t.Errorf("ReadAt(3, 10) = %v, %v", data, shadow)
	}
}

func TestUntaintedWriteClearsTaintedRange(t *testing.T) {
	for _, shadow := range [][]uint32{nil, {0, 0, 0}} {
		f := &File{}
		if err := f.WriteAt(0, make([]byte, 6), []uint32{1, 2, 3, 4, 5, 6}); err != nil {
			t.Fatal(err)
		}
		// The write runs past the file's end: the part inside the
		// materialized shadow is cleared, the rest stays unmaterialized.
		if err := f.WriteAt(4, make([]byte, 3), shadow); err != nil {
			t.Fatal(err)
		}
		if got, want := shadowOf(f), []uint32{1, 2, 3, 4, 0, 0, 0}; !slices.Equal(got, want) {
			t.Errorf("shadow %v: after untainted write = %v, want %v", shadow, got, want)
		}
		if len(f.Shadow()) > 6 {
			t.Errorf("shadow %v: untainted write grew the shadow to %d ids", shadow, len(f.Shadow()))
		}
	}
}

func TestTaintedWritePastEnd(t *testing.T) {
	f := &File{}
	if err := f.WriteAt(0, make([]byte, 4), nil); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(10, []byte{1, 2}, []uint32{9, 0}); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 12 {
		t.Fatalf("size = %d, want 12", f.Size())
	}
	want := make([]uint32, 12)
	want[10] = 9
	if got := shadowOf(f); !slices.Equal(got, want) {
		t.Errorf("shadow = %v, want %v", got, want)
	}
}

func TestSetShadowAtBounds(t *testing.T) {
	f := &File{}
	if err := f.WriteAt(0, make([]byte, 4), nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		off int
		ids []uint32
	}{
		{-1, []uint32{1}},
		{3, []uint32{1, 2}},
		{5, nil},
		{0, []uint32{1, 2, 3, 4, 5}},
	} {
		if err := f.SetShadowAt(tc.off, tc.ids); err == nil {
			t.Errorf("SetShadowAt(%d, %d ids) on a 4-byte file accepted", tc.off, len(tc.ids))
		}
	}
	if f.Shadow() != nil {
		t.Errorf("rejected stores materialized %d ids", len(f.Shadow()))
	}
	if err := f.SetShadowAt(2, []uint32{3, 4}); err != nil {
		t.Fatal(err)
	}
	if got := shadowOf(f); !slices.Equal(got, []uint32{0, 0, 3, 4}) {
		t.Errorf("shadow = %v", got)
	}
}

func TestTruncateDropsShadow(t *testing.T) {
	fs := New()
	f := fs.Create("log.txt")
	if err := f.WriteAt(0, make([]byte, 3), []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	fs.Create("log.txt") // truncates
	if f.Size() != 0 || len(f.Shadow()) != 0 {
		t.Fatalf("after truncate: size %d, %d shadow ids", f.Size(), len(f.Shadow()))
	}
	// Regrowing the file must not resurrect the old shadow.
	if err := f.WriteAt(0, make([]byte, 3), nil); err != nil {
		t.Fatal(err)
	}
	if got := shadowOf(f); !slices.Equal(got, []uint32{0, 0, 0}) {
		t.Errorf("shadow after regrow = %v", got)
	}
	if err := f.WriteAt(1, []byte{1}, []uint32{7}); err != nil {
		t.Fatal(err)
	}
	if got := shadowOf(f); !slices.Equal(got, []uint32{0, 7, 0}) {
		t.Errorf("shadow after tainted regrow = %v", got)
	}
}

// Size returns the file length in bytes.
func (f *File) Size() int { return len(f.data) }
