package guest

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// regionBytes reads a kernel region back out of the kernel's own frames.
func regionBytes(t *testing.T, k *Kernel, frames []uint32, size uint32) []byte {
	t.Helper()
	var out []byte
	for _, fr := range frames {
		f, err := k.M.Phys().Frame(fr)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f[:]...)
	}
	return out[:size]
}

// TestSharedBootImage: the boot image is assembled once and shared, so
// every kernel must still get its own frames holding exactly the bytes a
// fresh assembly produces, and name tables equal to a fresh build's.
// Booting kernels concurrently must be race-free.
func TestSharedBootImage(t *testing.T) {
	fresh, err := buildBootImage()
	if err != nil {
		t.Fatal(err)
	}
	k1, err := NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []*Kernel{k1, k2} {
		for _, r := range []struct {
			name   string
			frames []uint32
			size   uint32
			want   []byte
		}{
			{"stubs", k.stubFrames, k.stubSize, fresh.stubCode},
			{"ntdll", k.ntdllFrames, k.ntdllSize, fresh.ntdllCode},
			{"export table", k.exportFrames, k.exportSize, fresh.exportTable},
		} {
			if got := regionBytes(t, k, r.frames, r.size); !bytes.Equal(got, r.want) {
				t.Errorf("%s region differs from a fresh assembly", r.name)
			}
		}
		if !reflect.DeepEqual(k.apiAddr, fresh.apiAddr) || !reflect.DeepEqual(k.entryNames, fresh.entryNames) {
			t.Error("name tables differ from a fresh build")
		}
	}

	// The bytes are copied per boot: a write into one kernel's export
	// table frame must not show in another's.
	f1, _ := k1.M.Phys().Frame(k1.exportFrames[0])
	f2, _ := k2.M.Phys().Frame(k2.exportFrames[0])
	f1[0] ^= 0xFF
	if f2[0] == f1[0] {
		t.Error("kernels share export table frames")
	}
	f1[0] ^= 0xFF

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, err := NewKernel()
			if err != nil {
				t.Error(err)
				return
			}
			va, ok := k.ResolveAPI("GetProcAddress")
			if name, _ := k.APIName(va); !ok || name != "GetProcAddress" {
				t.Errorf("GetProcAddress resolves to %#x (%q)", va, name)
			}
			if name, ok := k.ExportEntryNameAt(4); !ok || name != fresh.entryNames[0] {
				t.Errorf("export entry 0 = %q, want %q", name, fresh.entryNames[0])
			}
			k.M.Release()
		}()
	}
	wg.Wait()
}
