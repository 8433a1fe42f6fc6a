package peimg_test

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"faros/internal/guest"
	"faros/internal/isa"
	"faros/internal/peimg"
	"faros/internal/samples"
)

// exportsLast is a DLL image whose last record is an export name.
func exportsLast(tb testing.TB) []byte {
	b := peimg.NewBuilder("lib.dll")
	b.Text.Label("fn").Movi(isa.EAX, 1).Ret()
	b.AddExport("DoThing", "fn")
	return buildBytes(tb, b)
}

// bssLast is a program that calls no API: code plus a BSS-only .data, so
// its last record is a section with no file bytes.
func bssLast(tb testing.TB) []byte {
	b := peimg.NewBuilder("loop.exe")
	b.BSS(64)
	b.Text.Movi(isa.EBX, 0).Movi(isa.EAX, guest.SysExitProcess).Syscall()
	return buildBytes(tb, b)
}

func buildBytes(tb testing.TB, b *peimg.Builder) []byte {
	tb.Helper()
	raw, err := b.BuildBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestUnmarshalWholeImagesOnly: a complete image round-trips and spawns,
// down to a last section with no file bytes, and every proper prefix of
// it is rejected as truncated.
func TestUnmarshalWholeImagesOnly(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"lib.dll", exportsLast(t)},
		{"loop.exe", bssLast(t)},
	} {
		img, err := peimg.Unmarshal(tc.raw)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if back, err := img.Marshal(); err != nil || !bytes.Equal(back, tc.raw) {
			t.Errorf("%s: re-marshal differs (%v)", tc.name, err)
		}
		for n := range tc.raw {
			if _, err := peimg.Unmarshal(tc.raw[:n]); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s: %d-byte prefix: err = %v, want io.ErrUnexpectedEOF", tc.name, n, err)
			}
		}
		k, err := guest.NewKernel()
		if err != nil {
			t.Fatal(err)
		}
		k.FS.Install(tc.name, tc.raw)
		if _, err := k.Spawn(tc.name, false, 0); err != nil {
			t.Errorf("%s: spawn: %v", tc.name, err)
		}
		if _, err := k.Run(10_000); err != nil {
			t.Errorf("%s: run: %v", tc.name, err)
		}
		k.M.Release()
	}
}

// FuzzUnmarshal holds the loader to three invariants on any input: it
// never panics, a rejected input gets an error, and an accepted image
// re-marshals to bytes that Unmarshal reads back equal.
func FuzzUnmarshal(f *testing.F) {
	f.Add(exportsLast(f))
	f.Add(bssLast(f))
	for _, specs := range [][]samples.Spec{
		samples.Attacks(), samples.EvasionScenarios(), samples.JITWorkloads(),
		samples.BenignPrograms(), samples.MalwareCorpus(),
	} {
		for _, spec := range specs {
			for _, p := range spec.Programs {
				f.Add(p.Bytes)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := peimg.Unmarshal(data)
		if err != nil {
			return
		}
		if img == nil {
			t.Fatal("Unmarshal returned neither an image nor an error")
		}
		raw, err := img.Marshal()
		if err != nil {
			t.Fatalf("accepted image does not re-marshal: %v", err)
		}
		back, err := peimg.Unmarshal(raw)
		if err != nil {
			t.Fatalf("re-marshaled image rejected: %v", err)
		}
		if !reflect.DeepEqual(back, img) {
			t.Fatalf("round trip differs:\n got %+v\nwant %+v", back, img)
		}
	})
}

// TestUnmarshalAllocs bounds Unmarshal on each Table V image: the image,
// its names, its section-data copies and the slices that hold them, and
// no per-field read temporaries (reading fields through a bytes.Reader
// cost 92 allocations per image).
func TestUnmarshalAllocs(t *testing.T) {
	const bound = 25
	for _, w := range samples.PerfWorkloads() {
		raw := w.Spec.Programs[0].Bytes
		got := testing.AllocsPerRun(20, func() {
			if _, err := peimg.Unmarshal(raw); err != nil {
				t.Fatal(err)
			}
		})
		if got > bound {
			t.Errorf("%s: Unmarshal made %.0f allocations, want at most %d", w.Display, got, bound)
		}
	}
}
