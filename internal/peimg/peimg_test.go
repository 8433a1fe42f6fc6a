package peimg

import (
	"testing"
	"testing/quick"

	"faros/internal/isa"
	"faros/internal/mem"
)

// FindExport resolves an export by name hash.
func (img *Image) FindExport(hash uint32) (Export, bool) {
	for _, e := range img.Exports {
		if e.NameHash == hash {
			return e, true
		}
	}
	return Export{}, false
}

func TestHashNameStableAndDistinct(t *testing.T) {
	if HashName("WriteFile") != HashName("WriteFile") {
		t.Error("hash not deterministic")
	}
	names := []string{"LoadLibraryA", "GetProcAddress", "VirtualAlloc", "WriteFile", "ReadFile", "Socket", "Connect"}
	seen := make(map[uint32]string)
	for _, n := range names {
		h := HashName(n)
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision: %q vs %q", n, prev)
		}
		seen[h] = n
	}
	if HashName("") == 0 {
		t.Error("empty hash is zero (FNV offset expected)")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	img := &Image{
		Name:  "test.exe",
		Base:  DefaultBase,
		Entry: TextOff + 8,
		Sections: []Section{
			{Name: ".idata", VA: IdataOff, Perm: mem.PermRW, Size: 0x20},
			{Name: ".text", VA: TextOff, Perm: mem.PermRX, Data: []byte{1, 2, 3, 4}},
			{Name: ".data", VA: DataOff, Perm: mem.PermRW, Data: []byte("hi"), Size: 100},
		},
		Imports: []Import{{NameHash: HashName("WriteFile"), ThunkVA: 0x10, Name: "WriteFile"}},
		Exports: []Export{{NameHash: HashName("Run"), VA: TextOff, Name: "Run"}},
	}
	raw, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !IsImage(raw) {
		t.Fatal("IsImage rejects marshaled image")
	}
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != img.Name || got.Base != img.Base || got.Entry != img.Entry {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Sections) != 3 || got.Sections[2].Size != 100 || string(got.Sections[2].Data) != "hi" {
		t.Errorf("sections mismatch: %+v", got.Sections)
	}
	if len(got.Imports) != 1 || got.Imports[0].Name != "WriteFile" {
		t.Errorf("imports mismatch: %+v", got.Imports)
	}
	if len(got.Exports) != 1 || got.Exports[0].VA != TextOff {
		t.Errorf("exports mismatch: %+v", got.Exports)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		[]byte("not an image at all"),
		{0x4D, 0x5A, 0x33, 0x32}, // magic only, truncated
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	if IsImage([]byte{1, 2, 3, 4}) {
		t.Error("IsImage accepts junk")
	}
}

func TestUnmarshalTruncatedSection(t *testing.T) {
	img := &Image{Name: "x", Base: DefaultBase, Sections: []Section{
		{Name: ".text", VA: TextOff, Perm: mem.PermRX, Data: make([]byte, 64)},
	}}
	raw, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(raw[:len(raw)-10]); err == nil {
		t.Error("truncated image accepted")
	}
}

func TestSectionHelpers(t *testing.T) {
	s := Section{Data: []byte{1, 2, 3}, Size: 10}
	if s.MemSize() != 10 {
		t.Errorf("MemSize = %d", s.MemSize())
	}
	s.Size = 0
	if s.MemSize() != 3 {
		t.Errorf("MemSize = %d", s.MemSize())
	}
	img := &Image{Sections: []Section{
		{Name: ".text", VA: TextOff, Data: make([]byte, 100)},
		{Name: ".data", VA: DataOff, Size: 200},
	}}
	if img.Section(".data") == nil || img.Section(".bogus") != nil {
		t.Error("Section lookup broken")
	}
}

func TestBuilderLayout(t *testing.T) {
	b := NewBuilder("hello.exe")
	b.DataBlk.Label("msg").DataString("hello")
	bufVA := b.BSS(64)

	thunk1 := b.ImportThunk("WriteFile")
	thunk2 := b.ImportThunk("ExitProcess")
	if again := b.ImportThunk("WriteFile"); again != thunk1 {
		t.Error("duplicate import created a new thunk")
	}
	if thunk2 != thunk1+4 {
		t.Errorf("thunks not consecutive: %#x %#x", thunk1, thunk2)
	}
	if thunk1 != DefaultBase+IdataOff+ThunkSlot0 {
		t.Errorf("thunk0 VA = %#x", thunk1)
	}

	msgVA := b.MustDataVA("msg")
	if msgVA != DefaultBase+DataOff {
		t.Errorf("msg VA = %#x", msgVA)
	}
	if bufVA != DefaultBase+DataOff+6 { // "hello\0"
		t.Errorf("bss VA = %#x", bufVA)
	}

	b.Text.Label("_start")
	b.Text.Movi(isa.EBX, msgVA)
	b.CallImport("WriteFile")
	b.CallImport("ExitProcess")
	b.SetEntry("_start")

	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != TextOff {
		t.Errorf("entry = %#x", img.Entry)
	}
	if got := img.Section(".idata"); got == nil || got.MemSize() != ThunkSlot0+8 {
		t.Errorf("idata section: %+v", got)
	}
	if got := img.Section(".data"); got == nil || got.MemSize() != 6+64 {
		t.Errorf("data section: %+v", got)
	}
	if len(img.Imports) != 2 {
		t.Fatalf("imports = %+v", img.Imports)
	}
	// CallImport emits MOVI EDI, thunk; LD EDI,[EDI]; CALL EDI.
	text := img.Section(".text").Data
	in, err := isa.Decode(text[isa.InstrSize : 2*isa.InstrSize])
	if err != nil || in.Op != isa.OpMov || in.Imm != thunk1 {
		t.Errorf("CallImport MOVI = %+v, %v", in, err)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("x.exe")
	if _, err := b.DataVA("missing"); err == nil {
		t.Error("missing data label accepted")
	}
	b.SetEntry("nowhere")
	b.Text.Nop()
	if _, err := b.Build(); err == nil {
		t.Error("missing entry label accepted")
	}

	b2 := NewBuilder("y.exe")
	b2.AddExport("Run", "undefined")
	b2.Text.Nop()
	if _, err := b2.Build(); err == nil {
		t.Error("missing export label accepted")
	}
}

func TestBuilderExports(t *testing.T) {
	b := NewBuilder("lib.dll")
	b.Text.Label("fn").Movi(isa.EAX, 1).Ret()
	b.AddExport("DoThing", "fn")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := img.FindExport(HashName("DoThing"))
	if !ok || ex.VA != TextOff {
		t.Errorf("export = %+v, %v", ex, ok)
	}
	if _, ok := img.FindExport(HashName("Missing")); ok {
		t.Error("found missing export")
	}
}

func TestBuilderImageRoundTripsThroughBytes(t *testing.T) {
	b := NewBuilder("rt.exe")
	b.DataBlk.Label("d").Word(0x12345678)
	b.Text.Movi(isa.EAX, 0)
	b.CallImport("ExitProcess")
	raw, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	img, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if img.Name != "rt.exe" || img.Section(".text") == nil {
		t.Errorf("round trip: %+v", img)
	}
}

func TestMarshalPropertyNamesSurvive(t *testing.T) {
	f := func(nameRaw []byte) bool {
		name := string(nameRaw)
		if len(name) > MaxName {
			name = name[:MaxName]
		}
		img := &Image{Name: name, Base: DefaultBase}
		raw, err := img.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(raw)
		return err == nil && got.Name == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Section returns the named section, if present.
func (img *Image) Section(name string) *Section {
	for i := range img.Sections {
		if img.Sections[i].Name == name {
			return &img.Sections[i]
		}
	}
	return nil
}
