package peimg

import (
	"fmt"
	"sort"

	"faros/internal/isa"
	"faros/internal/mem"
)

// Builder assembles a WinMini program into an MZ32 image with the canonical
// layout:
//
//	base + IdataOff  .idata  rw-  import thunk table (loader-resolved)
//	base + TextOff   .text   r-x  code (and read-only constants)
//	base + DataOff   .data   rw-  mutable data and static buffers
//
// The fixed section offsets mean thunk and data addresses are known while
// code is being emitted, so no relocation pass is needed.
type Builder struct {
	// Name is the program name recorded in the image.
	Name string
	// Base is the preferred load address.
	Base uint32
	// Text is the code block. Emit code here; use CallImport for API calls.
	Text *isa.Block
	// DataBlk is the mutable data block mapped at Base+DataOff. Define
	// labeled data here *before* referencing it from code via DataVA.
	DataBlk *isa.Block

	bssSize     uint32
	imports     []Import
	importSlots map[string]uint32 // name → thunk VA (absolute)
	exports     []Export          // VA filled at Build from text labels
	exportLbls  []string
	entryLabel  string
}

// NewBuilder returns a Builder for a program with the default base.
func NewBuilder(name string) *Builder {
	return &Builder{
		Name:        name,
		Base:        DefaultBase,
		Text:        isa.NewBlock(),
		DataBlk:     isa.NewBlock(),
		importSlots: make(map[string]uint32),
	}
}

// ImportThunk declares an import and returns the absolute VA of its thunk
// slot (where the loader writes the resolved API address).
func (b *Builder) ImportThunk(api string) uint32 {
	if va, ok := b.importSlots[api]; ok {
		return va
	}
	va := b.Base + IdataOff + ThunkSlot0 + uint32(len(b.imports))*4
	b.imports = append(b.imports, Import{NameHash: HashName(api), ThunkVA: va - b.Base, Name: api})
	b.importSlots[api] = va
	return va
}

// CallImport emits a call to an imported API through its thunk. EDI is the
// linkage scratch register and is clobbered; arguments follow the WinMini
// convention (EBX, ECX, EDX, ESI) and the result returns in EAX.
func (b *Builder) CallImport(api string) *Builder {
	thunk := b.ImportThunk(api)
	b.Text.Movi(isa.EDI, thunk)
	b.Text.Ld(isa.EDI, isa.EDI, 0)
	b.Text.CallReg(isa.EDI)
	return b
}

// DataVA returns the absolute VA of a label in the data block. Valid only
// after the label has been defined (emit data before code that uses it).
func (b *Builder) DataVA(label string) (uint32, error) {
	off, ok := b.DataBlk.LabelOffset(label)
	if !ok {
		return 0, fmt.Errorf("peimg: data label %q not defined", label)
	}
	return b.Base + DataOff + uint32(off), nil
}

// MustDataVA is DataVA panicking on error; for test-covered sample builders.
func (b *Builder) MustDataVA(label string) uint32 {
	va, err := b.DataVA(label)
	if err != nil {
		panic(err)
	}
	return va
}

// BSS reserves n zeroed bytes at the end of .data and returns their VA.
func (b *Builder) BSS(n uint32) uint32 {
	// BSS space lives after the emitted data, page-aligned growth handled at
	// Build; track only the extra size here.
	va := b.Base + DataOff + uint32(b.DataBlk.Len()) + b.bssSize
	b.bssSize += n
	return va
}

// SetEntry selects a text label as the entry point (default: text start).
func (b *Builder) SetEntry(label string) { b.entryLabel = label }

// AddExport exposes a text label in the image export table (for DLLs).
func (b *Builder) AddExport(name, label string) {
	b.exports = append(b.exports, Export{NameHash: HashName(name), Name: name})
	b.exportLbls = append(b.exportLbls, label)
}

// Build assembles the blocks and produces the image.
func (b *Builder) Build() (*Image, error) {
	text, err := b.Text.Assemble(b.Base + TextOff)
	if err != nil {
		return nil, fmt.Errorf("peimg: %s: text: %w", b.Name, err)
	}
	if uint32(len(text)) > DataOff-TextOff {
		return nil, fmt.Errorf("peimg: %s: text too large: %d bytes", b.Name, len(text))
	}
	data, err := b.DataBlk.Assemble(b.Base + DataOff)
	if err != nil {
		return nil, fmt.Errorf("peimg: %s: data: %w", b.Name, err)
	}

	entry := TextOff
	if b.entryLabel != "" {
		off, ok := b.Text.LabelOffset(b.entryLabel)
		if !ok {
			return nil, fmt.Errorf("peimg: %s: entry label %q not defined", b.Name, b.entryLabel)
		}
		entry = TextOff + uint32(off)
	}

	img := &Image{Name: b.Name, Base: b.Base, Entry: entry}

	// .idata sized to hold all thunks (at least one page).
	idataSize := ThunkSlot0 + uint32(len(b.imports))*4
	img.Sections = append(img.Sections, Section{
		Name: ".idata", VA: IdataOff, Perm: mem.PermRW, Size: idataSize,
	})
	img.Sections = append(img.Sections, Section{
		Name: ".text", VA: TextOff, Perm: mem.PermRX, Data: text,
	})
	if len(data) > 0 || b.bssSize > 0 {
		img.Sections = append(img.Sections, Section{
			Name: ".data", VA: DataOff, Perm: mem.PermRW,
			Data: data, Size: uint32(len(data)) + b.bssSize,
		})
	}

	img.Imports = append(img.Imports, b.imports...)
	sort.Slice(img.Imports, func(i, j int) bool { return img.Imports[i].ThunkVA < img.Imports[j].ThunkVA })

	for i, ex := range b.exports {
		off, ok := b.Text.LabelOffset(b.exportLbls[i])
		if !ok {
			return nil, fmt.Errorf("peimg: %s: export label %q not defined", b.Name, b.exportLbls[i])
		}
		ex.VA = TextOff + uint32(off)
		img.Exports = append(img.Exports, ex)
	}
	return img, nil
}

// BuildBytes assembles and marshals in one step.
func (b *Builder) BuildBytes() ([]byte, error) {
	img, err := b.Build()
	if err != nil {
		return nil, err
	}
	return img.Marshal()
}
