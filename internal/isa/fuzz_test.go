package isa_test

import (
	"os"
	"strings"
	"testing"

	"faros"
	"faros/internal/isa"
	"faros/internal/mem"
	"faros/internal/peimg"
)

// FuzzParse holds the assembler to its contract on sources nobody wrote:
// Parse and Assemble never panic, and the instruction slots that decode
// from an assembled program lower to micro-ops that retire exactly those
// slots. Seeds are the example payload and the disassembly of every
// registry program's code.
func FuzzParse(f *testing.F) {
	src, err := os.ReadFile("../../examples/scenario_files/payload.s")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(src))
	for _, seed := range registryDisasm(f) {
		f.Add(seed)
	}
	f.Add("loop:\n  JMP loop\n.ascii \"x\"\n.align 8\n.space 4\n.word 0xDEADBEEF")
	f.Add("")

	f.Fuzz(func(t *testing.T, src string) {
		b, err := isa.Parse(src)
		if err != nil {
			return
		}
		code, err := b.Assemble(0)
		if err != nil {
			return
		}
		var ins []isa.Instruction
		for off := 0; off+isa.InstrSize <= len(code); off += isa.InstrSize {
			if in, err := isa.Decode(code[off : off+isa.InstrSize]); err == nil {
				ins = append(ins, in)
			}
		}
		n := 0
		for _, u := range isa.Lower(ins) {
			n += int(u.N)
		}
		if n != len(ins) {
			t.Fatalf("%d decoded slots lowered to micro-ops retiring %d", len(ins), n)
		}
	})
}

// registryDisasm renders the code sections of every registry program as
// assembler source: one Disasm line per slot, up to the first slot that
// does not decode. Equal sources are kept once.
func registryDisasm(tb testing.TB) []string {
	seen := make(map[string]bool)
	var out []string
	for _, name := range faros.ScenarioNames() {
		spec, _ := faros.Scenario(name)
		for _, p := range spec.Programs {
			img, err := peimg.Unmarshal(p.Bytes)
			if err != nil {
				tb.Fatalf("%s: %s: %v", name, p.Path, err)
			}
			for _, s := range img.Sections {
				if s.Perm&mem.PermExec == 0 {
					continue
				}
				var sb strings.Builder
				base := img.Base + s.VA
				for off := 0; off+isa.InstrSize <= len(s.Data); off += isa.InstrSize {
					in, err := isa.Decode(s.Data[off : off+isa.InstrSize])
					if err != nil {
						break
					}
					sb.WriteString(isa.Disasm(in, base+uint32(off)))
					sb.WriteByte('\n')
				}
				if src := sb.String(); !seen[src] {
					seen[src] = true
					out = append(out, src)
				}
			}
		}
	}
	return out
}
