package scenario

import (
	"context"
	"testing"
	"testing/quick"

	"faros/internal/core"
	"faros/internal/guest/gnet"
	"faros/internal/isa"
	"faros/internal/peimg"
	"faros/internal/samples"
)

// fuzzEndpoint sends a configurable schedule of packets.
type fuzzEndpoint struct {
	delays []uint16
	sizes  []uint8
}

func (e fuzzEndpoint) OnConnect(gnet.Flow) []gnet.Reply {
	var out []gnet.Reply
	for i, d := range e.delays {
		n := int(e.sizes[i%len(e.sizes)])%64 + 1
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(i + j)
		}
		out = append(out, gnet.Reply{DelayInstr: uint64(d) + 1, Data: data})
	}
	return out
}

func (e fuzzEndpoint) OnData(gnet.Flow, []byte) []gnet.Reply { return nil }

// fuzzSpec builds a receiver that drains the socket until it closes.
func fuzzSpec(ep fuzzEndpoint) samples.Spec {
	addr := gnet.Addr{IP: "10.9.9.9", Port: 7}
	b := peimg.NewBuilder("fuzzrx.exe")
	b.DataBlk.Label("ip").DataString(addr.IP)
	buf := b.BSS(4096)
	total := b.BSS(4)
	b.CallImport("Socket")
	b.Text.Mov(isa.EBP, isa.EAX)
	b.Text.Mov(isa.EBX, isa.EBP)
	b.Text.Movi(isa.ECX, b.MustDataVA("ip"))
	b.Text.Movi(isa.EDX, uint32(addr.Port))
	b.CallImport("Connect")
	// Receive a bounded number of chunks, accumulating the byte count.
	for i := 0; i < len(ep.delays); i++ {
		b.Text.Mov(isa.EBX, isa.EBP)
		b.Text.Movi(isa.ECX, buf)
		b.Text.Movi(isa.EDX, 128)
		b.CallImport("Recv")
		b.Text.Movi(isa.EBX, total)
		b.Text.Ld(isa.ECX, isa.EBX, 0)
		b.Text.Add(isa.ECX, isa.EAX)
		b.Text.St(isa.EBX, 0, isa.ECX)
	}
	b.Text.Movi(isa.EBX, total)
	b.Text.Ld(isa.EBX, isa.EBX, 0)
	b.CallImport("ExitProcess") // exit code = total bytes received
	raw, err := b.BuildBytes()
	if err != nil {
		panic(err)
	}
	return samples.Spec{
		Name:      "fuzz_rx",
		Programs:  []samples.Program{{Path: "fuzzrx.exe", Bytes: raw}},
		AutoStart: []string{"fuzzrx.exe"},
		Endpoints: []samples.EndpointSpec{{Addr: addr, Endpoint: ep}},
		MaxInstr:  2_000_000,
	}
}

// TestReplayDeterminismProperty: for arbitrary packet schedules, the
// recorded run and its replay (with the DIFT engine attached) retire the
// same instruction count and the receiving process exits with the same
// byte total.
func TestReplayDeterminismProperty(t *testing.T) {
	f := func(delaysRaw []uint16, sizesRaw []uint8) bool {
		if len(delaysRaw) == 0 {
			delaysRaw = []uint16{1}
		}
		if len(delaysRaw) > 6 {
			delaysRaw = delaysRaw[:6]
		}
		if len(sizesRaw) == 0 {
			sizesRaw = []uint8{16}
		}
		ep := fuzzEndpoint{delays: delaysRaw, sizes: sizesRaw}
		spec := fuzzSpec(ep)

		log, rec, err := RecordContext(context.Background(), spec, nil)
		if err != nil {
			t.Logf("record: %v", err)
			return false
		}
		rep, err := ReplayContext(context.Background(), spec, log, Plugins{Faros: &core.Config{}}, nil)
		if err != nil {
			t.Logf("replay: %v", err)
			return false
		}
		if rec.Summary.Instructions != rep.Summary.Instructions {
			t.Logf("instr: %d vs %d", rec.Summary.Instructions, rep.Summary.Instructions)
			return false
		}
		// Process exit codes must match (total bytes received).
		recProcs := recExitCodes(rec)
		repProcs := recExitCodes(rep)
		if len(recProcs) != len(repProcs) {
			return false
		}
		for i := range recProcs {
			if recProcs[i] != repProcs[i] {
				t.Logf("exit codes: %v vs %v", recProcs, repProcs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func recExitCodes(r *Result) []uint32 {
	var out []uint32
	for _, p := range r.Kernel.Processes() {
		out = append(out, p.ExitCode)
	}
	return out
}
