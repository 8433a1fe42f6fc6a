package gnet

import (
	"sort"
	"testing"
)

// PendingSegments returns the number of out-of-order segments buffered.
func (sock *Socket) PendingSegments() int { return len(sock.pending) }

// Endpoints returns registered endpoint addresses, sorted.
func (st *Stack) Endpoints() []Addr {
	out := make([]Addr, 0, len(st.endpoints))
	for a := range st.endpoints {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IP != out[j].IP {
			return out[i].IP < out[j].IP
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// fakeSched collects scheduled packets.
type fakeSched struct {
	packets []struct {
		flow  uint32
		delay uint64
		data  []byte
	}
	closes []uint32
}

func (f *fakeSched) SchedulePacket(flowID uint32, delay uint64, data []byte) {
	f.packets = append(f.packets, struct {
		flow  uint32
		delay uint64
		data  []byte
	}{flowID, delay, data})
}

func (f *fakeSched) ScheduleFlowClose(flowID uint32, _ uint64) {
	f.closes = append(f.closes, flowID)
}

// echoEndpoint replies to connects with a banner and echoes data.
type echoEndpoint struct{}

func (echoEndpoint) OnConnect(_ Flow) []Reply {
	return []Reply{{DelayInstr: 10, Data: []byte("banner")}}
}

func (echoEndpoint) OnData(_ Flow, data []byte) []Reply {
	return []Reply{{DelayInstr: 5, Data: data}, {DelayInstr: 6, Close: true}}
}

func TestConnectSendAndReplies(t *testing.T) {
	st := NewStack("169.254.57.168")
	sched := &fakeSched{}
	st.SetScheduler(sched)
	attacker := Addr{IP: "169.254.26.161", Port: 4444}
	st.AddEndpoint(attacker, echoEndpoint{})

	sock := st.NewSocket(1)
	if err := st.Connect(sock, attacker); err != nil {
		t.Fatal(err)
	}
	if sock.Flow == nil || sock.Flow.Remote != attacker {
		t.Fatalf("flow = %+v", sock.Flow)
	}
	if sock.Flow.Local.Port < 49152 {
		t.Errorf("ephemeral port = %d", sock.Flow.Local.Port)
	}
	if len(sched.packets) != 1 || string(sched.packets[0].data) != "banner" {
		t.Fatalf("OnConnect replies = %+v", sched.packets)
	}

	n, err := st.Send(sock, []byte("hi"))
	if err != nil || n != 2 {
		t.Fatalf("send = %d, %v", n, err)
	}
	if len(sched.packets) != 2 || string(sched.packets[1].data) != "hi" {
		t.Fatalf("OnData replies = %+v", sched.packets)
	}
	if len(sched.closes) != 1 {
		t.Fatalf("closes = %v", sched.closes)
	}
	if sock.TxBytes != 2 {
		t.Errorf("TxBytes = %d", sock.TxBytes)
	}
}

func TestConnectRefusedLiveButAllowedInReplay(t *testing.T) {
	st := NewStack("10.0.0.1")
	sock := st.NewSocket(1)
	if err := st.Connect(sock, Addr{IP: "1.2.3.4", Port: 80}); err == nil {
		t.Error("live connect to unknown endpoint accepted")
	}
	st2 := NewStack("10.0.0.1")
	st2.Replay = true
	sock2 := st2.NewSocket(1)
	if err := st2.Connect(sock2, Addr{IP: "1.2.3.4", Port: 80}); err != nil {
		t.Errorf("replay connect failed: %v", err)
	}
}

func TestDoubleConnectRejected(t *testing.T) {
	st := NewStack("10.0.0.1")
	st.Replay = true
	sock := st.NewSocket(1)
	if err := st.Connect(sock, Addr{IP: "1.2.3.4", Port: 80}); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(sock, Addr{IP: "1.2.3.4", Port: 81}); err == nil {
		t.Error("double connect accepted")
	}
}

func TestSendUnconnected(t *testing.T) {
	st := NewStack("10.0.0.1")
	sock := st.NewSocket(1)
	if _, err := st.Send(sock, []byte("x")); err == nil {
		t.Error("send on unconnected socket accepted")
	}
}

func TestDeliverAndTakeRX(t *testing.T) {
	st := NewStack("10.0.0.1")
	st.Replay = true
	sock := st.NewSocket(1)
	if err := st.Connect(sock, Addr{IP: "9.9.9.9", Port: 443}); err != nil {
		t.Fatal(err)
	}
	flowID := sock.Flow.ID
	got, err := st.DeliverPacket(flowID, []byte{1, 2, 3}, []uint32{7, 7, 7})
	if err != nil || got != sock {
		t.Fatalf("deliver: %v", err)
	}
	if _, err := st.DeliverPacket(999, []byte{1}, nil); err == nil {
		t.Error("deliver to unknown flow accepted")
	}
	if _, err := st.DeliverPacket(flowID, []byte{1, 2}, []uint32{1}); err == nil {
		t.Error("mismatched prov accepted")
	}

	data, prov := sock.TakeRX(2)
	if string(data) != "\x01\x02" || prov[0] != 7 {
		t.Errorf("take = %v %v", data, prov)
	}
	data, prov = sock.TakeRX(100)
	if len(data) != 1 || data[0] != 3 || prov[0] != 7 {
		t.Errorf("remaining take = %v %v", data, prov)
	}
	if d, _ := sock.TakeRX(10); d != nil {
		t.Error("empty take returned data")
	}

	// Nil prov defaults to untainted.
	if _, err := st.DeliverPacket(flowID, []byte{9}, nil); err != nil {
		t.Fatal(err)
	}
	_, prov = sock.TakeRX(1)
	if prov[0] != 0 {
		t.Error("nil prov not untainted")
	}
}

func TestCloseFlow(t *testing.T) {
	st := NewStack("10.0.0.1")
	st.Replay = true
	sock := st.NewSocket(4)
	_ = st.Connect(sock, Addr{IP: "9.9.9.9", Port: 443})
	s, ok := st.CloseFlow(sock.Flow.ID)
	if !ok || !s.RemoteClosed {
		t.Error("CloseFlow broken")
	}
	if _, ok := st.CloseFlow(12345); ok {
		t.Error("closed unknown flow")
	}
}

func TestFlowLogAndLookups(t *testing.T) {
	st := NewStack("10.0.0.1")
	st.Replay = true
	a := st.NewSocket(1)
	b := st.NewSocket(2)
	_ = st.Connect(a, Addr{IP: "1.1.1.1", Port: 1})
	_ = st.Connect(b, Addr{IP: "2.2.2.2", Port: 2})
	if len(st.FlowLog) != 2 {
		t.Fatalf("FlowLog = %+v", st.FlowLog)
	}
	if st.FlowLog[0].Local.Port == st.FlowLog[1].Local.Port {
		t.Error("ephemeral ports collide")
	}
	f, ok := st.Flow(a.Flow.ID)
	if !ok || f.Remote.IP != "1.1.1.1" {
		t.Error("Flow lookup broken")
	}
	s, ok := st.SocketForFlow(b.Flow.ID)
	if !ok || s != b {
		t.Error("SocketForFlow broken")
	}
}

func TestNextSeqPerFlow(t *testing.T) {
	st := NewStack("10.0.0.1")
	if st.NextSeq(1) != 1 || st.NextSeq(1) != 2 || st.NextSeq(2) != 1 {
		t.Error("NextSeq counters not per-flow starting at 1")
	}
}

func TestAcceptSeqReassembly(t *testing.T) {
	st := NewStack("10.0.0.1")
	sock := st.NewSocket(1)

	// Zero seq bypasses sequencing entirely.
	if got := sock.AcceptSeq(0, []byte("raw")); len(got) != 1 || string(got[0]) != "raw" {
		t.Fatalf("seq 0 bypass = %v", got)
	}

	// Out-of-order: 2 buffers, 1 delivers both in order.
	if got := sock.AcceptSeq(2, []byte("two")); got != nil {
		t.Fatalf("early seq delivered: %v", got)
	}
	if sock.PendingSegments() != 1 {
		t.Fatalf("pending = %d", sock.PendingSegments())
	}
	got := sock.AcceptSeq(1, []byte("one"))
	if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("reassembly = %q", got)
	}
	if sock.PendingSegments() != 0 {
		t.Fatalf("pending after flush = %d", sock.PendingSegments())
	}

	// Duplicates of delivered and buffered segments are dropped.
	if got := sock.AcceptSeq(1, []byte("one")); got != nil {
		t.Fatalf("stale duplicate delivered: %v", got)
	}
	if got := sock.AcceptSeq(4, []byte("four-a")); got != nil {
		t.Fatal("early seq delivered")
	}
	if got := sock.AcceptSeq(4, []byte("four-b")); got != nil {
		t.Fatal("duplicate of buffered seq delivered")
	}
	got = sock.AcceptSeq(3, []byte("three"))
	if len(got) != 2 || string(got[0]) != "three" || string(got[1]) != "four-a" {
		t.Fatalf("first buffered copy must win: %q", got)
	}
}

func TestChecksum(t *testing.T) {
	a, b := Checksum([]byte("abc")), Checksum([]byte("abd"))
	if a == b {
		t.Error("checksum collision on adjacent payloads")
	}
	if Checksum(nil) == 0 || Checksum([]byte("x")) == 0 {
		t.Error("checksum returned reserved zero value")
	}
	if a != Checksum([]byte("abc")) {
		t.Error("checksum not stable")
	}
}

func TestEndpointsSorted(t *testing.T) {
	st := NewStack("10.0.0.1")
	st.AddEndpoint(Addr{IP: "2.2.2.2", Port: 2}, echoEndpoint{})
	st.AddEndpoint(Addr{IP: "1.1.1.1", Port: 9}, echoEndpoint{})
	st.AddEndpoint(Addr{IP: "1.1.1.1", Port: 1}, echoEndpoint{})
	eps := st.Endpoints()
	if eps[0].String() != "1.1.1.1:1" || eps[2].String() != "2.2.2.2:2" {
		t.Errorf("Endpoints = %v", eps)
	}
}
