// Package gnet is the WinMini network stack: sockets, flows, and scripted
// remote endpoints.
//
// A flow is a TCP-connection-like 4-tuple; its identity becomes the netflow
// tag in provenance lists. During a live run, scripted endpoints (the
// "attacker machine" and benign servers of the paper's testbed) react to
// connects and sends by scheduling reply packets as future events. During
// replay the endpoints are disabled and the recorded packet events replay
// verbatim.
package gnet

import (
	"fmt"
	"sort"
)

// Addr is an IP:port endpoint address.
type Addr struct {
	IP   string
	Port uint16
}

// String renders ip:port.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// Flow is one connection. The remote side is the packet source for inbound
// data, matching the paper's netflow tag orientation (src = attacker).
type Flow struct {
	ID     uint32
	Local  Addr
	Remote Addr
}

// Reply is data a scripted endpoint sends back after a delay.
type Reply struct {
	// DelayInstr is how many guest instructions after the triggering action
	// the packet arrives.
	DelayInstr uint64
	Data       []byte
	// Close, when set, closes the flow after the data (if any) arrives.
	Close bool
}

// Endpoint scripts a remote host. Implementations must be deterministic.
type Endpoint interface {
	// OnConnect fires when a guest socket connects to this endpoint.
	OnConnect(flow Flow) []Reply
	// OnData fires when the guest sends data on an established flow.
	OnData(flow Flow, data []byte) []Reply
}

// Socket is the kernel-side socket object.
type Socket struct {
	ID    uint32
	Owner uint32 // pid
	Flow  *Flow

	// RX is the kernel receive buffer; RXProv is its per-byte provenance,
	// written by the FAROS bridge when packets arrive.
	RX     []byte
	RXProv []uint32

	// RemoteClosed is set when the peer closes; a recv on an empty closed
	// socket returns 0.
	RemoteClosed bool

	// TxBytes counts sent payload for the Cuckoo report.
	TxBytes int

	// rxNext is the next expected wire sequence number; pending buffers
	// out-of-order arrivals until the gap fills (a minimal TCP reassembly
	// queue, needed once the fault injector can delay and duplicate
	// packets).
	rxNext  uint32
	pending map[uint32][]byte
}

// AcceptSeq runs the reassembly logic for a wire arrival carrying seq and
// returns the payloads now deliverable, in order: nil for a duplicate or a
// buffered out-of-order packet, or the arrival plus any pending successors
// it unblocked. A zero seq bypasses sequencing (scripted device scripts
// and legacy logs predate wire sequencing).
func (sock *Socket) AcceptSeq(seq uint32, data []byte) [][]byte {
	if seq == 0 {
		return [][]byte{data}
	}
	switch {
	case seq < sock.rxNext:
		return nil // duplicate: already delivered
	case seq > sock.rxNext:
		if sock.pending == nil {
			sock.pending = make(map[uint32][]byte)
		}
		if _, buffered := sock.pending[seq]; !buffered {
			sock.pending[seq] = append([]byte(nil), data...)
		}
		return nil
	}
	out := [][]byte{data}
	sock.rxNext++
	for {
		next, ok := sock.pending[sock.rxNext]
		if !ok {
			break
		}
		delete(sock.pending, sock.rxNext)
		out = append(out, next)
		sock.rxNext++
	}
	return out
}

// Checksum hashes packet payloads (FNV-1a) so corrupted wire copies can be
// detected and discarded at delivery.
func Checksum(data []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range data {
		h ^= uint32(b)
		h *= 16777619
	}
	if h == 0 { // zero means "unchecked" in record.Event
		return 1
	}
	return h
}

// Scheduler lets the stack schedule future packet events during live runs.
// The kernel implements it over the record queue.
type Scheduler interface {
	SchedulePacket(flowID uint32, delayInstr uint64, data []byte)
	ScheduleFlowClose(flowID uint32, delayInstr uint64)
}

// Stack is the network stack.
type Stack struct {
	// LocalIP is the guest machine's address.
	LocalIP string

	// Replay disables endpoints: inbound data comes only from the recorded
	// event stream.
	Replay bool

	sockets   map[uint32]*Socket
	flows     map[uint32]*Flow
	endpoints map[Addr]Endpoint
	sched     Scheduler

	nextSock uint32
	nextFlow uint32
	nextPort uint16
	nextSeq  map[uint32]uint32 // per-flow wire sequence counters

	// FlowLog lists flows in creation order for reports.
	FlowLog []Flow
}

// NewStack creates a stack for a guest with the given local IP.
func NewStack(localIP string) *Stack {
	return &Stack{
		LocalIP:   localIP,
		sockets:   make(map[uint32]*Socket),
		flows:     make(map[uint32]*Flow),
		endpoints: make(map[Addr]Endpoint),
		nextSeq:   make(map[uint32]uint32),
		nextSock:  1,
		nextFlow:  1,
		nextPort:  49152, // Windows ephemeral range
	}
}

// SetScheduler wires the stack to the kernel's event queue.
func (st *Stack) SetScheduler(s Scheduler) { st.sched = s }

// AddEndpoint registers a scripted remote host.
func (st *Stack) AddEndpoint(addr Addr, ep Endpoint) { st.endpoints[addr] = ep }

// NextSeq allocates the next wire sequence number for a flow (first is 1).
func (st *Stack) NextSeq(flowID uint32) uint32 {
	st.nextSeq[flowID]++
	return st.nextSeq[flowID]
}

// NewSocket allocates a socket owned by pid.
func (st *Stack) NewSocket(pid uint32) *Socket {
	s := &Socket{ID: st.nextSock, Owner: pid, rxNext: 1}
	st.nextSock++
	st.sockets[s.ID] = s
	return s
}

// Socket returns a socket by id.
func (st *Stack) Socket(id uint32) (*Socket, bool) {
	s, ok := st.sockets[id]
	return s, ok
}

// Connect establishes a flow from a socket to a remote address. In live
// mode the endpoint's OnConnect replies are scheduled as packet events.
// Connecting to an address with no registered endpoint fails in live mode
// (connection refused) but succeeds in replay (the log already knows).
func (st *Stack) Connect(sock *Socket, remote Addr) error {
	if sock.Flow != nil {
		return fmt.Errorf("gnet: socket %d already connected", sock.ID)
	}
	ep, known := st.endpoints[remote]
	if !known && !st.Replay {
		return fmt.Errorf("gnet: connection refused: %s", remote)
	}
	flow := &Flow{
		ID:     st.nextFlow,
		Local:  Addr{IP: st.LocalIP, Port: st.nextPort},
		Remote: remote,
	}
	st.nextFlow++
	st.nextPort++
	st.flows[flow.ID] = flow
	sock.Flow = flow
	st.FlowLog = append(st.FlowLog, *flow)
	if !st.Replay && ep != nil {
		st.scheduleReplies(flow.ID, ep.OnConnect(*flow))
	}
	return nil
}

// Send transmits guest data on a connected socket. Replies from the
// scripted endpoint are scheduled in live mode.
func (st *Stack) Send(sock *Socket, data []byte) (int, error) {
	if sock.Flow == nil {
		return 0, fmt.Errorf("gnet: socket %d not connected", sock.ID)
	}
	sock.TxBytes += len(data)
	if !st.Replay {
		if ep, ok := st.endpoints[sock.Flow.Remote]; ok {
			st.scheduleReplies(sock.Flow.ID, ep.OnData(*sock.Flow, data))
		}
	}
	return len(data), nil
}

func (st *Stack) scheduleReplies(flowID uint32, replies []Reply) {
	if st.sched == nil {
		return
	}
	for _, r := range replies {
		if len(r.Data) > 0 {
			st.sched.SchedulePacket(flowID, r.DelayInstr, r.Data)
		}
		if r.Close {
			st.sched.ScheduleFlowClose(flowID, r.DelayInstr)
		}
	}
}

// SocketForFlow finds the socket bound to a flow id.
func (st *Stack) SocketForFlow(flowID uint32) (*Socket, bool) {
	for _, id := range st.socketIDs() {
		s := st.sockets[id]
		if s.Flow != nil && s.Flow.ID == flowID {
			return s, true
		}
	}
	return nil, false
}

// socketIDs returns socket ids in order (map-order independence).
func (st *Stack) socketIDs() []uint32 {
	out := make([]uint32, 0, len(st.sockets))
	for id := range st.sockets {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Flow returns a flow by id.
func (st *Stack) Flow(id uint32) (*Flow, bool) {
	f, ok := st.flows[id]
	return f, ok
}

// DeliverPacket appends payload (with its per-byte provenance, from the
// FAROS bridge) to the flow's socket receive buffer. It returns the socket
// so the kernel can complete a blocked recv.
func (st *Stack) DeliverPacket(flowID uint32, data []byte, prov []uint32) (*Socket, error) {
	sock, ok := st.SocketForFlow(flowID)
	if !ok {
		return nil, fmt.Errorf("gnet: no socket for flow %d", flowID)
	}
	if prov == nil {
		prov = make([]uint32, len(data))
	}
	if len(prov) != len(data) {
		return nil, fmt.Errorf("gnet: prov length %d != data length %d", len(prov), len(data))
	}
	sock.RX = append(sock.RX, data...)
	sock.RXProv = append(sock.RXProv, prov...)
	return sock, nil
}

// CloseFlow marks the remote side closed.
func (st *Stack) CloseFlow(flowID uint32) (*Socket, bool) {
	sock, ok := st.SocketForFlow(flowID)
	if !ok {
		return nil, false
	}
	sock.RemoteClosed = true
	return sock, true
}

// TakeRX consumes up to max bytes from the socket receive buffer.
func (sock *Socket) TakeRX(max int) ([]byte, []uint32) {
	if max <= 0 || len(sock.RX) == 0 {
		return nil, nil
	}
	n := len(sock.RX)
	if n > max {
		n = max
	}
	data := make([]byte, n)
	prov := make([]uint32, n)
	copy(data, sock.RX[:n])
	copy(prov, sock.RXProv[:n])
	sock.RX = sock.RX[n:]
	sock.RXProv = sock.RXProv[n:]
	return data, prov
}
