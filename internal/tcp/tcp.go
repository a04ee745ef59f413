// Package tcp is a TCP-like byte-stream transport over the same
// physical substrate as MultiEdge: the comparison baseline the paper's
// related work keeps pointing at (IPPS'07 §5: "using TCP/IP imposes
// significant overheads", M-VIA/MPI-over-TCP studies).
//
// The model captures what makes era TCP/IP expensive and slow relative
// to an edge-based RDMA protocol:
//
//   - byte-stream semantics: data is copied into a socket buffer at the
//     sender and out of one at the receiver (two copies plus kernel
//     crossings per side);
//   - cumulative-ACK ARQ with slow start, congestion avoidance, fast
//     retransmit on triple duplicate ACKs, and exponential RTO backoff —
//     but no selective repair;
//   - a heavier per-segment CPU cost (checksum and the IP/TCP layer
//     stack) than MultiEdge's raw-Ethernet fast path.
//
// It is deliberately a baseline, not a full TCP: no SACK, no Nagle, no
// window scaling beyond a large static receive window.
package tcp

import (
	"encoding/binary"
	"hash/crc32"

	"multiedge/internal/frame"
	"multiedge/internal/hostmodel"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// MSS is the maximum segment payload (1500 MTU minus 40 bytes of
// IP+TCP header).
const MSS = 1460

const hdrLen = 40 // modelled IP (20) + TCP (20) headers

// Segment flags.
const (
	flSYN = 1 << iota
	flACK
	flFIN
)

// segment is the decoded TCP-ish header.
type segment struct {
	seq   uint32 // first payload byte's stream offset
	ack   uint32 // cumulative acknowledgement
	flags uint8
	wnd   uint32
}

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// encodeSeg builds the wire frame: Ethernet header, IP/TCP header
// model, payload, checksum.
func encodeSeg(dst, src frame.Addr, s *segment, payload []byte) []byte {
	buf := make([]byte, frame.EthHeaderLen+hdrLen+len(payload))
	binary.BigEndian.PutUint16(buf[4:], uint16(dst))
	binary.BigEndian.PutUint16(buf[10:], uint16(src))
	binary.BigEndian.PutUint16(buf[12:], 0x0800) // IPv4
	p := buf[frame.EthHeaderLen:]
	binary.BigEndian.PutUint32(p[0:], s.seq)
	binary.BigEndian.PutUint32(p[4:], s.ack)
	p[8] = s.flags
	binary.BigEndian.PutUint32(p[9:], s.wnd)
	binary.BigEndian.PutUint16(p[13:], uint16(len(payload)))
	copy(p[hdrLen:], payload)
	binary.BigEndian.PutUint32(p[16:], 0)
	sum := crc32.Checksum(buf, crcTab)
	binary.BigEndian.PutUint32(p[16:], sum)
	return buf
}

func decodeSeg(buf []byte) (src frame.Addr, s segment, payload []byte, ok bool) {
	if len(buf) < frame.EthHeaderLen+hdrLen {
		return 0, s, nil, false
	}
	src = frame.Addr(binary.BigEndian.Uint16(buf[10:]))
	p := buf[frame.EthHeaderLen:]
	want := binary.BigEndian.Uint32(p[16:])
	binary.BigEndian.PutUint32(p[16:], 0)
	got := crc32.Checksum(buf, crcTab)
	binary.BigEndian.PutUint32(p[16:], want)
	if got != want {
		return 0, s, nil, false
	}
	s.seq = binary.BigEndian.Uint32(p[0:])
	s.ack = binary.BigEndian.Uint32(p[4:])
	s.flags = p[8]
	s.wnd = binary.BigEndian.Uint32(p[9:])
	n := int(binary.BigEndian.Uint16(p[13:]))
	if len(p) != hdrLen+n {
		return 0, s, nil, false
	}
	return src, s, p[hdrLen:], true
}

// Costs models the TCP/IP stack's per-event CPU costs. Relative to
// MultiEdge's raw-frame fast path, each segment crosses IP+TCP layers
// and a software checksum.
type Costs struct {
	SegTx, SegRx  sim.Time // per-segment protocol processing
	CopyPsPerByte int64    // socket-buffer copies (each side does one)
	CsumPsPerByte int64    // software checksum
	Syscall       sim.Time
	Wakeup        sim.Time
	UserWake      sim.Time // waking a process blocked in recv/send
}

// DefaultCosts returns costs calibrated to era measurements: Linux 2.6
// TCP spent roughly 2-3x MultiEdge's per-frame budget per segment plus
// a checksum pass over the data.
func DefaultCosts() Costs {
	return Costs{
		SegTx:         1500 * sim.Nanosecond,
		SegRx:         1700 * sim.Nanosecond,
		CopyPsPerByte: 350,
		CsumPsPerByte: 250,
		Syscall:       1100 * sim.Nanosecond,
		Wakeup:        7000 * sim.Nanosecond,
		UserWake:      4500 * sim.Nanosecond,
	}
}

// Params tunes the transport.
type Params struct {
	Costs     Costs
	RcvWnd    int      // receive window (bytes)
	InitCwnd  int      // initial congestion window (bytes)
	RTO       sim.Time // initial retransmission timeout
	AckEvery  int      // delayed ACK: every n segments
	AckDelay  sim.Time // delayed ACK timer
	Ssthresh0 int
}

// DefaultParams returns era-typical settings.
func DefaultParams() Params {
	return Params{
		Costs:     DefaultCosts(),
		RcvWnd:    1 << 20,
		InitCwnd:  4 * MSS,
		RTO:       5 * sim.Millisecond,
		AckEvery:  2,
		AckDelay:  500 * sim.Microsecond,
		Ssthresh0: 1 << 20,
	}
}

// Stack is one node's TCP-like transport instance bound to a NIC.
type Stack struct {
	env    *sim.Env
	node   int
	params Params
	cpus   hostmodel.CPUs
	nic    *phys.NIC

	socks     map[frame.Addr]*Sock // by peer address
	sockOrder []*Sock              // deterministic iteration order
	accepted  sim.Mailbox[*Sock]

	threadActive bool

	// Counters.
	SegsSent, SegsRecv, Retransmits, DupAcks uint64
}

// NewStack creates a TCP host on a NIC.
func NewStack(env *sim.Env, node int, params Params, cpus hostmodel.CPUs, nic *phys.NIC) *Stack {
	st := &Stack{env: env, node: node, params: params, cpus: cpus, nic: nic,
		socks: make(map[frame.Addr]*Sock)}
	nic.SetHost(st)
	return st
}

// Interrupt implements phys.Host (same interrupt-masking discipline as
// the MultiEdge endpoint).
func (st *Stack) Interrupt(n *phys.NIC) {
	n.Mask()
	st.cpus.Proto.Submit(st.env, 2200*sim.Nanosecond, nil)
	st.wake()
}

func (st *Stack) wake() {
	if st.threadActive {
		return
	}
	st.threadActive = true
	st.cpus.Proto.Submit(st.env, st.params.Costs.Wakeup, st.step)
}

// step is the softirq-style protocol loop: one unit of work at a time
// on the protocol CPU.
func (st *Stack) step() {
	if n := st.nic.TakeTxDone(); n > 0 {
		st.cpus.Proto.Submit(st.env, sim.Time(n)*120*sim.Nanosecond, st.step)
		return
	}
	if fr := st.nic.PollRxOne(); fr != nil {
		src, seg, payload, ok := decodeSeg(fr.Buf)
		if !ok {
			st.cpus.Proto.Submit(st.env, st.params.Costs.SegRx, st.step)
			return
		}
		cost := st.params.Costs.SegRx +
			sim.Time(int64(len(payload))*(st.params.Costs.CsumPsPerByte)/1000)
		st.cpus.Proto.Submit(st.env, cost, func() {
			st.dispatch(src, seg, payload)
			st.step()
		})
		return
	}
	// Transmit pending segments.
	for _, sk := range st.sockOrder {
		if sk.sendable() {
			st.cpus.Proto.Submit(st.env, st.params.Costs.SegTx, func() {
				sk.sendNext()
				st.step()
			})
			return
		}
		if sk.ackDue {
			st.cpus.Proto.Submit(st.env, st.params.Costs.SegTx/2, func() {
				sk.sendAck()
				st.step()
			})
			return
		}
	}
	st.threadActive = false
	st.nic.Unmask()
}

func (st *Stack) dispatch(src frame.Addr, seg segment, payload []byte) {
	st.SegsRecv++
	sk, ok := st.socks[src]
	if !ok {
		if seg.flags&flSYN != 0 {
			// Passive open. (SYNs consume no sequence number in this
			// simplified model.)
			sk = newSock(st, src)
			sk.established = true
			st.socks[src] = sk
			st.sockOrder = append(st.sockOrder, sk)
			sk.rcvNxt = seg.seq
			sk.sendSynAck()
			st.accepted.Send(st.env, sk)
			return
		}
		return
	}
	sk.handle(seg, payload)
}

// Dial opens a connection to the peer node's NIC 0 and blocks until
// established.
func (st *Stack) Dial(p *sim.Proc, peer frame.Addr) *Sock {
	sk := newSock(st, peer)
	st.socks[peer] = sk
	st.sockOrder = append(st.sockOrder, sk)
	sk.sendSyn()
	p.Wait(&sk.estSig)
	return sk
}

// Accept blocks until a peer opens a connection.
func (st *Stack) Accept(p *sim.Proc) *Sock {
	return st.accepted.Recv(p)
}
