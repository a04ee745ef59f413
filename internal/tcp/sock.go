package tcp

import (
	"multiedge/internal/frame"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// Sock is one end of a TCP-like byte-stream connection.
type Sock struct {
	st   *Stack
	peer frame.Addr

	established bool
	estSig      sim.Signal

	// Send side (byte sequence space).
	sndBuf     []byte // unsent+unacked bytes, sndUna is sndBuf[0]
	sndUna     uint32
	sndNxt     uint32
	cwnd       int
	ssthresh   int
	rwnd       uint32
	dupAcks    int
	inRecovery bool
	recover    uint32 // NewReno recovery point (sndNxt at loss detection)
	rtoTimer   *sim.Timer
	rto        sim.Time
	sndWait    []*sim.Signal // senders blocked on buffer space, in arrival order

	// Receive side.
	rcvNxt   uint32
	oooSeg   map[uint32][]byte // out-of-order segments by seq
	rcvBuf   []byte            // in-order bytes awaiting the application
	rcvWait  []rcvWaiter
	unacked  int
	ackDue   bool
	ackTimer *sim.Timer
}

// rcvWaiter is a process blocked in Recv until need bytes are buffered;
// firing sig resumes it.
type rcvWaiter struct {
	sig  *sim.Signal
	need int
}

const sndBufMax = 1 << 20

func newSock(st *Stack, peer frame.Addr) *Sock {
	return &Sock{
		st: st, peer: peer,
		cwnd: st.params.InitCwnd, ssthresh: st.params.Ssthresh0,
		rwnd: uint32(st.params.RcvWnd), rto: st.params.RTO,
		oooSeg: make(map[uint32][]byte),
	}
}

// ---------------------------------------------------------------------
// Application API.
// ---------------------------------------------------------------------

// Send appends data to the byte stream, blocking while the socket
// buffer is full. It charges the syscall and user->socket-buffer copy on
// the application CPU (the TCP cost the paper's §5 references).
func (sk *Sock) Send(p *sim.Proc, data []byte) {
	st := sk.st
	cost := st.params.Costs.Syscall +
		sim.Time(int64(len(data))*st.params.Costs.CopyPsPerByte/1000)
	p.Exec(st.cpus.App, cost)
	off := 0
	for off < len(data) {
		for len(sk.sndBuf) >= sndBufMax {
			sig := &sim.Signal{}
			sk.sndWait = append(sk.sndWait, sig)
			p.Wait(sig)
		}
		n := len(data) - off
		if room := sndBufMax - len(sk.sndBuf); n > room {
			n = room
		}
		sk.sndBuf = append(sk.sndBuf, data[off:off+n]...)
		off += n
		st.wake()
	}
}

// Recv blocks until n bytes of the stream have arrived and returns
// them, charging the socket-buffer->user copy.
func (sk *Sock) Recv(p *sim.Proc, n int) []byte {
	st := sk.st
	out := make([]byte, 0, n)
	for len(out) < n {
		want := n - len(out)
		low := want
		if lim := st.params.RcvWnd / 4; low > lim {
			low = lim // drain incrementally: never demand more than the window
		}
		for len(sk.rcvBuf) < low {
			sig := &sim.Signal{}
			sk.rcvWait = append(sk.rcvWait, rcvWaiter{sig: sig, need: low})
			p.Wait(sig)
		}
		take := want
		if take > len(sk.rcvBuf) {
			take = len(sk.rcvBuf)
		}
		out = append(out, sk.rcvBuf[:take]...)
		sk.rcvBuf = sk.rcvBuf[take:]
		cost := st.params.Costs.Syscall +
			sim.Time(int64(take)*st.params.Costs.CopyPsPerByte/1000)
		p.Exec(st.cpus.App, cost)
	}
	return out
}

// wakeAll wakes blocked socket waiters, in the order they blocked.
func (sk *Sock) wakeAll(sigs *[]*sim.Signal) {
	for _, sig := range *sigs {
		sk.wake(sig)
	}
	*sigs = nil
}

// wake resumes one blocked socket waiter, charging the process-wakeup
// cost on the protocol CPU (the kernel wakes the sleeping task).
func (sk *Sock) wake(sig *sim.Signal) {
	env := sk.st.env
	sk.st.cpus.Proto.Submit(env, sk.st.params.Costs.UserWake, func() { sig.Fire(env) })
}

// ---------------------------------------------------------------------
// Transmit path.
// ---------------------------------------------------------------------

func (sk *Sock) inflight() int { return int(sk.sndNxt - sk.sndUna) }

// sendable reports whether a new segment may go out under both the
// congestion and receive windows.
func (sk *Sock) sendable() bool {
	if !sk.established {
		return false
	}
	unsent := len(sk.sndBuf) - sk.inflight()
	if unsent <= 0 {
		return false
	}
	win := sk.cwnd
	if int(sk.rwnd) < win {
		win = int(sk.rwnd)
	}
	return sk.inflight() < win
}

// sendNext emits one segment of new data.
func (sk *Sock) sendNext() {
	if !sk.sendable() {
		return
	}
	off := sk.inflight()
	n := len(sk.sndBuf) - off
	if n > MSS {
		n = MSS
	}
	win := sk.cwnd
	if int(sk.rwnd) < win {
		win = int(sk.rwnd)
	}
	if room := win - sk.inflight(); n > room {
		n = room
	}
	if n <= 0 {
		return
	}
	sk.transmit(sk.sndNxt, sk.sndBuf[off:off+n])
	sk.sndNxt += uint32(n)
	sk.armRTO()
}

// transmit sends payload at stream offset seq, with a checksum cost
// already accounted by the caller's SegTx charge.
func (sk *Sock) transmit(seq uint32, payload []byte) {
	st := sk.st
	st.SegsSent++
	s := &segment{seq: seq, ack: sk.rcvNxt, flags: flACK, wnd: sk.advertiseWnd()}
	buf := encodeSeg(sk.peer, st.nic.Addr(), s, payload)
	st.nic.Transmit(&phys.Frame{Buf: buf, Dst: sk.peer, Src: st.nic.Addr()})
	sk.unacked = 0
	sk.ackDue = false
}

func (sk *Sock) sendCtl(flags uint8, seq uint32) {
	st := sk.st
	s := &segment{seq: seq, ack: sk.rcvNxt, flags: flags, wnd: sk.advertiseWnd()}
	buf := encodeSeg(sk.peer, st.nic.Addr(), s, nil)
	st.nic.Transmit(&phys.Frame{Buf: buf, Dst: sk.peer, Src: st.nic.Addr()})
}

// advertiseWnd returns the receive window left after buffered bytes.
func (sk *Sock) advertiseWnd() uint32 {
	if w := sk.st.params.RcvWnd - len(sk.rcvBuf); w > 0 {
		return uint32(w)
	}
	return 0
}

func (sk *Sock) sendSyn() {
	sk.sendCtl(flSYN, sk.sndNxt)
	sk.rtoTimer = sk.st.env.After(sk.rto, func() {
		if !sk.established {
			sk.sendSyn()
		}
	})
}

func (sk *Sock) sendSynAck() { sk.sendCtl(flSYN|flACK, sk.sndNxt) }
func (sk *Sock) sendAck()    { sk.sendCtl(flACK, sk.sndNxt); sk.ackDue = false; sk.unacked = 0 }

// armRTO (re)starts the retransmission timer.
func (sk *Sock) armRTO() {
	if sk.rtoTimer != nil {
		sk.rtoTimer.Stop()
	}
	sk.rtoTimer = sk.st.env.After(sk.rto, sk.onRTO)
}

func (sk *Sock) onRTO() {
	if sk.inflight() == 0 {
		return
	}
	// Timeout: retransmit the first unacked segment, collapse cwnd,
	// back off the timer (classic Reno).
	n := sk.inflight()
	if n > MSS {
		n = MSS
	}
	sk.st.Retransmits++
	sk.transmit(sk.sndUna, sk.sndBuf[:n])
	sk.ssthresh = max(sk.cwnd/2, 2*MSS)
	sk.cwnd = MSS
	sk.inRecovery = false
	sk.rto *= 2
	if sk.rto > 500*sim.Millisecond {
		sk.rto = 500 * sim.Millisecond
	}
	sk.armRTO()
	sk.st.wake()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------
// Receive path.
// ---------------------------------------------------------------------

func (sk *Sock) handle(seg segment, payload []byte) {
	st := sk.st
	if seg.flags&flSYN != 0 && seg.flags&flACK != 0 && !sk.established {
		// Active open completes.
		sk.established = true
		sk.rcvNxt = seg.seq
		sk.sndUna, sk.sndNxt = 0, 0
		if sk.rtoTimer != nil {
			sk.rtoTimer.Stop()
		}
		sk.estSig.Fire(st.env)
		sk.ackDue = true
		st.wake()
		return
	}
	sk.rwnd = seg.wnd
	// ACK processing.
	if seg.flags&flACK != 0 && sk.established {
		if int32(seg.ack-sk.sndUna) > 0 {
			acked := int(seg.ack - sk.sndUna)
			sk.sndBuf = sk.sndBuf[acked:]
			sk.sndUna = seg.ack
			sk.dupAcks = 0
			sk.rto = st.params.RTO
			if sk.inRecovery && int32(seg.ack-sk.recover) < 0 {
				// NewReno partial ACK: the next segment after the
				// cumulative point is also lost — retransmit it now
				// instead of waiting for a timeout.
				n := sk.inflight()
				if n > MSS {
					n = MSS
				}
				if n > 0 {
					st.Retransmits++
					sk.transmit(sk.sndUna, sk.sndBuf[:n])
				}
				sk.armRTO()
			} else {
				if sk.inRecovery {
					sk.inRecovery = false
					sk.cwnd = sk.ssthresh
				}
				// Congestion control: slow start then AIMD.
				if sk.cwnd < sk.ssthresh {
					sk.cwnd += acked // slow start
				} else {
					sk.cwnd += MSS * MSS / sk.cwnd // congestion avoidance
				}
				if sk.inflight() > 0 {
					sk.armRTO()
				} else if sk.rtoTimer != nil {
					sk.rtoTimer.Stop()
				}
			}
			sk.wakeAll(&sk.sndWait)
			st.wake()
		} else if seg.ack == sk.sndUna && sk.inflight() > 0 && len(payload) == 0 {
			sk.dupAcks++
			st.DupAcks++
			if sk.dupAcks == 3 && !sk.inRecovery {
				// Fast retransmit, entering NewReno fast recovery.
				sk.inRecovery = true
				sk.recover = sk.sndNxt
				n := sk.inflight()
				if n > MSS {
					n = MSS
				}
				st.Retransmits++
				sk.transmit(sk.sndUna, sk.sndBuf[:n])
				sk.ssthresh = max(sk.cwnd/2, 2*MSS)
				sk.cwnd = sk.ssthresh
				sk.armRTO()
			}
		}
	}
	if len(payload) == 0 {
		return
	}
	// Data: cumulative in-order delivery, out-of-order segments
	// buffered (no SACK: the sender learns nothing about them).
	if seg.seq == sk.rcvNxt {
		sk.deliver(payload)
		for {
			next, ok := sk.oooSeg[sk.rcvNxt]
			if !ok {
				break
			}
			delete(sk.oooSeg, sk.rcvNxt)
			sk.deliver(next)
		}
	} else if int32(seg.seq-sk.rcvNxt) > 0 {
		if _, dup := sk.oooSeg[seg.seq]; !dup {
			sk.oooSeg[seg.seq] = append([]byte(nil), payload...)
		}
		// Out of order: duplicate ACK right away (triggers the fast
		// retransmit at the sender).
		sk.ackDue = true
		st.wake()
		return
	} else {
		// Old duplicate: re-ACK.
		sk.ackDue = true
		st.wake()
		return
	}
	sk.unacked++
	if sk.unacked >= st.params.AckEvery {
		sk.ackDue = true
		st.wake()
	} else if sk.ackTimer == nil || !sk.ackTimer.Pending() {
		sk.ackTimer = st.env.After(st.params.AckDelay, func() {
			if sk.unacked > 0 {
				sk.ackDue = true
				st.wake()
			}
		})
	}
}

// deliver appends in-order bytes for the application and advances
// rcvNxt, waking a blocked receiver only once enough bytes are buffered
// (real sockets wake at the low-water mark, not per segment).
func (sk *Sock) deliver(payload []byte) {
	sk.rcvNxt += uint32(len(payload))
	sk.rcvBuf = append(sk.rcvBuf, payload...)
	kept := sk.rcvWait[:0]
	for _, w := range sk.rcvWait {
		if len(sk.rcvBuf) >= w.need {
			sk.wake(w.sig)
		} else {
			kept = append(kept, w)
		}
	}
	sk.rcvWait = kept
}
