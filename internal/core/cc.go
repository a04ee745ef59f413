package core

import (
	"fmt"

	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// End-to-end congestion control (Config.CongestionControl).
//
// The paper's transport assumes private point-to-point rails; behind a
// shared switch fabric its fixed Config.Window plus aggressive ARQ is
// exactly the recipe for incast collapse — many senders each push a
// full window into one bottleneck queue, the tail drops, every sender
// RTO-fires, and the synchronized retransmissions refill the queue they
// just overflowed. This layer bounds each conn's contribution with an
// AIMD congestion window sitting between the QoS/DWFQ scheduler and the
// wire (the scheduler decides whose turn it is; cwnd decides whether a
// turn may transmit at all):
//
//   - Signals. A switch output queue past its ECN threshold marks the
//     frame (phys.Frame.Ecn, out of band because the protocol header is
//     CRC-covered end to end); the receiver echoes marks on its next
//     ack-bearing frame (frame.Header.EcnEcho); RTO expiry is the
//     drop-loss signal; per-rail SRTT (rail.rtt) is the striping signal.
//   - Multiplicative decrease. An ECN echo or an RTO halves cwnd
//     (floor ccMinWindow), at most once per flight: further signals are
//     ignored until sndUna passes the sndNxt recorded at the cut, so
//     one congested round trip costs one halving, not one per ack.
//     ECN cuts fire while queues are merely deep — throttling before
//     drop-tail loss, so a saturated fabric degrades to bounded queueing
//     delay instead of to RTO storms and ErrPeerDead cascades.
//   - Additive increase. Each cwnd acked frames grow the window by one
//     (the classic one-per-RTT slope), capped at Config.Window.
//   - Loss recovery is paced too: at most cwnd retransmissions may
//     leave between acts of forward progress (ack advance or RTO), so a
//     loss burst can never put more repair traffic on the wire than a
//     fresh burst could. The budget re-opens on every RTO, which makes
//     a fully-blocked recovery impossible — the timer is its clock.
//   - Backpressure. When the window is spent and a full backlog of
//     operations is already queued behind it, Do blocks honoring
//     Op.Deadline and Post fails fast with ErrThrottled — the same
//     graceful-degradation contract as the QoS submission quotas.
//
// Everything here is config-gated: with Config.CongestionControl.Enable
// false, cwnd is 0/inert, effWindow is Config.Window, and no paths
// behave differently.

// Cut causes, recorded in EvCwndCut's B field.
const (
	ccCutEcn = iota // ECN echo: queues are deep somewhere on the path
	ccCutRto        // retransmission timeout: presumed drop loss
)

// effWindow is the sender's effective transmit window: Config.Window
// bounded by the congestion window when congestion control is on.
func (c *Conn) effWindow() int {
	w := c.ep.cfg.Window
	if c.ep.cfg.ccOn() && c.cwnd < w {
		return c.cwnd
	}
	return w
}

// ccRetxOK reports whether another retransmission fits this round
// trip's repair budget (always true with congestion control off).
func (c *Conn) ccRetxOK() bool {
	return !c.ep.cfg.ccOn() || c.ccRetxSent < c.cwnd
}

// railDec returns one outstanding-frame charge from rail li. Clamped at
// zero: epoch resets can zero the counters while late acks still walk.
func (c *Conn) railDec(li int) {
	if li >= 0 && li < len(c.rails) && c.rails[li].out > 0 {
		c.rails[li].out--
	}
}

// ccCut is the multiplicative decrease, at most once per flight: cuts
// are suppressed until sndUna passes the sndNxt recorded by the last
// one, so each congested round trip costs a single halving.
func (c *Conn) ccCut(cause int64) {
	if !c.ep.cfg.ccOn() {
		return
	}
	if int32(c.sndUna-c.ccRecover) < 0 {
		return // still inside the flight the previous cut charged
	}
	c.cwnd = max(c.cwnd/2, ccMinWindow)
	c.ccRecover = c.sndNxt
	c.ccAckCredit = 0
	c.ep.Stats.CcCwndCuts++
	c.ep.emit(c.localID, obs.EvCwndCut, int64(c.cwnd), cause)
}

// ccOnAck credits forward progress: the retransmission budget re-opens
// and acked frames bank toward the additive increase — one extra window
// slot per cwnd acked frames.
func (c *Conn) ccOnAck(acked int) {
	c.ccRetxSent = 0
	c.ccAckCredit += acked
	for c.ccAckCredit >= c.cwnd {
		if c.cwnd >= c.ep.cfg.Window {
			c.ccAckCredit = 0
			return
		}
		c.ccAckCredit -= c.cwnd
		c.cwnd++
	}
}

// ccOnRto treats a retransmission timeout as drop loss: halve the
// window (once per flight) and re-open the repair budget — every expiry
// paces a blocked recovery forward, so recovery cannot deadlock.
func (c *Conn) ccOnRto() {
	if !c.ep.cfg.ccOn() {
		return
	}
	c.ccCut(ccCutRto)
	c.ccRetxSent = 0
}

// ccOnEcnEcho reacts to the peer echoing congestion marks our data
// picked up in the fabric. The counter always ticks (echoes are wire
// facts); the window reaction is what the config gates.
func (c *Conn) ccOnEcnEcho() {
	c.ep.Stats.EcnEchoesRecv++
	c.ccCut(ccCutEcn)
}

// ---------------------------------------------------------------------
// Admission backpressure.
// ---------------------------------------------------------------------

// ccBacklogged reports whether submissions should be pushed back: the
// congestion window is spent AND a full backlog of operations is
// already queued behind it. The backlog term keeps short bursts cheap —
// pipelining past a momentarily-closed window is the normal case — and
// only sustained oversubscription reaches the caller.
func (c *Conn) ccBacklogged() bool {
	if !c.ep.cfg.ccOn() {
		return false
	}
	return c.inflight() >= c.effWindow() &&
		len(c.txOps)+c.SQLen() >= ccBacklog
}

// ccAdmitFast is the fail-fast admission gate (Post): over the window
// backlog returns ErrThrottled immediately, mirroring qosAdmitFast.
func (c *Conn) ccAdmitFast() error {
	if !c.ccBacklogged() {
		return nil
	}
	c.ep.Stats.CcOpsThrottled++
	c.ep.emit(c.localID, obs.EvCcBlock, int64(c.cwnd), 0)
	return fmt.Errorf("core: congestion window backlog to node %d: %w", c.remoteNode, ErrThrottled)
}

// ccAdmitDo is the blocking admission gate (Do/DoOn): the caller waits
// (admitWait) until the window opens, the connection dies, or
// Op.Deadline passes.
func (c *Conn) ccAdmitDo(p *sim.Proc, op Op) error {
	if !c.ccBacklogged() {
		return nil
	}
	c.ep.Stats.CcAdmissionWaits++
	c.ep.emit(c.localID, obs.EvCcBlock, int64(c.cwnd), 1)
	return c.admitWait(p, op, func() bool { return !c.ccBacklogged() }, func() error {
		return fmt.Errorf("core: congestion admission to node %d: %w", c.remoteNode, ErrDeadlineExceeded)
	})
}
