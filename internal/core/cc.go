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

// ccState is a connection's congestion window and its bookkeeping. All
// of it is inert when the feature is off. Its counts are bounded by the
// window (Config.Window, frames).
type ccState struct {
	cwnd        int32  // congestion window, frames
	ccAckCredit int32  // acked frames banked toward the next additive increase
	ccRetxSent  int32  // retransmissions since the last ack progress or RTO
	ccEcnRx     int32  // receiver side: marked frames awaiting an ECN echo
	ccRecover   uint32 // no further cut until sndUna reaches this (one cut per flight)
}

// effWindow is the sender's effective transmit window: Config.Window
// bounded by the congestion window when congestion control is on.
func (s *ccState) effWindow(cfg *Config) int {
	if cfg.ccOn() && int(s.cwnd) < cfg.Window {
		return int(s.cwnd)
	}
	return cfg.Window
}

// ccRetxOK reports whether another retransmission fits this round
// trip's repair budget (always true with congestion control off).
func (s *ccState) ccRetxOK(cfg *Config) bool {
	return !cfg.ccOn() || s.ccRetxSent < s.cwnd
}

// cut is the multiplicative decrease, at most once per flight: it is
// refused until sndUna passes the sndNxt recorded by the last cut, so
// each congested round trip costs a single halving. It reports whether
// the window was cut.
func (s *ccState) cut(sndUna, sndNxt uint32) bool {
	if int32(sndUna-s.ccRecover) < 0 {
		return false // still inside the flight the previous cut charged
	}
	s.cwnd = max(s.cwnd/2, ccMinWindow)
	s.ccRecover = sndNxt
	s.ccAckCredit = 0
	return true
}

// ccOnAck credits forward progress: the retransmission budget re-opens
// and acked frames bank toward the additive increase — one extra window
// slot per cwnd acked frames, up to window.
func (s *ccState) ccOnAck(acked, window int) {
	s.ccRetxSent = 0
	s.ccAckCredit += int32(acked)
	for s.ccAckCredit >= s.cwnd {
		if int(s.cwnd) >= window {
			s.ccAckCredit = 0
			return
		}
		s.ccAckCredit -= s.cwnd
		s.cwnd++
	}
}

// ccCut applies cut with cause, counted and reported, when congestion
// control is on.
func (c *Conn) ccCut(cause int64) {
	if c.ep.cfg.ccOn() && c.cut(c.sndUna, c.sndNxt) {
		c.ep.Stats.CcCwndCuts++
		c.ep.emit(c.localID, obs.EvCwndCut, int64(c.cwnd), cause)
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
	return c.inflight() >= c.effWindow(&c.ep.cfg) &&
		len(c.txOps)+c.sqLen() >= ccBacklog
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

// ccAdmitDo is the blocking admission gate (Do/Run): the caller waits
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
