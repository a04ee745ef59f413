package core

import (
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// railSet is a connection's physical links (IPPS'07 §2.5's whole-frame
// striping): each rail's health and round trip, both directions, the
// round-robin cursors, and the timers that probe dead rails and measure
// live ones.
type railSet struct {
	rails       []rail
	deadLinks   int        // count of rails with dead set; at most len(rails)-1
	rr          int        // round-robin link cursor
	railProbeRR int        // next rail to probe (rails are probed staggered)
	probeTimer  *sim.Timer // dead-link probe
	probeFn     func()     // probeTick
	railProbe   *sim.Timer // per-rail RTT probe tick (multi-rail + CC only)
	railProbeFn func()     // railProbeTick
}

// rail is one physical link's share of a connection's state, transmit
// and receive side together.
type rail struct {
	// Transmit side: link-failure handling. A link accumulating repair
	// events (NACKed or timed-out frames last sent on it) without any
	// acknowledged frame in between is declared dead and excluded from
	// round-robin striping; a probe frame is risked on it periodically
	// and an acknowledgement of any frame sent on it re-admits it.
	fails  int      // repair events since the last acked frame
	dead   bool     // currently excluded from striping
	deadAt sim.Time // when the link was last declared dead
	out    int      // frames sent here and not yet acked (congestion control only)

	// Per-rail RTT split: the conn-level estimator blends every rail
	// into one SRTT, which hides a slow rail behind a fast one. This one
	// tracks the rail alone — same estimator, same Karn filter
	// (never-retransmitted frames only) — purely as a congestion signal
	// and health gauge. The conn-level RTO is still driven by the
	// blended estimator, so retransmission timing (and the paper
	// goldens) are unchanged.
	rtt rttEst
	// newest/have are per-ack-walk scratch picking the rail's newest
	// non-retransmitted sample (the per-rail counterpart of handleAck's
	// "newest" Karn tracking); cleared after every walk. With the
	// congestion controller on, multi-rail conns measure each rail with
	// dedicated probe/echo frames instead (see armRailProbes): a
	// cumulative ack only advances once the slowest rail's interleaved
	// frames arrive, so ack-walk samples collapse every rail onto the
	// slowest one's round trip.
	newest sim.Time
	have   bool

	// Receive side. high is 1 + the highest data sequence number that
	// arrived on the link. Because each physical path preserves FIFO
	// order, a missing sequence number s can only have been LOST — rather
	// than queued behind other frames on its path — once every link has
	// delivered some frame beyond s. This makes loss detection immune to
	// cross-link queue skew (deep transmit queues on one rail delay its
	// frames by hundreds of microseconds without any loss).
	high uint32
	// last is the arrival time of the most recent frame on the link. A
	// link silent for cfg.LinkStaleAge while gaps exist stops vetoing
	// loss detection (see Config.LinkStaleAge).
	last sim.Time
}

// rttEst is a Jacobson/Karels round-trip estimator (RFC 6298
// coefficients). srtt == 0 means no sample yet.
type rttEst struct {
	srtt, rttvar sim.Time
}

// sample folds one round-trip measurement in: srtt ← 7/8·srtt + 1/8·s,
// rttvar ← 3/4·rttvar + 1/4·|srtt − s|. It reports whether the sample
// counted (a non-positive one does not).
func (e *rttEst) sample(s sim.Time) bool {
	if s <= 0 {
		return false
	}
	if e.srtt == 0 {
		e.srtt, e.rttvar = s, s/2
		return true
	}
	d := e.srtt - s
	if d < 0 {
		d = -d
	}
	e.rttvar = (3*e.rttvar + d) / 4
	e.srtt = (7*e.srtt + s) / 8
	return true
}

// rto is srtt + 4·rttvar clamped to [RTO, RTOMax]; 0 while there is no
// sample.
func (e *rttEst) rto(cfg *Config) sim.Time {
	if e.srtt == 0 {
		return 0
	}
	rto := max(e.srtt+4*e.rttvar, cfg.RTO)
	if cfg.RTOMax > 0 && rto > cfg.RTOMax {
		rto = cfg.RTOMax
	}
	return rto
}

// rotate is the one round-robin over rails: scanning from *cursor it
// skips every rail declared dead (never all of them: the last survivor
// keeps carrying traffic) and returns the first rail whose cost is
// strictly lowest; a negative cost rules a rail out, and a nil cost
// makes every rail equal. *cursor moves just past the rail returned;
// when every rail is ruled out it stays, and rotate returns -1.
func (rs *railSet) rotate(cursor *int, cost func(li int) int64) int {
	n := len(rs.rails)
	best, bestCost := -1, int64(0)
	for i := range n {
		li, c := (*cursor+i)%n, int64(0)
		if cost != nil {
			c = cost(li)
		}
		if !rs.rails[li].dead && c >= 0 && (best < 0 || c < bestCost) {
			best, bestCost = li, c
		}
	}
	if best >= 0 {
		*cursor = (best + 1) % n
	}
	return best
}

// pickLink chooses the transmit link by rotate from the round-robin
// cursor. The cost is what the configuration selects. By default it is
// constant, so the first live link wins — the paper's round-robin
// (§2.5). adaptive (Config.AdaptiveStripe) makes it the local NIC's
// serialization backlog. weighted (the congestion controller on a
// multi-rail conn) makes it (outstanding+1) × (rail SRTT + NIC
// backlog): the RTT term — the rail's smoothed RTT, falling back to the
// blended conn SRTT srtt before the first per-rail sample, then to a
// constant — sees congestion anywhere along the path, which local
// backlog cannot, and the outstanding-frame factor spreads load instead
// of dog-piling the momentarily cheapest rail between RTT updates.
// Ties resolve by scan order, so the pick stays deterministic.
func (rs *railSet) pickLink(nics []*phys.NIC, weighted, adaptive bool, srtt sim.Time) int {
	switch {
	case weighted:
		return rs.rotate(&rs.rr, func(li int) int64 {
			cost := int64(rs.rails[li].rtt.srtt)
			if cost == 0 {
				cost = int64(srtt)
			}
			if cost == 0 {
				cost = 1
			}
			cost += int64(nics[li].OutPort().Backlog())
			return int64(rs.rails[li].out+1) * cost
		})
	case adaptive:
		return rs.rotate(&rs.rr, func(li int) int64 { return int64(nics[li].OutPort().Backlog()) })
	}
	return rs.rotate(&rs.rr, nil)
}

// arrived records a data frame's arrival on rail link: its sequence
// number for loss detection (scanMissing) and its time for staleness.
func (rs *railSet) arrived(link int, seq uint32, now sim.Time) {
	if link < len(rs.rails) {
		r := &rs.rails[link]
		if int32(seq+1-r.high) > 0 {
			r.high = seq + 1
		}
		r.last = now
	}
}

// updateRailRTT applies the per-rail samples gathered during one
// handleAck walk (rail.newest/have) and clears the scratch. Purely
// observational: nothing here arms a timer or feeds the conn-level RTO,
// so enabling nothing changes nothing.
func (rs *railSet) updateRailRTT(now sim.Time) {
	for li := range rs.rails {
		if r := &rs.rails[li]; r.have {
			r.rtt.sample(now - r.newest)
			r.newest, r.have = 0, false
		}
	}
}

// railDec returns one outstanding-frame charge from rail li. Clamped at
// zero: epoch resets can zero the counters while late acks still walk.
func (rs *railSet) railDec(li int) {
	if li >= 0 && li < len(rs.rails) && rs.rails[li].out > 0 {
		rs.rails[li].out--
	}
}

// sendFrame encodes a payload-less control frame (ACK/NACK) and
// transmits it on a link that is both not declared dead and fresh on
// the receive side: control frames are never acknowledged, so the
// sender-side detector cannot protect them — but a cable cut kills both
// directions, so a rail that stopped delivering to us has most likely
// also stopped carrying our control traffic. Losing ACKs merely delays
// the sender; losing NACKs doubles every repair round-trip. With no
// rail receive-fresh (idle period or total outage) it falls back to the
// plain pick. Any frame that leaves carries our cumulative ACK, so
// delayed-ACK state resets (piggy-backing, §2.4).
func (c *Conn) sendFrame(h *frame.Header, payload []byte) {
	li := -1
	if stale := c.ep.cfg.LinkStaleAge; stale > 0 && c.links > 1 {
		now := c.ep.env.Now()
		// Cost 0 for a rail heard from within stale, negative (ruled out) past it.
		li = c.rotate(&c.rr, func(li int) int64 { return int64(min(stale-(now-c.rails[li].last), 0)) })
	}
	c.sendFrameOn(h, payload, li)
}

// sendFrameOn is sendFrame with an optional forced link (-1 = pick),
// returning the link used.
func (c *Conn) sendFrameOn(h *frame.Header, payload []byte, li int) int {
	if li < 0 {
		li = c.pickLink(c.ep.nics, c.railProbing(), c.ep.cfg.AdaptiveStripe, c.rtt.srtt)
	}
	// Every frame carries the connection's live epoch; the peer fences
	// frames whose incarnation does not match (Config.Reconnect). Zero —
	// the historical pad bytes — when the feature is off.
	h.Incarnation = c.incarnation
	if h.HasAck && c.ccEcnRx > 0 {
		// Echo the congestion marks seen since the last ack-bearing frame
		// back to the data sender (the out-of-band wire mark becomes a
		// CRC-covered header bit). Echoing is unconditional — marks only
		// exist when a switch threshold is armed — and it is the sender's
		// *reaction* that Config.CongestionControl gates.
		h.EcnEcho = true
		c.ep.Stats.EcnEchoesSent++
		c.ep.emit(c.localID, obs.EvEcnEcho, int64(c.ccEcnRx), 0)
		c.ccEcnRx = 0
	}
	nic := c.ep.nics[li]
	dst := frame.NewAddr(c.remoteNode, li)
	// Encode into a pooled wire buffer: the frame owns it from here and
	// exactly one death point — NIC/port drop, corruption replacement,
	// or receiver dispatch — releases it (see phys.Frame.Release).
	// Retransmissions re-encode from tf.payload into a fresh buffer, so
	// the in-flight copy is never aliased by sender-side state.
	pb := c.ep.free.pool.Get()
	buf := frame.MustEncodeInto(pb.Bytes(), dst, nic.Addr(), h, payload)
	nic.Transmit(c.ep.free.pool.NewFrame(pb, buf, dst, nic.Addr()))
	c.lastTx = c.ep.env.Now()
	if h.HasAck {
		c.unackedRx = 0
		c.ackDue = false
		c.ackTimer.Stop()
	}
	return li
}

// noteLinkRepair charges one repair event to link li. A link
// accumulating DeadLinkThreshold repairs without any acknowledged frame
// in between (see handleAck) is declared dead — unless it is the last
// link standing, which must keep carrying traffic regardless. The
// go-back-N baseline retransmits whole windows by design, so its
// repairs say nothing about link health and are not counted.
func (c *Conn) noteLinkRepair(li int) {
	th := c.ep.cfg.DeadLinkThreshold
	if th <= 0 || c.ep.cfg.GoBackN || li < 0 || li >= c.links || c.rails[li].dead {
		return
	}
	r := &c.rails[li]
	r.fails++
	if r.fails >= th && c.deadLinks < c.links-1 {
		r.dead, r.deadAt = true, c.ep.env.Now()
		c.deadLinks++
		c.ep.Stats.LinkDeadEvents++
		c.ep.emit(c.localID, obs.EvLinkDead, int64(li), int64(c.deadLinks))
		c.armProbeTimer()
	}
}

// clearLinkFault resets link li's health after a frame sent on it at
// sentAt was acknowledged end-to-end. A dead link is re-admitted only
// when the acked transmission happened after the death declaration —
// late acknowledgements of frames that crossed the link before it
// failed prove nothing about its present state.
func (c *Conn) clearLinkFault(li int, sentAt sim.Time) {
	if li < 0 || li >= c.links {
		return
	}
	r := &c.rails[li]
	r.fails = 0
	if r.dead && sentAt > r.deadAt {
		r.dead = false
		c.deadLinks--
		c.ep.Stats.LinkRestores++
		c.ep.emit(c.localID, obs.EvLinkRestore, int64(li), int64(c.deadLinks))
	}
}

// armProbeTimer schedules the next dead-link probe. The timer is armed
// from transmissions (and from the moment of death) rather than
// re-arming itself unconditionally, so an idle connection with a dead
// link quiesces instead of keeping the simulation alive forever.
func (c *Conn) armProbeTimer() {
	if c.state != live || (c.probeTimer != nil && c.probeTimer.Pending()) {
		return
	}
	if c.probeFn == nil {
		c.probeFn = c.probeTick
	}
	c.probeTimer = c.ep.env.Rearm(c.probeTimer, linkProbeInterval, c.probeFn)
}

// probeTick is the dead-link probe timer's callback.
func (c *Conn) probeTick() {
	if c.state != live || c.deadLinks == 0 {
		return
	}
	for li := range c.rails {
		if c.rails[li].dead {
			c.sendProbe(li)
		}
	}
}

// sendProbe transmits a fresh zero-size write frame whose FIRST copy is
// forced onto dead link li. Freshness is what makes the probe's
// acknowledgement unambiguous: no other copy of this sequence number
// exists anywhere, so a cumulative ACK covering it before any
// retransmission proves a frame crossed the dead link (handleAck then
// restores it via the txAt > deadAt test). A lost probe is repaired
// like any data frame — NACKed or timed out and retransmitted, by then
// on a live link, which re-attributes the frame before its ACK can
// arrive.
func (c *Conn) sendProbe(li int) {
	op := c.ep.free.ops.Get()
	*op = txOp{Op: Op{Kind: frame.OpWrite}, id: c.nextOpID, sentAll: true, unacked: 1, probe: true, subs: op.subs}
	c.nextOpID++
	tf := c.number(&c.ep.free, op, 0)
	tf.link = li
	c.ep.Stats.DataFramesSent++
	c.transmit(tf, false)
}

// railProbing reports whether this connection measures rails with
// dedicated probe/echo exchanges. While probing, the ack-walk per-rail
// sampling is suppressed: a cumulative ack is gated on the slowest
// rail's interleaved frames, so its samples would drag every rail's
// estimate up to the slowest one and erase the split the weighted rail
// scheduler steers by.
func (c *Conn) railProbing() bool {
	return c.ep.cfg.ccOn() && c.links > 1
}

// armRailProbes starts the per-rail RTT probe tick on a multi-rail
// connection with the congestion controller enabled. Each tick probes
// ONE rail, rotating, at ccProbeInterval/links — every rail is measured
// once per interval, but never two rails in the same instant: probes
// launched together contend for the shared protocol CPU at both ends,
// and that serialized per-frame cost swamps and reorders the very path
// difference the probes exist to measure. A daemon timer: an idle
// probing connection never keeps a finished simulation alive.
func (c *Conn) armRailProbes() {
	if !c.railProbing() || c.railProbe.Pending() {
		return
	}
	if c.railProbeFn == nil {
		c.railProbeFn = c.railProbeTick
	}
	ivl := max(ccProbeInterval/sim.Time(c.links), 50*sim.Microsecond)
	c.railProbe = c.ep.env.RearmDaemon(c.railProbe, ivl, c.railProbeFn)
}

func (c *Conn) railProbeTick() {
	if c.state != live {
		return
	}
	c.sendRailProbe()
	c.armRailProbes()
}

// sendRailProbe emits one probe on the next live rail in rotation. Seq
// carries the rail index and OpID the transmit timestamp; the peer
// echoes both back on the arrival rail, so the returning sample
// measures that rail's own round trip — queueing in the fabric included
// — independent of the ARQ's cumulative acknowledgement.
func (c *Conn) sendRailProbe() {
	li := c.rotate(&c.railProbeRR, nil)
	h := frame.Header{Type: frame.TypeRailProbe, ConnID: c.remoteID,
		Ack: c.rcvNxt, HasAck: true, Seq: uint32(li), OpID: uint64(c.ep.env.Now())}
	c.sendFrameOn(&h, nil, li)
	c.ep.Stats.CcRailProbes++
}
