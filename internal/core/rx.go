package core

import (
	"slices"

	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// arqRx is the receiving half of a connection's ARQ (IPPS'07 §2.4):
// which sequence numbers arrived, which are missing and NACKed, and the
// delayed-ACK state.
//
// Every sequence number in [rcvNxt, maxSeenPlus1) is either accepted or
// a gap, and rcv (see rcvSlot) says which in one window-sized ring: its
// live span is bounded by the sender's window, so it cannot grow with
// connection lifetime. A frame that arrives at rcvNxt while rcv records
// nothing never touches it (see arrive), so a conn that never sees
// reordering never builds it.
type arqRx struct {
	rcv          seqRing[rcvSlot]
	nack         *nackState // built at the first gap (see queueNack)
	ackTimer     *sim.Timer
	gaps         int32  // gap records in rcv (bounded by maxTrackedGaps)
	unackedRx    int32  // frames since the last ack-bearing frame (bounded by Config.AckEvery)
	rcvNxt       uint32 // cumulative acknowledgement point
	maxSeenPlus1 uint32 // 1 + highest sequence number accepted
	ackOweTo     uint32 // valid while ackOwed
	ackOwed      bool   // a prompt ACK is owed once rcvNxt reaches ackOweTo (see promptAck)
	ackDue       bool
	untracked    bool // some gap may have no record: the cap or dropGaps dropped one this epoch
}

// nackState is the NACK machinery: the missing list of the NACK to send,
// the cooldown, and the gap-age timer. A conn whose frames all arrive in
// order never builds it; stopTimers drops it with the gap records.
type nackState struct {
	due   []uint32   // emptied by sendCtrl, storage kept
	last  sim.Time   // when the last NACK was queued
	timer *sim.Timer // gap-age check (nackTick)
}

// rcvSlot is the receive window's record of one sequence number: the
// frame was accepted and awaits the cumulative point, or it is a gap.
type rcvSlot struct {
	accepted bool
	since    sim.Time // gap: when it was first seen missing
	nacked   sim.Time // gap: when the last NACK named it, repair in flight (0 = never)
}

const (
	// maxNack bounds the missing list one NACK frame may carry. Gaps
	// beyond it are repaired by later rounds: explicit repairs advance
	// the cumulative ACK, which slides the window over the remainder.
	maxNack = 64
	// maxTrackedGaps bounds the receive window's gap records. A
	// long outage on one rail can open a gap as wide as the sender's
	// window every round trip; tracking more than this many sequence
	// numbers buys nothing (a NACK reports at most maxNack anyway) and
	// would let protocol state grow without bound at fan-in scale.
	// Untracked gaps are counted (Stats.NackGapsDropped) and repaired
	// by the cumulative-ACK/RTO fallback as the window slides.
	maxTrackedGaps = 256
)

// arrival is arrive's verdict on one data frame.
type arrival uint8

const (
	inOrder    arrival = iota // accepted at or past the highest sequence number seen
	duplicate                 // below the cumulative point, or accepted before
	outOfOrder                // accepted below the highest sequence number seen
	discarded                 // go-back-N: not the next in sequence
)

// arrive accepts data frame seq at now, or not. Go-back-N takes only
// the frame the cumulative point waits for. Selective repeat records
// it, opens a gap for each sequence number it skips (drop is told of
// those the maxTrackedGaps cap leaves untracked), and advances the
// cumulative point over what is now contiguous.
func (x *arqRx) arrive(seq uint32, now sim.Time, goBackN bool, drop func(s uint32)) arrival {
	if goBackN {
		if seq != x.rcvNxt {
			return discarded
		}
		x.rcvNxt++
		return inOrder
	}
	// The frame the cumulative point waits for, while the window records
	// nothing, would be recorded and pruned at once: it just advances
	// rcvNxt (maxSeenPlus1 == rcvNxt whenever rcv is empty, as its
	// highest accepted record outlives every gap below it), and the ring
	// is built only by a frame that arrives out of order.
	if seq == x.rcvNxt && x.rcv.size() == 0 {
		x.rcvNxt++
		x.maxSeenPlus1 = x.rcvNxt
		return inOrder
	}
	slot, tracked := x.rcv.get(seq)
	if int32(seq-x.rcvNxt) < 0 || slot.accepted {
		return duplicate
	}
	if tracked {
		x.gaps-- // a gap closes
	}
	x.rcv.put(seq, rcvSlot{accepted: true})
	v := outOfOrder
	if int32(x.maxSeenPlus1-seq) <= 0 {
		// In-order extension: any sequence numbers it skips over become
		// missing as of now (bounded by the tracked-gap cap).
		for s := x.maxSeenPlus1; s != seq; s++ {
			x.trackGap(s, now, drop)
		}
		x.maxSeenPlus1 = seq + 1
		v = inOrder
	}
	// Advance the cumulative point, pruning the accepted records it
	// passes: everything below rcvNxt is rejected as a duplicate above,
	// so the ring's live span stays within the window by construction
	// (TestRcvWindowAgainstReference drives a million lossy frames
	// through this).
	for {
		if r, _ := x.rcv.get(x.rcvNxt); !r.accepted {
			break
		}
		x.rcv.del(x.rcvNxt)
		x.rcvNxt++
	}
	return v
}

// trackGap records sequence number s as missing since now, subject to
// the maxTrackedGaps cap; drop is told of s when the cap refuses it.
func (x *arqRx) trackGap(s uint32, now sim.Time, drop func(s uint32)) {
	if x.gaps >= maxTrackedGaps {
		x.untracked = true
		drop(s)
		return
	}
	x.rcv.put(s, rcvSlot{since: now})
	x.gaps++
}

// dropGaps forgets every gap record (the accepted records stay: they
// are the duplicate filter), so no late frame can re-arm the NACK
// machinery. It runs only from stopTimers, on exits from the live
// state, after which the old sequence space is dead (a rebirth starts
// fresh), so no repair timestamp it drops is ever consulted again.
// TestStopTimersDropsGapState pins this contract.
func (x *arqRx) dropGaps() {
	for s := x.rcvNxt; x.gaps > 0 && s != x.maxSeenPlus1; s++ {
		if r, ok := x.rcv.get(s); ok && !r.accepted {
			x.rcv.del(s)
			x.gaps--
			x.untracked = true
		}
	}
}

// seqCmp orders two sequence numbers of one window in serial arithmetic.
func seqCmp(a, b uint32) int { return int(int32(a - b)) }

// scanMissing walks the receive window for sequence numbers to NACK
// now: gaps at least minAge old whose last NACK, if any, is a repair
// round trip behind. It appends them to missing, ascending, for as long
// as the list is short of maxNack, and stamps exactly those as NACKed at
// now: a gap the pending NACK has no room for stays eligible, instead of
// counting as under repair for 4 nackAge with no frame naming it.
//
// Per-link FIFO: s can only be lost once every path has delivered a
// frame beyond it; before, it may be queued behind others on its path.
// A link silent for LinkStaleAge cannot be hiding s in a draining queue,
// so it loses its veto: a hard-failed link must not suppress loss
// detection forever. Neither veto depends on s, so the walk ends at the
// slowest live rail's mark, sparing most of the window per arrival.
func (x *arqRx) scanMissing(now, minAge sim.Time, cfg *Config, rails []rail, missing []uint32, drop func(s uint32)) []uint32 {
	span := int32(x.maxSeenPlus1 - x.rcvNxt)
	limit := span // as an offset from rcvNxt, like every bound below
	stale := cfg.LinkStaleAge
	for li := range rails {
		r := &rails[li]
		if stale > 0 && now-r.last > stale {
			continue
		}
		if d := int32(r.high - x.rcvNxt); d < limit {
			limit = d
		}
	}
	end := limit
	if x.untracked {
		// Beyond the limit the only thing left to do is to pick up gaps
		// that found no room when they opened.
		end = span
	}
	reNack := 4 * cfg.nackAge()
	for k := int32(0); k < end && len(missing) < maxNack; k++ {
		s := x.rcvNxt + uint32(k)
		gap, tracked := x.rcv.get(s)
		if gap.accepted {
			continue
		}
		if !tracked {
			x.trackGap(s, now, drop)
			continue
		}
		// Past the limit a live rail may still deliver s; a young gap is
		// reordering; and a sequence number whose repair should still be
		// in flight is not re-requested (one NACK per round trip, roughly).
		if k >= limit || now-gap.since < minAge || (gap.nacked > 0 && now-gap.nacked < reNack) {
			continue
		}
		missing = append(missing, s)
		gap.nacked = now
		x.rcv.put(s, gap)
	}
	return missing
}

// handleData runs the ARQ acceptance logic for a data or read-request
// frame, updates acknowledgement state, and hands accepted frames to the
// ordering engine. link is the arrival NIC index.
func (c *Conn) handleData(h frame.Header, payload []byte, link int) {
	ep := c.ep
	if h.HasAck {
		c.handleAck(h.Ack)
	}
	seq := h.Seq
	c.arrived(link, seq, ep.env.Now())
	switch c.arrive(seq, ep.env.Now(), ep.cfg.GoBackN, c.gapDropped) {
	case discarded:
		ep.Stats.GbnDropped++
		if int32(seq-c.rcvNxt) < 0 && len(payload) > 0 {
			// Below the cumulative ack: its payload was already applied.
			ep.Stats.DupFramesDropped++
		}
		c.forceAck()
		return
	case duplicate:
		ep.Stats.Duplicates++
		if len(payload) > 0 {
			// The payload was applied when the first copy arrived; this
			// copy is dropped here, before the ordering/apply machinery.
			ep.Stats.DupFramesDropped++
		}
		ep.emit(c.localID, obs.EvRxDup, int64(seq), int64(len(payload)))
		// The sender is resending: our ACKs — and possibly our NACKs —
		// were lost. Re-advertise both promptly so repair converges.
		if c.gaps > 0 {
			c.queueNack(true)
		}
		c.forceAck()
		return
	case outOfOrder:
		ep.Stats.OOOArrivals++
		ep.emit(c.localID, obs.EvRxOOO, int64(seq), int64(len(payload)))
	}
	ep.Stats.Arrivals++
	// NACKs report lost frames (§2.4). Round-robin over rails reorders by
	// a few microseconds as a matter of course, so only a gap of loss-scale
	// age is NACKed. Go-back-N and in-order arrivals find no gaps.
	if c.gaps > 0 {
		c.queueNack(false)
		c.armNackTimer()
	} else if c.nack != nil {
		c.nack.timer.Stop()
	}
	c.acceptData(h, payload)
	c.ackAccepted(&h)
}

// gapDropped counts a gap the maxTrackedGaps cap left untracked.
func (c *Conn) gapDropped(s uint32) {
	c.ep.Stats.NackGapsDropped++
	c.ep.emit(c.localID, obs.EvNackDrop, int64(s), int64(c.gaps))
}

// nackAge is the age a gap must reach before an arrival-triggered NACK;
// the timer path uses the full NackDelay.
func (c *Config) nackAge() sim.Time { return c.NackDelay / 4 }

// nackTick is the NACK-age timer's callback.
func nackTick(arg any) {
	c := arg.(*Conn)
	if c.state != Live || c.gaps == 0 {
		return
	}
	c.queueNack(true)
	c.armNackTimer()
}

// armNackTimer keeps a gap-age check pending while anything is missing,
// so NACKs are re-sent if they (or the retransmissions) are lost. It
// runs right after queueNack, which built c.nack if the conn is live.
func (c *Conn) armNackTimer() {
	if c.state != Live || c.nack.timer.Pending() {
		return
	}
	c.nack.timer = c.ep.env.RearmArg(c.nack.timer, c.ep.cfg.NackDelay, nackTick, c)
}

// queueNack schedules an explicit NACK for sequence numbers that have
// been missing long enough to be presumed lost. A short cooldown
// prevents repeated NACKs for the same loss within one repair
// round-trip; force bypasses the age filter half-way (timer path).
func (c *Conn) queueNack(force bool) {
	if c.state != Live {
		return
	}
	cfg := &c.ep.cfg
	now := c.ep.env.Now()
	minAge := cfg.nackAge()
	if force {
		minAge = cfg.nackAge() / 2
	}
	if c.nack == nil {
		c.nack = &nackState{} // the first gap
	}
	n := c.nack
	if now-n.last < cfg.nackAge() {
		return
	}
	pending := len(n.due)
	n.due = c.scanMissing(now, minAge, cfg, c.rails, n.due, c.gapDropped)
	if len(n.due) == pending {
		return
	}
	n.last = now
	if pending > 0 {
		// A NACK is still waiting to go out. Its list stays ascending and
		// free of repeats, so that a NACK prompted by a duplicate neither
		// erases nor doubles the still-unrepaired numbers of an earlier one.
		slices.SortFunc(n.due, seqCmp)
		n.due = slices.Compact(n.due)
	}
	c.kick()
}

// ctrlPending reports whether an explicit ACK or NACK is due.
func (c *Conn) ctrlPending() bool {
	return c.state == Live && (c.ackDue || c.nack != nil && len(c.nack.due) > 0)
}

// sendCtrl emits one pending explicit ACK or NACK frame.
func (c *Conn) sendCtrl() {
	h := frame.Header{Type: frame.TypeAck, ConnID: c.remoteID, Ack: c.rcvNxt, HasAck: true}
	var pl []byte
	switch {
	case c.nack != nil && len(c.nack.due) > 0:
		// Encode into the endpoint's scratch buffer: a fresh payload slice
		// per NACK was an allocation on every repair round. An empty
		// missing list never reaches here, so no NACK is header-only.
		h.Type = frame.TypeNack
		c.ep.nackScratch = frame.AppendNackPayload(c.ep.nackScratch[:0], c.nack.due)
		pl = c.ep.nackScratch
		c.nack.due = c.nack.due[:0] // the next scan appends into it
		c.ep.Stats.CtrlNacksSent++
		c.ep.emit(c.localID, obs.EvTxNack, int64(c.rcvNxt), int64(len(pl)))
	case c.ackDue:
		c.ep.Stats.CtrlAcksSent++
		c.ep.emit(c.localID, obs.EvTxAck, int64(c.rcvNxt), 0)
	default:
		return
	}
	c.sendFrame(&h, pl)
}

// ackTick is the delayed-ACK timer's callback.
func ackTick(arg any) {
	c := arg.(*Conn)
	if c.unackedRx > 0 {
		c.forceAck()
	}
}

// ackPolicy implements delayed acknowledgements (§2.4): explicit ACKs
// only after AckEvery frames or AckDelay without reverse traffic.
func (c *Conn) ackPolicy() {
	if c.state != Live {
		return
	}
	c.unackedRx++
	if int(c.unackedRx) >= c.ep.cfg.AckEvery {
		c.forceAck()
		return
	}
	if !c.ackTimer.Pending() {
		c.ackTimer = c.ep.env.RearmArg(c.ackTimer, c.ep.cfg.AckDelay, ackTick, c)
	}
}

// forceAck schedules an immediate explicit acknowledgement (duplicate
// seen or go-back-N discard: the sender needs our state now).
func (c *Conn) forceAck() {
	if c.state != Live {
		return
	}
	c.ackDue = true
	c.kick()
}

// promptAck serves a sender that is waiting for the acknowledgement of
// everything below upTo (an AckReq frame, or a Solicit op performed):
// acknowledge now and, if the cumulative point has not reached upTo —
// the frame overtook a predecessor on another rail, or follows a gap
// under repair — owe one more prompt ACK for the arrival that takes it
// there. The immediate ACK stays even when it covers nothing new:
// pipelined senders clock on the partial acknowledgement.
func (c *Conn) promptAck(upTo uint32) {
	if c.ackOwed && int32(c.ackOweTo-upTo) > 0 {
		upTo = c.ackOweTo // an earlier, further debt stands
	}
	c.ackOwed, c.ackOweTo = int32(upTo-c.rcvNxt) > 0, upTo
	c.forceAck()
}

// ackAccepted decides how an accepted data frame is acknowledged: at
// once if the sender asked (AckReq) or if this arrival brought the
// cumulative point to where a prompt ACK is owed, else by the
// delayed-ACK policy.
func (c *Conn) ackAccepted(h *frame.Header) {
	switch {
	case h.AckReq:
		c.ep.Stats.AckReqRecv++
		c.promptAck(h.Seq + 1)
	case c.ackOwed && int32(c.rcvNxt-c.ackOweTo) >= 0:
		c.ackOwed = false
		c.forceAck()
	default:
		c.ackPolicy()
	}
}
