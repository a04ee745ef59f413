package core

import (
	"fmt"
	"sort"

	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// Supervised recovery (Config.Reconnect): instead of a terminal Failed
// state, peer death parks the connection in Reconnecting. The dialer
// side redials with capped exponential backoff, re-using the ordinary
// connection handshake but carrying a fresh incarnation; the acceptor
// side waits (bounded) for that handshake. When the handshake lands,
// both sides are reborn into the new epoch: all ARQ, ordering and link
// state resets to a fresh connection's, and every incomplete send-side
// operation is replayed from local memory with its ORIGINAL operation
// id.
//
// Replaying everything incomplete — user operations, internal probes,
// read-reply serves — keeps the receiver's operation-id space free of
// holes, so the completion frontier and the fence machinery need no
// special cases. Exactly-once delivery follows from two facts: the
// receiver deletes its partially received operations at rebirth (the
// replay rewrites them from offset 0 with byte-identical data), and it
// keeps its completed ones, whose records make the apply path drop
// replayed payload for work that already landed (DupFramesDropped).
// Frames from the dead epoch — delayed in a deep queue, duplicated, or
// replayed across a rail restore — carry the old incarnation and are
// fenced at dispatch (StaleEpochDrops).

// nextIncarnation returns the epoch after inc, skipping 0 — the wire
// value reserved for "incarnations unused".
func nextIncarnation(inc uint16) uint16 {
	inc++
	if inc == 0 {
		inc = 1
	}
	return inc
}

// incarnNewer reports whether a is a more recent epoch than b, under
// serial-number arithmetic so the 16-bit space may wrap.
func incarnNewer(a, b uint16) bool { return int16(a-b) > 0 }

// peerLost routes a local peer-death verdict (RTO budget, silence,
// read-liveness) either into the supervised reconnect machinery or —
// with recovery off, or for a connection that never finished its first
// handshake — into the terminal failConn path, exactly as before.
func (c *Conn) peerLost(cause error, sendReset bool) {
	reset := int64(0)
	if sendReset {
		reset = 1
	}
	c.ep.emit(c.localID, obs.EvPeerDead, reset, int64(c.expiries))
	if c.ep.cfg.Reconnect && c.established.Fired() && !c.failed {
		c.enterReconnect(cause, sendReset)
		return
	}
	c.failConn(cause, sendReset)
}

// enterReconnect parks the connection: the current epoch is condemned,
// every protocol timer stops, and no frame is sent or accepted until a
// handshake installs a successor. The dialer starts redialing
// immediately; the acceptor arms a bounded give-up wait, sized so it
// comfortably outlasts the dialer's full detection + redial schedule.
func (c *Conn) enterReconnect(cause error, sendReset bool) {
	if c.closed || c.reconnecting {
		return
	}
	_ = cause // the outage is transient by intent; errors surface only on give-up
	ep, r := c.ep, c.recoveryGroup()
	ep.emit(c.localID, obs.EvReconnect, int64(c.incarnation), 0)
	c.reconnecting = true
	r.since = ep.env.Now()
	r.attempt = 0
	c.stopTimers()
	if r.span == nil && ep.obs.SpansEnabled() {
		r.span = ep.obs.StartLayerSpan(ep.node, "core", "reconnect", 0)
	}
	if sendReset {
		// Tell the peer the epoch is condemned so it parks promptly too
		// instead of burning its own detection budget.
		c.sendResetFrames()
	}
	if c.dialer {
		r.pendingIncarn = nextIncarnation(c.incarnation)
		c.scheduleRedial(0)
		return
	}
	// Passive side: if the dialer never shows up, fail for real. The
	// timer is a daemon — a parked conn must not keep a drained
	// simulation alive on its own.
	wait := c.passiveWait()
	r.giveUp = ep.env.AfterDaemon(wait, func() {
		if c.closed || !c.reconnecting {
			return
		}
		ep.Stats.ReconnectsFailed++
		c.failConn(fmt.Errorf("core: connection to node %d: no reconnect handshake within %v: %w",
			c.remoteNode, wait, ErrPeerDead), false)
	})
}

// passiveWait bounds how long the acceptor side stays parked: the
// dialer may take up to DeadInterval to notice the outage, then runs
// its whole backoff schedule; one extra base delay absorbs handshake
// propagation.
func (c *Conn) passiveWait() sim.Time {
	cfg := &c.ep.cfg
	base, max := cfg.reconnectBackoff()
	wait := cfg.DeadInterval + base
	d := base
	for i := 0; i < cfg.reconnectBudget(); i++ {
		wait += d
		d *= 2
		if d > max {
			d = max
		}
	}
	return wait
}

func (c *Conn) scheduleRedial(d sim.Time) {
	c.recov.timer = c.ep.env.After(d, c.redial)
}

// redial sends one reconnect ConnReq carrying the proposed incarnation
// and re-arms itself with exponential backoff until the budget runs
// out. The request is identical to a fresh Dial's — the acceptor
// recognizes the {node, connID} pair in its handshake-dedupe table and
// treats the newer incarnation as a reconnect rather than a duplicate.
func (c *Conn) redial() {
	if c.closed || !c.reconnecting {
		return
	}
	ep, r := c.ep, c.recov
	if r.attempt >= ep.cfg.reconnectBudget() {
		ep.Stats.ReconnectsFailed++
		c.failConn(fmt.Errorf("core: connection to node %d: reconnect failed after %d attempts: %w",
			c.remoteNode, r.attempt, ErrPeerDead), false)
		return
	}
	r.attempt++
	ep.emit(c.localID, obs.EvRedial, int64(r.attempt), int64(r.pendingIncarn))
	h := frame.Header{Type: frame.TypeConnReq, ConnID: c.localID,
		OpID: uint64(c.links), Incarnation: r.pendingIncarn}
	dst := frame.NewAddr(c.remoteNode, 0)
	buf := frame.MustEncode(dst, ep.nics[0].Addr(), &h, nil)
	ep.nics[0].Transmit(&phys.Frame{Buf: buf, Dst: dst, Src: ep.nics[0].Addr()})
	base, max := ep.cfg.reconnectBackoff()
	d := base
	for i := 1; i < r.attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	c.scheduleRedial(d)
}

// acceptReconnect runs on the acceptor when a ConnReq proposing a newer
// incarnation arrives. The acceptor may not even have noticed the
// outage yet (the dialer's detector can fire first); in that case it
// parks on the spot so timers and ctrl state drop cleanly, then is
// reborn straight into the proposed epoch.
func (c *Conn) acceptReconnect(inc uint16) {
	if c.closed {
		return
	}
	if !c.reconnecting {
		r := c.recoveryGroup()
		c.ep.emit(c.localID, obs.EvReconnect, int64(c.incarnation), 1)
		c.reconnecting = true
		r.since = c.ep.env.Now()
		c.stopTimers()
		if r.span == nil && c.ep.obs.SpansEnabled() {
			r.span = c.ep.obs.StartLayerSpan(c.ep.node, "core", "reconnect", 0)
		}
	}
	c.rebirth(inc)
}

// completeReconnect runs on the dialer when the ConnAck for its
// proposed incarnation arrives.
func (c *Conn) completeReconnect() {
	c.rebirth(c.recov.pendingIncarn)
}

// rebirth installs epoch inc: journal every incomplete send-side
// operation, reset all per-epoch protocol state to a fresh
// connection's, and re-queue the journal for transmission with the
// original operation ids. Iteration orders are deterministic (sequence
// walk, FIFO slice, sorted ids) so recovery runs replay bit-identically.
func (c *Conn) rebirth(inc uint16) {
	ep, r := c.ep, c.recoveryGroup()
	now := ep.env.Now()
	r.timer.Stop()
	r.giveUp.Stop()

	// Journal: in-window frames' ops first (oldest outstanding work),
	// then queued ops, then reads whose requests were fully acked — their
	// txOps are gone, so the request is re-synthesized from the handle's
	// descriptor. Ids are unique, so dedupe by id and sort once.
	seen := make(map[uint64]bool)
	var journal []*txOp
	add := func(t *txOp) {
		if t == nil || t.completed || seen[t.id] {
			return
		}
		seen[t.id] = true
		journal = append(journal, t)
	}
	for s := c.sndUna; s != c.sndNxt; s++ {
		if tf, ok := c.retrans.get(s); ok {
			add(tf.op)
			// The frame record dies with the old epoch (the journal
			// re-fragments its op from offset 0); recycle it.
			c.freeTxFrame(tf)
		}
	}
	for _, t := range c.txOps {
		add(t)
	}
	if len(c.pendingReads) > 0 {
		ids := make([]uint64, 0, len(c.pendingReads))
		for id := range c.pendingReads {
			if !seen[id] {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			h := c.pendingReads[id]
			add(&txOp{id: id, opType: frame.OpRead, flags: h.op.Flags,
				remote: h.op.Remote, local: h.op.Local, total: uint32(h.size), h: h})
		}
	}
	sort.Slice(journal, func(i, j int) bool { return journal[i].id < journal[j].id })

	// Transmit state: fresh epoch.
	c.sndUna, c.sndNxt = 0, 0
	c.retrans.clear()
	c.retransQ = nil
	c.expiries = 0
	c.rr = 0
	// Link health, the outstanding-frame charges (they refer to frames
	// that will never be acked) and the arrival marks all die with the
	// epoch; what was learnt about each rail's round trip carries over.
	for i := range c.rails {
		c.rails[i] = rail{rtt: c.rails[i].rtt}
	}
	c.deadLinks = 0
	if c.ep.cfg.ccOn() {
		// An outage says nothing about post-recovery capacity — restart
		// from the initial window like a fresh conn.
		c.cwnd = c.ep.cfg.ccInit()
		c.ccAckCredit, c.ccRetxSent, c.ccEcnRx = 0, 0, 0
		c.ccRecover = 0
	}

	// Receive state: fresh epoch. Partially received operations are
	// deleted — the peer replays them from offset 0 with identical data —
	// while completed ones stay so replayed payload for them is dropped,
	// never re-applied (exactly-once). The frontier survives untouched.
	c.rcvNxt = 0
	c.maxSeenPlus1 = 0
	c.rcv.clear()
	c.gaps, c.untracked = 0, false
	c.lastNack = 0
	c.unackedRx = 0
	c.ackDue, c.ackOwed = false, false
	c.nackDue = nil
	c.applyNxt = 0
	c.held = nil
	for id, op := range c.rxOps {
		if !op.complete {
			delete(c.rxOps, id)
		}
	}
	c.fenced = nil

	// Re-queue the journal: every op restarts from offset 0. Write
	// handles reset their acknowledged-byte mark, or a partially acked
	// first life would double-count; read handles never advanced it.
	c.txFenced = nil
	for _, t := range journal {
		t.sent = 0
		t.sentAll = false
		t.unacked = 0
		if t.h != nil && t.opType == frame.OpWrite {
			t.h.acked = 0
		}
		if t.flags&frame.FenceAfter != 0 {
			c.txFenced = append(c.txFenced, t.id)
		}
		if !t.probe {
			ep.Stats.ReplayedOps++
			ep.Stats.ReplayedBytes += uint64(len(t.data))
		}
	}
	c.txOps = journal

	c.incarnation = inc
	ep.emit(c.localID, obs.EvRebirth, int64(inc), int64(len(journal)))
	r.pendingIncarn = 0
	c.reconnecting = false
	r.total++
	ep.Stats.Reconnects++
	if ep.reconnHist != nil && r.since > 0 {
		ep.reconnHist.Observe(float64(now-r.since) / 1000)
	}
	if ep.redialHist != nil && c.dialer {
		ep.redialHist.Observe(float64(r.attempt))
	}
	r.attempt = 0
	if r.span != nil {
		r.span.EndAt(now)
		r.span = nil
	}
	r.since = 0
	c.startKeepalive() // resets lastHeard/lastTx/lastProgress, re-arms the hb tick
	c.kick()
}
