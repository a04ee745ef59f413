package core

import (
	"fmt"
	"slices"

	"multiedge/internal/frame"
	"multiedge/internal/obs"
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

// nextIncarnation returns the epoch after inc. It skips 0, the wire
// value reserved for "incarnations unused", and 1, which only a Dial
// proposes: an acceptor tells a first dial from a redial by it (see
// handleConnReq), so a wrapped redial must never look like one.
func nextIncarnation(inc uint16) uint16 {
	inc++
	if inc <= 1 {
		inc = 2
	}
	return inc
}

// incarnNewer reports whether a is a more recent epoch than b, under
// serial-number arithmetic so the 16-bit space may wrap.
func incarnNewer(a, b uint16) bool { return int16(a-b) > 0 }

// peerLost routes a local peer-death verdict (RTO budget, silence,
// read-liveness, a Reset from the peer) either into the supervised
// reconnect machinery or — with recovery off, or for a connection that
// never finished its first handshake — into the terminal failConn path.
// A conn already reconnecting, closing or ended has nothing to decide.
func (c *Conn) peerLost(cause error, sendReset bool) {
	reset := int64(0)
	if sendReset {
		reset = 1
	}
	c.ep.emit(c.localID, obs.EvPeerDead, reset, int64(c.expiries))
	switch {
	case c.state == Live && c.ep.cfg.Reconnect:
		c.enterReconnect(sendReset)
	case c.state == Live || c.state == Dialing:
		c.failConn(cause, sendReset)
	}
}

// park condemns the live epoch: the conn moves to reconnecting, every
// protocol timer stops, and no frame is sent or accepted until a
// handshake installs a successor. accepting is 1 when the peer's redial
// is what parks it.
func (c *Conn) park(accepting int64) *recoveryState {
	if c.recov == nil {
		c.recov = &recoveryState{}
	}
	ep, r := c.ep, c.recov
	ep.emit(c.localID, obs.EvReconnect, int64(c.incarnation), accepting)
	c.to(Reconnecting)
	r.since = ep.env.Now()
	c.stopTimers()
	if r.span == nil && ep.obs.SpansEnabled() {
		r.span = ep.obs.StartLayerSpan(ep.node, "core", "reconnect", 0)
	}
	return r
}

// enterReconnect parks a live connection on a local verdict. The dialer
// starts redialing immediately; the acceptor arms a bounded give-up
// wait, sized so it comfortably outlasts the dialer's full detection +
// redial schedule.
func (c *Conn) enterReconnect(sendReset bool) {
	ep, r := c.ep, c.park(0)
	r.attempt = 0
	if sendReset {
		// Tell the peer the epoch is condemned so it parks promptly too
		// instead of burning its own detection budget.
		c.sendResetFrames()
	}
	if c.dialer {
		r.pendingIncarn = nextIncarnation(c.incarnation)
		r.timer = ep.env.RearmArg(r.timer, 0, redial, c)
		return
	}
	r.giveUp = ep.env.RearmArg(sim.Daemon(r.giveUp), c.passiveWait(), giveUp, c) // stopped by rebirth and teardown
}

// giveUp ends the passive side's wait: the dialer never showed up, so
// fail for real. A daemon: a parked conn must not keep a drained
// simulation alive on its own.
func giveUp(arg any) {
	c := arg.(*Conn)
	c.ep.Stats.ReconnectsFailed++
	c.failConn(fmt.Errorf("core: connection to node %d: no reconnect handshake within %v: %w",
		c.remoteNode, c.passiveWait(), ErrPeerDead), false)
}

// passiveWait bounds how long the acceptor side stays parked: the
// dialer may take up to DeadInterval to notice the outage, then runs
// its whole backoff schedule; one extra base delay absorbs handshake
// propagation.
func (c *Conn) passiveWait() sim.Time {
	cfg := &c.ep.cfg
	base, max := cfg.reconnectBackoff()
	wait := cfg.DeadInterval + base
	for i := 0; i < cfg.reconnectBudget(); i++ {
		wait += backoff(base, max, i)
	}
	return wait
}

// redial sends one reconnect ConnReq carrying the proposed incarnation
// and re-arms itself with exponential backoff until the budget runs
// out. The request is identical to a fresh Dial's — the acceptor
// recognizes the {node, connID} pair in its handshake-dedupe table and
// treats the newer incarnation as a reconnect rather than a duplicate.
func redial(arg any) {
	c := arg.(*Conn)
	if c.state != Reconnecting {
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
	ep.sendControl(0, frame.NewAddr(int(c.remoteNode), 0), &frame.Header{Type: frame.TypeConnReq,
		ConnID: c.localID, OpID: uint64(len(c.rails)), Incarnation: r.pendingIncarn})
	base, max := ep.cfg.reconnectBackoff()
	r.timer = ep.env.RearmArg(r.timer, backoff(base, max, r.attempt-1), redial, c)
}

// acceptReconnect runs on the acceptor when a ConnReq proposing a newer
// incarnation arrives. The acceptor may not even have noticed the
// outage yet (the dialer's detector can fire first); in that case it
// parks on the spot so timers and ctrl state drop cleanly, then is
// reborn straight into the proposed epoch. A closing conn stays closing.
func (c *Conn) acceptReconnect(inc uint16) {
	if c.state == Live {
		c.park(1)
	}
	if c.state == Reconnecting {
		c.rebirth(inc)
	}
}

// rebirth installs epoch inc: journal every incomplete send-side
// operation (Conn.outstanding), reset all per-epoch protocol state to a
// fresh connection's, and re-queue the journal for transmission with
// the original operation ids, in id order.
func (c *Conn) rebirth(inc uint16) {
	ep, r := c.ep, c.recov
	now := ep.env.Now()
	r.timer.Stop()
	r.giveUp.Stop()

	var journal []*txOp
	c.outstanding(func(t *txOp) {
		t.completed = false // a read whose reply is due sends its request anew
		journal = append(journal, t)
	})
	// The frame records die with the old epoch: the journal re-fragments
	// every op from offset 0.
	c.dropWindow(&ep.free)
	slices.SortFunc(journal, byID)

	c.arqTx.restart(journal)
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
		c.ccState = ccState{cwnd: c.ep.cfg.ccInit()}
	}

	// Receive state: fresh epoch. Partially received operations are
	// deleted — the peer replays them from offset 0 with identical data —
	// while completed ones stay so replayed payload for them is dropped,
	// never re-applied (exactly-once). The frontier survives untouched.
	// The ring's storage and the ACK timer's handle stay for reuse.
	c.rcv.clear()
	c.arqRx = arqRx{rcv: c.rcv, ackTimer: c.ackTimer}
	c.orderer.restart(&ep.free)

	// Write handles reset their acknowledged-byte mark, or a partially
	// acked first life would double-count; read handles never advanced it.
	for _, t := range journal {
		if t.h != nil && t.Kind == frame.OpWrite {
			t.h.acked = 0
		}
		if !t.probe {
			ep.Stats.ReplayedOps++
			ep.Stats.ReplayedBytes += uint64(len(t.data))
		}
	}

	c.incarnation = inc
	ep.emit(c.localID, obs.EvRebirth, int64(inc), int64(len(journal)))
	r.pendingIncarn = 0
	c.to(Live)
	r.total++
	ep.Stats.Reconnects++
	if ep.reconnHist != nil && r.since > 0 {
		ep.reconnHist.Observe(float64(now-r.since) / 1000)
	}
	if ep.redialHist != nil && c.dialer {
		ep.redialHist.Observe(float64(r.attempt))
	}
	r.attempt = 0
	r.span.EndAt(now) // nil-safe
	r.span = nil
	r.since = 0
	c.startKeepalive() // resets lastHeard/lastTx/lastProgress, re-arms the hb tick
	c.kick()
}
