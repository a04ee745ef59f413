package core

import (
	"errors"
	"fmt"
	"slices"

	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// Conn is one end of a MultiEdge point-to-point connection. All
// communication is fully asynchronous remote memory access (IPPS'07
// §2.2): Do and Post initiate a remote read or write (see op.go) and
// return a Handle or a Completion; completion and remote notifications
// are delivered through the simulation's signal and mailbox primitives.
//
// Sequence numbers are 32-bit and compared in serial-number arithmetic
// throughout, so a connection may run through the wrap
// (TestSequenceWrap).
//
// The protocol's mechanisms are embedded components, one per file, each
// with its own state (DESIGN.md "Connection state"): the ARQ sender
// (arqTx, tx.go), the ARQ receiver (arqRx, rx.go), fence and ordering
// delivery (orderer, order.go), the rails (railSet, rails.go) and the
// congestion window (ccState, cc.go). What remains here is the
// connection's life: its identity, state, liveness and teardown.
//
// A Conn holds only what it has needed: the ARQ rings and the operation
// maps are made at their first insert, the receive window only at the
// first frame that does not arrive in order, and the cold groups —
// submission/completion queues, recovery, notifications, the NACK
// machinery, a dial or close handshake — sit behind one pointer each,
// nil until first use. Timers take package-level callbacks, so arming
// one makes no closure. Fields are sized to their range and grouped by
// alignment. Scratch and freelists live on the Endpoint, whose protocol
// thread serializes its conns.
type Conn struct {
	ep         *Endpoint
	remoteNode int32 // a node number: frame.Addr holds it in one byte
	localID    uint32
	remoteID   uint32
	// Traffic class (Config.QoS): which tenant's scheduler queues and
	// quotas this conn belongs to, below the class count. See SetClass.
	class int32

	hs     *handshake // the dial or close handshake running, nil when none is
	endErr error      // why the conn is closing or ended: wraps ErrPeerDead or ErrClosed

	notifyQ *sim.Mailbox[Notification] // see notifyGroup
	queues  *queueState                // submission/completion queues (see op.go); see queueGroup
	recov   *recoveryState             // built at the first outage (park; see reconnect.go)

	// Liveness (Config.DeadInterval / HeartbeatInterval).
	lastHeard sim.Time // last frame received on this conn
	lastTx    sim.Time // last frame transmitted on this conn
	hbTimer   *sim.Timer
	readGuard *sim.Timer // daemon liveness check while read replies are pending

	arqTx
	arqRx
	orderer
	railSet
	ccState

	// Recovery (Config.Reconnect): the live epoch, stamped into every
	// frame, and the role every Dial sets stay inline.
	incarnation uint16 // live epoch (0 = feature off)
	dialer      bool   // this side ran Dial and owns redialing
	state       ConnState

	// Scheduler membership (Config.SchedQueue): whether the conn is
	// currently queued for control/data service at the endpoint.
	inCtrlQ bool
	inSendQ bool
}

// ConnState is where a conn is in its life (Conn.State); DESIGN.md §7
// "How a connection ends" has the state × event table. From Closing on,
// a conn takes no new work.
type ConnState uint8

const (
	Dialing      ConnState = iota // Dial's handshake pending
	Live                          // the only state that exchanges data
	Reconnecting                  // epoch condemned, a successor being negotiated (Config.Reconnect); new ops queue for the replay
	Closing                       // a local Close's handshake runs; endErr is fixed
	Ended                         // torn down and untabled; endErr says why
)

// connMoves[s] is the set of states a conn may move to from s.
var connMoves = [...]uint8{
	Dialing:      1<<Live | 1<<Ended,
	Live:         1<<Reconnecting | 1<<Closing | 1<<Ended,
	Reconnecting: 1<<Live | 1<<Ended,
	Closing:      1 << Ended,
}

// String is the state's name in Health.
func (s ConnState) String() string {
	return [...]string{"dialing", "established", "reconnecting", "closing", "closed"}[s]
}

// to moves the conn to state s; nothing else writes c.state. Leaving
// dialing or closing ends the handshake that runs there and releases
// its Dial or Close waiter, so no way out of either can strand its
// caller.
func (c *Conn) to(s ConnState) {
	if connMoves[c.state]&(1<<s) == 0 {
		panic(fmt.Sprintf("core: conn %d to node %d: no move from %v to %v", c.localID, c.remoteNode, c.state, s))
	}
	if hs := c.hs; hs != nil {
		c.hs = nil
		hs.timer.Stop() // nil-safe
		hs.sig.Fire(c.ep.env)
	}
	c.state = s
}

// handshake is the dial or the close handshake of a conn (see
// Conn.handshake). connMoves never lets a conn be dialing and closing
// at once, so one record serves both: built when the handshake starts,
// dropped when the conn leaves dialing or closing. An accepted conn,
// and a dialed one once live, holds none.
type handshake struct {
	sig      sim.Signal // fired when the handshake completes or gives up: what Dial or Close waits on
	timer    *sim.Timer // ConnReq or ConnClose retransmission
	attempts int
}

// queueState is a conn's submission and completion queues (see op.go):
// descriptors posted but not yet issued by a doorbell, and completions
// awaiting a poll.
type queueState struct {
	sq    []Op
	cq    sim.Mailbox[Completion]
	stage []Completion // records staged behind an in-flight WaitCQ wake
	flush bool         // a UserWake flush of stage (flushStage) is scheduled
}

// recoveryState is the supervised reconnect state machine's per-conn
// state (Config.Reconnect, see reconnect.go).
type recoveryState struct {
	pendingIncarn uint16     // epoch the dialer's redial is negotiating
	attempt       int        // redial attempts this outage (dialer side)
	total         int        // reconnects survived over the conn's lifetime
	since         sim.Time   // when the outage was detected (0 = none)
	timer         *sim.Timer // dialer-side redial backoff
	giveUp        *sim.Timer // passive-side bounded wait (daemon)
	span          *obs.Span  // outage→recovered causal span
}

// queueGroup and notifyGroup build their group at first use.
func (c *Conn) queueGroup() *queueState {
	if c.queues == nil {
		c.queues = &queueState{}
	}
	return c.queues
}

func (c *Conn) notifyGroup() *sim.Mailbox[Notification] {
	if c.notifyQ == nil {
		c.notifyQ = &sim.Mailbox[Notification]{}
	}
	return c.notifyQ
}

// Notification is delivered to the receiving process when a remote write
// flagged with frame.Notify has been performed (IPPS'07 §2.2).
type Notification struct {
	From int    // peer node id
	OpID uint64 // the writer's operation id
	Addr uint64 // destination address that was written
	Len  int    // bytes written
}

// RemoteNode returns the peer's node id.
func (c *Conn) RemoteNode() int { return int(c.remoteNode) }

// Links returns how many physical links the connection stripes over.
func (c *Conn) Links() int { return len(c.rails) }

// State returns where the connection is in its life. Only Live
// exchanges data; from Closing on it takes no new work.
func (c *Conn) State() ConnState { return c.state }

// Err returns why the connection failed (wrapping ErrPeerDead): the
// peer was declared dead, reset it, or never answered the dial. It is
// nil while the connection is healthy or merely closed. A failed
// connection has ended; talking to the peer again requires a fresh
// Dial/Accept pair.
func (c *Conn) Err() error {
	if c.state != Ended || !errors.Is(c.endErr, ErrPeerDead) {
		return nil
	}
	return c.endErr
}

// Reconnects returns how many supervised reconnects the connection has
// survived over its lifetime.
func (c *Conn) Reconnects() int {
	if c.recov == nil {
		return 0
	}
	return c.recov.total
}

// Incarnation returns the connection's live epoch — the value stamped
// into every frame it sends. Zero means incarnations are unused
// (Config.Reconnect off).
func (c *Conn) Incarnation() uint16 { return c.incarnation }

// RTO returns the retransmission timeout the next expiry timer arms:
// the fixed Config.RTO, or in adaptive mode the Jacobson estimate with
// the current backoff applied.
func (c *Conn) RTO() sim.Time { return c.currentRTO(&c.ep.cfg) }

// Close tears the connection down gracefully: it blocks until every
// locally issued operation has completed, then exchanges a close
// handshake with the peer (retried under loss). Operations initiated on
// a closed connection fail with ErrClosed; late frames for it are
// discarded. Descriptors posted but never rung fail with ErrClosed when
// the handshake ends.
//
// Close is bounded: if the peer dies or closes mid-drain, the teardown
// ends the outstanding operations and Close returns, and a close
// handshake the peer never acknowledges gives up after the MaxRetries
// budget instead of retrying forever. A reconnecting connection
// settles first: the handshake runs on the reborn epoch, or the
// reconnect gives up and ends the conn — nothing is sent on a condemned
// epoch.
func (c *Conn) Close(p *sim.Proc) {
	// Drain: all issued operations fully acknowledged — or the peer
	// declared dead or closed first, which ended them all.
	for c.state == Dialing || c.state == Reconnecting ||
		c.state == Live && (len(c.txOps) > 0 || c.inflight() > 0 || len(c.pendingReads) > 0) {
		p.Sleep(50 * sim.Microsecond)
	}
	if c.state != Live {
		return // another Close runs the handshake, or the teardown ran
	}
	// From here every operation that reaches the conn ends with this
	// cause; the teardown runs when the handshake ends.
	c.endErr = fmt.Errorf("core: connection to node %d closed: %w", c.remoteNode, ErrClosed)
	c.to(Closing)
	c.stopTimers()
	c.ep.emit(c.localID, obs.EvClosed, 0, 0)
	c.handshake(p)
}

// stopTimers cancels every protocol timer the connection owns and drops
// the pending-ctrl state that would arm new ones. It runs when a local
// Close starts its handshake (whose retransmission timer is armed only
// afterwards), on entering reconnecting, and in every teardown (whose
// move to ended stopped the handshake's timer), so a torn-down conn can
// never fire a callback or emit a frame again, and no stray event keeps
// the simulation alive.
func (c *Conn) stopTimers() {
	for _, t := range [...]*sim.Timer{c.ackTimer, c.rtoTimer, c.hbTimer, c.railProbe, c.probeTimer, c.readGuard} {
		t.Stop() // nil-safe
	}
	if r := c.recov; r != nil {
		r.timer.Stop()
		r.giveUp.Stop()
	}
	if n := c.nack; n != nil {
		n.timer.Stop()
		c.nack = nil
	}
	c.ackDue = false
	c.dropGaps()
}

// kick routes every "this conn may have work now" notification to the
// endpoint: under Config.SchedQueue the conn enqueues itself for O(1)
// service, otherwise this is just the thread wakeup.
func (c *Conn) kick() { c.ep.kickConn(c) }

// frameSpan resolves the span a received frame belongs to. Data and
// read-request frames carry the initiator's operation id and arrive on
// a connection whose remoteID is the initiator's local connection id;
// read-reply frames carry the requester's read-op id in Local and the
// requester is this node.
func (c *Conn) frameSpan(opType frame.OpType, opID, local uint64) *obs.Span {
	if !c.ep.obs.SpansEnabled() {
		return nil
	}
	if opType == frame.OpReadReply {
		return c.ep.obs.FindSpan(obs.SpanID{Node: c.ep.node, Conn: c.localID, Op: local})
	}
	return c.ep.obs.FindSpan(obs.SpanID{Node: int(c.remoteNode), Conn: c.remoteID, Op: opID})
}

// WaitNotify blocks until a notification arrives on the connection.
// Once the connection is closed or failed it never blocks: queued
// notifications drain first, then a poison Notification with Len < 0 is
// returned (peer death is also observable via Err). A waiter
// parked when the connection ends gets the poison from the teardown.
func (c *Conn) WaitNotify(p *sim.Proc) Notification {
	if c.state >= Closing {
		if n, ok := c.PollNotify(); ok {
			return n
		}
		return Notification{From: int(c.remoteNode), Len: -1}
	}
	return c.notifyGroup().Recv(p)
}

// PollNotify returns a pending notification without blocking.
func (c *Conn) PollNotify() (Notification, bool) {
	if c.notifyQ == nil {
		return Notification{}, false
	}
	return c.notifyQ.TryRecv()
}

// ---------------------------------------------------------------------
// How a connection ends: peer death, teardown, liveness (DESIGN.md §7).
// ---------------------------------------------------------------------

// failConn ends the connection with cause (which wraps ErrPeerDead),
// after what each failure exit owns: the PeerDeadEvents count, EvFailed,
// the end of an outage span and, when the failure was detected locally
// on a live conn, a Reset ctrl frame on every rail so the peer fails
// promptly too instead of burning its own retry budget.
func (c *Conn) failConn(cause error, sendReset bool) {
	ep := c.ep
	ep.Stats.PeerDeadEvents++
	ep.emit(c.localID, obs.EvFailed, int64(c.expiries), int64(c.inflight()))
	// A conn that dies mid-reconnect closes its outage span: the outage
	// ended, just not with a recovery.
	if r := c.recov; r != nil && r.span != nil {
		r.span.EndAt(ep.env.Now())
		r.span = nil
	}
	if sendReset && c.state == Live {
		c.sendResetFrames()
	}
	c.teardown(cause)
}

// teardown is how a conn ends, whichever of the five exits it takes:
// local Close (handshake acknowledged or given up), the peer's ConnClose,
// failConn, and a dial that gives up (DESIGN.md §7 "How a connection
// ends"). The conn moves to ended with cause unless a closing handshake
// already fixed one, and every operation that reaches it later ends
// the same way (Conn.issue). Then, once: every timer stops; every
// outstanding operation, pending read and unrung descriptor ends with
// the cause, handing back its quota charge, snapshot and frame records;
// WaitNotify waiters get their poison; and the conn leaves the
// endpoint's tables. Iteration orders are deterministic (sequence walk,
// FIFO slices, sorted read ids) so failure runs replay bit-identically.
func (c *Conn) teardown(cause error) {
	if c.state != Closing {
		c.endErr = cause
	}
	c.to(Ended)
	cause = c.endErr
	ep := c.ep
	c.stopTimers()
	c.outstanding(func(t *txOp) {
		t.completed = false // a read whose reply is due fails now
		c.endTxOp(t, cause)
	})
	c.dropWindow(&ep.free)
	// Posted-but-unrung descriptors never received ids; their error
	// completions carry OpID 0 and the original Op for correlation. Each
	// still holds the admission quota Post charged — return it.
	if q := c.queues; q != nil {
		for _, op := range q.sq {
			ep.Stats.OpsFailed++
			if ep.qosOn() {
				ep.qosUncharge(c.opClass(op), 1, op.Size)
			}
			c.pushCompletion(Completion{Op: op, Err: cause})
		}
		if n := len(q.sq); n > 0 {
			q.sq = nil
			ep.noteSQDepth(-n)
		}
	}
	c.orderer.restart(&ep.free) // the only reorder buffer: nothing else keeps payload copies
	// Wake processes parked in WaitNotify with one poison notification
	// each; once the conn is closed, later calls return the poison without
	// parking. No caller may hang on a conn that ended.
	for c.notifyQ != nil && c.notifyQ.HasWaiters() {
		c.notifyQ.Send(ep.env, Notification{From: int(c.remoteNode), Len: -1})
	}
	ep.removeConn(c)
}

// outstanding visits every send-side operation the conn still owes its
// callers, each once, in the order a teardown ends them: the ops of the
// window's frames, oldest first; then the queued ops with no frame in
// the window; then, sorted by id, each read whose request was
// acknowledged (so it is retired) and whose reply is still due. The
// teardown, rebirth, Journal and Health all take this one walk. visit
// may end the op it is given; it must not add work.
func (c *Conn) outstanding(visit func(*txOp)) {
	// An op's frames are numbered back to back, so only a dead-link probe
	// (one frame, an op of its own) can sit between two of them.
	var last *txOp
	for s := c.sndUna; s != c.sndNxt; s++ {
		if tf, ok := c.retrans.get(s); ok && tf.op != last {
			if !tf.op.probe {
				last = tf.op
			}
			visit(tf.op)
		}
	}
	// unacked counts an op's frames in the window: those ops came above.
	for _, t := range c.txOps {
		if !t.completed && t.unacked == 0 {
			visit(t)
		}
	}
	var acked []*txOp
	for _, t := range c.pendingReads {
		if t.completed {
			acked = append(acked, t)
		}
	}
	slices.SortFunc(acked, byID)
	for _, t := range acked {
		visit(t)
	}
}

// sendResetFrames tells the peer on every rail that this side has
// condemned the current epoch — on peer death so the other side fails
// promptly instead of burning its own retry budget, and on entering
// Reconnecting so the peer parks too. The frames carry the condemned
// incarnation: the receiver treats a Reset for a stale epoch as noise.
func (c *Conn) sendResetFrames() {
	ep := c.ep
	h := frame.Header{Type: frame.TypeReset, ConnID: c.remoteID, Ack: c.rcvNxt, HasAck: true,
		Incarnation: c.incarnation}
	for li := range c.rails {
		ep.sendControl(li, frame.NewAddr(int(c.remoteNode), li), &h)
		ep.Stats.ResetsSent++
	}
}

// startKeepalive initializes liveness tracking at connection
// establishment and, with heartbeats enabled, arms the idle-side tick.
// The tick is a daemon timer: an idle heart-beating connection never
// keeps an otherwise-finished simulation alive.
func (c *Conn) startKeepalive() {
	now := c.ep.env.Now()
	c.lastHeard, c.lastTx, c.lastProgress = now, now, now
	c.armRailProbes()
	hb := c.ep.cfg.HeartbeatInterval
	if hb <= 0 {
		return
	}
	c.hbTimer = c.ep.env.RearmArg(sim.Daemon(c.hbTimer), hb, heartbeatTick, c)
}

// heartbeatTick is the idle-side liveness tick: declare the peer dead
// after DeadInterval of silence, else send a heartbeat if nothing else
// was transmitted for a whole interval, and re-arm. Like every conn
// timer's callback it is a func(any) of the conn, so arming it makes no
// closure (sim.Env.RearmArg).
func heartbeatTick(arg any) {
	c := arg.(*Conn)
	if c.state != Live {
		return
	}
	hb := c.ep.cfg.HeartbeatInterval
	now := c.ep.env.Now()
	if di := c.ep.cfg.DeadInterval; di > 0 && now-c.lastHeard >= di {
		c.peerLost(fmt.Errorf("core: connection to node %d: peer silent for %v: %w",
			c.remoteNode, now-c.lastHeard, ErrPeerDead), true)
		return
	}
	if now-c.lastTx >= hb {
		c.sendHeartbeat()
	}
	c.hbTimer = c.ep.env.RearmArg(sim.Daemon(c.hbTimer), hb, heartbeatTick, c)
}

// sendHeartbeat emits one liveness ctrl frame. Like every control
// frame it carries the cumulative acknowledgement for free.
func (c *Conn) sendHeartbeat() {
	h := frame.Header{Type: frame.TypeHeartbeat, ConnID: c.remoteID, Ack: c.rcvNxt, HasAck: true}
	c.ep.Stats.HeartbeatsSent++
	c.sendFrame(&h, nil)
}

// armReadGuard starts the daemon liveness check that covers reads whose
// requests are acknowledged: nothing is in flight, so neither the RTO
// path nor (with heartbeats off) any other timer would notice the peer
// dying before the reply.
func (c *Conn) armReadGuard() {
	if c.state != Live || c.ep.cfg.DeadInterval <= 0 || c.readGuard.Pending() {
		return
	}
	c.readGuard = c.ep.env.RearmArg(sim.Daemon(c.readGuard), c.ep.cfg.DeadInterval, checkReadLiveness, c)
}

func checkReadLiveness(arg any) {
	c := arg.(*Conn)
	if c.state != Live || len(c.pendingReads) == 0 {
		return
	}
	di := c.ep.cfg.DeadInterval
	now := c.ep.env.Now()
	if silent := now - c.lastHeard; silent >= di {
		c.peerLost(fmt.Errorf("core: connection to node %d: read reply outstanding, peer silent for %v: %w",
			c.remoteNode, silent, ErrPeerDead), true)
		return
	}
	c.readGuard = c.ep.env.RearmArg(sim.Daemon(c.readGuard), c.lastHeard+di-now, checkReadLiveness, c)
}
