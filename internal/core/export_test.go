package core

import (
	"fmt"

	"multiedge/internal/frame"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// Test hooks: white-box visibility into connection timer and gap state
// for the teardown-leak regression tests, without exporting any of it.

// PendingTimersForTest counts the connection's protocol timers that are
// still armed. After Close or failure it must be zero: a pending timer
// on a torn-down conn is exactly the leak class this suite guards
// against.
func (c *Conn) PendingTimersForTest() int { return len(c.ArmedTimersForTest()) }

// ArmedTimersForTest names the connection's protocol timers that are
// armed, in a fixed order.
func (c *Conn) ArmedTimersForTest() []string {
	type named struct {
		name string
		t    *sim.Timer
	}
	var nackTimer *sim.Timer
	if c.nack != nil {
		nackTimer = c.nack.timer
	}
	timers := []named{
		{"delayed ACK", c.ackTimer}, {"NACK", nackTimer}, {"RTO", c.rtoTimer},
		{"heartbeat", c.hbTimer}, {"rail probe", c.railProbe}, {"link probe", c.probeTimer},
		{"read guard", c.readGuard},
	}
	if c.hs != nil {
		name := "dial retry"
		if c.state == Closing {
			name = "close retry"
		}
		timers = append(timers, named{name, c.hs.timer})
	}
	if c.recov != nil {
		timers = append(timers, named{"redial", c.recov.timer}, named{"reconnect give-up", c.recov.giveUp})
	}
	var armed []string
	for _, t := range timers {
		if t.t.Pending() { // nil-safe
			armed = append(armed, t.name)
		}
	}
	return armed
}

// RedialsForTest counts the dialer's redials in the current outage.
func (c *Conn) RedialsForTest() int { return c.recov.attempt }

// FireForTest runs the named timer's callback now, as if it fired.
func (c *Conn) FireForTest(timer string) {
	map[string]func(any){
		"delayed ACK": ackTick, "NACK": nackTick, "RTO": onRTO,
		"heartbeat": heartbeatTick, "rail probe": railProbeTick, "link probe": probeTick,
		"read guard": checkReadLiveness, "redial": redial,
	}[timer](c)
}

// PeerLostForTest delivers a local peer-death verdict, as a detector
// would.
func (c *Conn) PeerLostForTest() {
	c.peerLost(fmt.Errorf("core: a test's verdict: %w", ErrPeerDead), true)
}

// SetIncarnationForTest moves a live connection to epoch inc, as if it
// had been reborn that often. Set the same epoch on both ends.
func (c *Conn) SetIncarnationForTest(inc uint16) { c.incarnation = inc }

// TrackedGapsForTest returns how many missing sequence numbers the
// receive side currently tracks (bounded by maxTrackedGaps).
func (c *Conn) TrackedGapsForTest() int { return int(c.gaps) }

// GapStateForTest exposes the gap record for one sequence number (the
// stopTimers drop-contract test stages and then asserts this state).
func (c *Conn) GapStateForTest(s uint32) (missing, nacked bool) {
	r, ok := c.rcv.get(s)
	return ok && !r.accepted, ok && r.nacked > 0
}

// SeedGapForTest plants a gap record as if s went missing at t and was
// NACKed at t (so something past s has been accepted), and
// StopTimersForTest runs the teardown path under test.
func (c *Conn) SeedGapForTest(s uint32, t sim.Time) {
	c.rcv.put(s, rcvSlot{since: t, nacked: t})
	c.gaps++
	if int32(s+1-c.maxSeenPlus1) > 0 {
		c.maxSeenPlus1 = s + 1
	}
}

// HeldForTest reports the reorder buffer: how many frames it holds, and
// how many slots of its backing array past that length still reference
// a payload copy (frames applied long ago that the GC must be free to
// collect).
func (c *Conn) HeldForTest() (held, stale int) {
	for _, hf := range c.held[len(c.held):cap(c.held)] {
		if hf.payload != nil {
			stale++
		}
	}
	return len(c.held), stale
}

// HeldBufsForTest returns the pooled buffers of the frames the reorder
// buffer holds.
func (c *Conn) HeldBufsForTest() []*frame.Buf {
	var bufs []*frame.Buf
	for _, hf := range c.held {
		if hf.buf != nil {
			bufs = append(bufs, hf.buf)
		}
	}
	return bufs
}

// StopTimersForTest invokes the conn's timer/gap teardown directly.
func (c *Conn) StopTimersForTest() { c.stopTimers() }

// NackDueForTest returns the length of the queued NACK list (bounded by
// maxNack).
func (c *Conn) NackDueForTest() int {
	if c.nack == nil {
		return 0
	}
	return len(c.nack.due)
}

// CtrlStateForTest reports the pending delayed-ACK flag and NACK list
// size, the state the post-close no-frame regression stages.
func (c *Conn) CtrlStateForTest() (ackDue bool, nacks int) {
	return c.ackDue, c.NackDueForTest()
}

// RxOpsBelowFrontierForTest counts receive-op records for ids the
// completion frontier has already passed: records nothing collects.
func (c *Conn) RxOpsBelowFrontierForTest() int {
	n := 0
	for id := range c.rxOps {
		if id < c.frontier {
			n++
		}
	}
	return n
}

// LocalIDForTest returns the connection's demultiplex id — the ConnID
// an incoming frame must carry to reach it. The stale-epoch property
// test crafts raw frames against it.
func (c *Conn) LocalIDForTest() uint32 { return c.localID }

// RcvStateForTest exposes the receive-side cumulative-ack point and
// accepted-frame high-water mark, so injection tests can prove a fenced
// frame touched no ARQ state.
func (c *Conn) RcvStateForTest() (rcvNxt, maxSeenPlus1 uint32) {
	return c.rcvNxt, c.maxSeenPlus1
}

// SetSeqBaseForTest moves an established, still idle connection's
// sequence space so that it starts at base instead of 0: the send and
// receive cursors and every rail's arrival high-water mark. Set the
// same base on both ends.
func (c *Conn) SetSeqBaseForTest(base uint32) {
	c.sndUna, c.sndNxt, c.ccRecover = base, base, base
	c.rcvNxt, c.maxSeenPlus1, c.applyNxt = base, base, base
	for i := range c.rails {
		c.rails[i].high = base
	}
}

// CcStateForTest exposes the live congestion window and the
// retransmissions charged against it since the last ack progress or
// RTO, so the loss-burst regression can assert the wire invariant
// retxSent <= cwnd while recovery is in flight.
func (c *Conn) CcStateForTest() (cwnd, retxSent int) { return int(c.cwnd), int(c.ccRetxSent) }

// BuiltStateForTest says which pieces of a conn's by-use state exist:
// the receive window's ring, the SQ/CQ, recovery and notification
// groups, the handshake record and the NACK record.
type BuiltStateForTest struct{ Rcv, Queues, Recovery, Notify, Handshake, Nack bool }

func (c *Conn) BuiltStateForTest() BuiltStateForTest {
	return BuiltStateForTest{
		Rcv: c.rcv.slots != nil, Queues: c.queues != nil, Recovery: c.recov != nil,
		Notify: c.notifyQ != nil, Handshake: c.hs != nil, Nack: c.nack != nil,
	}
}

// MaxNackForTest, MaxTrackedGapsForTest, ConnRetryForTest and
// CCBacklogForTest expose the protocol constants (read-only).
const (
	MaxNackForTest        = maxNack
	MaxTrackedGapsForTest = maxTrackedGaps
	ConnRetryForTest      = connRetry
	BackoffCapForTest     = reconnectBackoffCap
	CCBacklogForTest      = ccBacklog
)

// SnapshotForTest returns the kernel-buffer snapshot of the op queued
// last, at full capacity; retained across completion, it shows what
// endTxOp left of it.
func (c *Conn) SnapshotForTest() []byte {
	t := c.txOps[len(c.txOps)-1]
	return t.data[:cap(t.data)]
}

// RecycledForTest peeks at the Run handle and the op record the endpoint
// recycled last and returns the operation ids they read: PoisonIDForTest
// under frame.SetPoolDebug, 0 otherwise (or when none was recycled).
func (ep *Endpoint) RecycledForTest() (handle, op uint64) {
	h, t := ep.free.handles.Get(), ep.free.ops.Get()
	ep.free.handles.Put(h)
	ep.free.ops.Put(t)
	return h.opID, t.id
}

// PoisonIDForTest is the operation id a poisoned record reads.
const PoisonIDForTest = ^uint64(0) / 255 * 0xDB

// QosPendingForTest returns the admission charges class cls still
// holds: operations admitted but not yet finished, and their bytes.
func (ep *Endpoint) QosPendingForTest(cls int) (ops, bytes int) {
	return ep.qos[cls].pendingOps, ep.qos[cls].pendingBytes
}

// ConnsForTest returns the endpoint's tabled conns in creation order.
func (ep *Endpoint) ConnsForTest() []*Conn { return ep.connOrder }

// PoolForTest returns the simulation's frame pool the endpoint draws from.
func (ep *Endpoint) PoolForTest() *phys.Pool { return ep.free.pool }

// IdleSnapshotsForTest counts the snapshot buffers handed back to the
// endpoint's freelist and waiting there for reuse.
func (ep *Endpoint) IdleSnapshotsForTest() int {
	n := 0
	for _, free := range ep.snapFree {
		n += len(free)
	}
	return n
}
