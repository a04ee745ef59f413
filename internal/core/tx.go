package core

import (
	"fmt"

	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// arqTx is the sending half of a connection's sliding-window ARQ
// (IPPS'07 §2.4): the operations queued for fragmentation, the window of
// numbered frames awaiting acknowledgement and their retransmission,
// and the timing that drives repair and peer-death detection
// (Config.RTOMax, MaxRetries, DeadInterval).
type arqTx struct {
	nextOpID     uint64
	txOps        []*txOp // FIFO: head is being fragmented
	retrans      seqRing[*txFrame]
	retransQ     []uint32 // sequence numbers queued for retransmission
	txFenced     fenceSet // forward-fenced ops not yet fully acked
	pendingReads map[uint64]*Handle
	rtoTimer     *sim.Timer
	onRTOFn      func()
	rtt          rttEst   // every rail blended; its rto is armed in adaptive mode
	expiries     int      // consecutive RTO expiries without ack progress
	lastProgress sim.Time // last ack advance, or first transmit of a fresh burst
	bytesAcked   uint64   // payload bytes acknowledged end-to-end, lifetime
	sndUna       uint32   // oldest unacknowledged sequence number
	sndNxt       uint32   // next sequence number to assign
}

// txOp is an operation on the send side: the kernel-buffer snapshot of
// its data plus fragmentation and acknowledgement progress.
type txOp struct {
	id     uint64
	opType frame.OpType
	flags  frame.OpFlags
	remote uint64
	local  uint64
	data   []byte
	// dataBuf, when non-nil, is the pooled buffer backing data (small
	// write/reply snapshots, sub-op containers); other data comes from
	// the endpoint's snapshot freelist. Either is owned by the txOp
	// until the exactly-once release where completion or failure drops
	// data; replay (reconnect.go) touches only incomplete ops, so the
	// snapshot is still owned whenever retransmission needs it.
	dataBuf   *frame.Buf
	total     uint32
	sent      uint32
	sentAll   bool
	unacked   int
	completed bool
	probe     bool // internal dead-link probe, not a user operation
	h         *Handle
	span      *obs.Span  // causal span (nil unless span recording is on)
	subs      []multiSub // coalesced sub-ops (nil = ordinary single op)

	// Admission charge held against a QoS class (Config.QoS): released
	// exactly once when the op completes or fails. qosOps is 0 when no
	// charge is held (QoS off, probes, receiver-side serves, replayed
	// read re-syntheses).
	qosCls   int
	qosOps   int
	qosBytes int
}

// multiSub is the send-side record of one coalesced sub-op inside a
// MultiData txOp: completion, CQ fan-out and span bookkeeping.
type multiSub struct {
	id   uint64
	op   Op
	span *obs.Span
}

// txFrame is one transmitted-but-unacknowledged frame.
type txFrame struct {
	op      *txOp
	seq     uint32
	offset  uint32
	payload []byte
	inQ     bool     // queued for retransmission
	ackReq  bool     // carries frame.Header.AckReq; a retransmission repeats it
	link    int      // link of the most recent transmission (failure attribution)
	txAt    sim.Time // time of the most recent transmission
	retx    bool     // ever retransmitted: its ack is ambiguous (Karn), no RTT sample
}

// Handle tracks the progress of one issued operation (IPPS'07 §2.2:
// "each operation can also, when initiated, return a handle ... the
// programmer can query the progress of each issued operation").
type Handle struct {
	c       *Conn
	opID    uint64
	size    int
	acked   int // bytes acknowledged so far (writes) or received (reads)
	done    sim.Signal
	cq      bool // issued via the SQ: completion also fans out to the CQ
	op      Op   // the posted descriptor (SQ path only)
	err     error
	dlTimer *sim.Timer // Op.Deadline expiry (nil without a deadline)
	// t is the operation's send-side record. The handle is user-held and
	// so can never be pooled; embedding the txOp in it makes the two
	// records one allocation — the single steady-state alloc per op —
	// and sidesteps every reuse-aliasing hazard a txOp freelist would
	// have (completed ops linger in txOps until curOp pops them).
	t txOp
}

// Progress returns how many of the operation's bytes have been
// acknowledged end-to-end (writes) or landed locally (reads), and the
// operation's total size.
func (h *Handle) Progress() (done, total int) { return h.acked, h.size }

// BytesAcked returns the operation's acknowledged-byte high-water mark.
// For an operation that failed — deadline expiry, peer death, exhausted
// reconnects — this is how far the transfer provably got, so a caller
// re-issuing the work can resume from this offset instead of restarting
// from byte 0. (A replayed operation resets the mark before re-issuing,
// so a successful recovery still reports exactly Size on completion.)
func (h *Handle) BytesAcked() int { return h.acked }

// Wait blocks the process until the operation completes: for writes,
// until every frame is acknowledged end-to-end; for reads, until the
// reply data has been written to local memory.
func (h *Handle) Wait(p *sim.Proc) { p.Wait(&h.done) }

// Test polls completion without blocking.
func (h *Handle) Test() bool { return h.done.Fired() }

// Done exposes the completion signal for event-driven waiting.
func (h *Handle) Done() *sim.Signal { return &h.done }

// OpID returns the operation's connection-local id.
func (h *Handle) OpID() uint64 { return h.opID }

// Err returns the operation's terminal error: nil while in flight or
// after success; wrapping ErrPeerDead when the connection failed with
// the operation pending, ErrClosed when it closed, or
// ErrDeadlineExceeded when Op.Deadline released the waiter first. Check
// after Wait returns.
func (h *Handle) Err() error { return h.err }

// newTxFrame pulls a transmit-frame record from the endpoint's freelist
// (frames die in handleAck or dropWindow, strictly inside the
// protocol thread, so recycling is race-free by construction).
func (c *Conn) newTxFrame(op *txOp, seq, offset uint32) *txFrame {
	ep := c.ep
	if n := len(ep.tfFree); n > 0 {
		tf := ep.tfFree[n-1]
		ep.tfFree = ep.tfFree[:n-1]
		*tf = txFrame{op: op, seq: seq, offset: offset}
		return tf
	}
	return &txFrame{op: op, seq: seq, offset: offset}
}

// freeTxFrame recycles tf. It is zeroed on the freelist, which would
// otherwise pin the op, its handle and its payload snapshot for as long
// as the record waits; every caller (handleAck, dropWindow) is
// done with tf's fields when it frees it.
func (c *Conn) freeTxFrame(tf *txFrame) {
	*tf = txFrame{}
	c.ep.tfFree = append(c.ep.tfFree, tf)
}

func (x *arqTx) inflight() int { return int(x.sndNxt - x.sndUna) }

// maxFramePayload returns the per-frame payload limit: the full MTU
// payload normally, or an even slice per link in the byte-striping
// baseline.
func (c *Conn) maxFramePayload() int {
	if c.ep.cfg.ByteStripe && c.links > 1 {
		return frame.MaxPayload / c.links
	}
	return frame.MaxPayload
}

// curOp returns the operation currently being fragmented; nil if there
// is none, or if the head operation is stalled behind an unacknowledged
// forward-fenced operation (sender side of §2.5's forward fence).
func (x *arqTx) curOp() *txOp {
	if n := 0; len(x.txOps) > 0 && x.txOps[0].sentAll {
		for n < len(x.txOps) && x.txOps[n].sentAll {
			n++
		}
		// Compact down in place instead of re-slicing the head off:
		// re-slicing walks the queue off its backing array, so a
		// long-lived pipelined conn reallocates it on every op.
		m := copy(x.txOps, x.txOps[n:])
		for i := m; i < len(x.txOps); i++ {
			x.txOps[i] = nil
		}
		x.txOps = x.txOps[:m]
	}
	if len(x.txOps) == 0 || x.txFenced.blocks(x.txOps[0].id) {
		return nil
	}
	return x.txOps[0]
}

// sendable reports whether the connection has data-path work for the
// protocol thread.
func (c *Conn) sendable() bool {
	if c.state != live {
		return false
	}
	if len(c.retransQ) > 0 {
		// Queued repairs respect the congestion window too: pacing out
		// more than cwnd retransmissions per round trip would amplify
		// exactly the congestion that caused the loss. A blocked repair
		// also holds back fresh data — recovery goes first — and the
		// budget re-opens on ack progress or the next RTO, so a stalled
		// recovery can never deadlock (see cc.go).
		return c.ccRetxOK(&c.ep.cfg)
	}
	return c.inflight() < c.effWindow(&c.ep.cfg) && c.curOp() != nil
}

// sendNextDataFrame emits one data frame: a queued retransmission first,
// otherwise the next fragment of the current operation. It returns the
// payload bytes handed to the wire (0 when the work evaporated), which
// the QoS scheduler charges against the served class.
func (c *Conn) sendNextDataFrame() int {
	cfg := &c.ep.cfg
	for len(c.retransQ) > 0 {
		if !c.ccRetxOK(cfg) {
			// Over the per-round-trip retransmission budget: leave the
			// queue intact and emit nothing. sendable() agrees, so the
			// scheduler parks the conn until an ack or RTO re-opens it.
			c.ep.Stats.CcRetxDeferred++
			return 0
		}
		seq := c.retransQ[0]
		// Copy-shift keeps the backing array; the queue is short (loss
		// bursts), so the shift is cheaper than steady-state re-allocs.
		c.retransQ = c.retransQ[:copy(c.retransQ, c.retransQ[1:])]
		tf, ok := c.retrans.get(seq)
		if !ok {
			continue // acknowledged since it was queued
		}
		tf.inQ = false
		c.transmit(tf, true)
		if len(c.retransQ) > 0 && !c.ccRetxOK(cfg) {
			// That was the last repair slot this round trip: the rest
			// of the queue waits until ack progress or the next RTO
			// re-opens the budget (sendable() parks the conn, so the
			// exhausted branch above never observes the deferral).
			c.ep.Stats.CcRetxDeferred++
		}
		return len(tf.payload)
	}
	op := c.curOp()
	if op == nil || c.inflight() >= c.effWindow(cfg) {
		return 0 // conditions changed since sendable()
	}
	pay := uint32(c.maxFramePayload())
	if rem := op.total - op.sent; rem < pay {
		pay = rem
	}
	tf := c.newTxFrame(op, c.sndNxt, op.sent)
	if op.opType == frame.OpRead {
		// A read request is a single header-only frame describing the
		// whole transfer; the data flows back as a ReadReply operation.
		pay = op.total
	} else if pay > 0 {
		tf.payload = op.data[op.sent : op.sent+pay]
	}
	c.sndNxt++
	op.sent += pay
	if op.sent >= op.total {
		op.sentAll = true
	}
	op.unacked++
	if c.blockedOnAckOf(op) {
		tf.ackReq = true
		c.ep.Stats.AckReqSent++
	}
	c.retrans.put(tf.seq, tf)
	c.ep.Stats.DataFramesSent++
	c.ep.Stats.DataBytesSent += uint64(len(tf.payload))
	c.transmit(tf, false)
	return len(tf.payload)
}

// blockedOnAckOf reports whether the sender cannot move until the frame
// it has just numbered — the newest fragment of op, the head of txOps —
// is acknowledged, in a way the receiver's delayed-ACK policy (§2.4)
// cannot see. Such a frame carries frame.Header.AckReq. Two cases:
//
//   - it closes the effective window while more is queued, and the whole
//     flight is shorter than AckEvery: the receiver's frame threshold can
//     never fire on it, so without the bit every window costs one
//     AckDelay (a congestion window in slow start or after a cut, or a
//     Config.Window below AckEvery). AckEvery is the local value: a
//     cluster shares one Config (a real implementation would exchange it
//     in ConnReq);
//   - it is the last frame of a forward-fenced op: every later op waits
//     for exactly this acknowledgement. A fence that is also Solicit gets
//     its prompt ACK from that flag already (a coalesced container
//     carries only the fence in its own flags, so the bit may ride beside
//     a Solicit sub-op: both ask for the same one ACK).
//
// At the paper's defaults (Window 128 >= AckEvery 32, no congestion
// window, no bare forward fences in any pinned run) neither holds and
// the protocol on the wire is the paper's.
func (c *Conn) blockedOnAckOf(op *txOp) bool {
	if op.sentAll && op.flags&(frame.FenceAfter|frame.Solicit) == frame.FenceAfter {
		return true
	}
	fl := c.inflight()
	return fl >= c.effWindow(&c.ep.cfg) && fl < c.ep.cfg.AckEvery && (!op.sentAll || len(c.txOps) > 1)
}

// transmit encodes and hands one frame to the next link in round-robin
// order (IPPS'07 §2.5), with the current cumulative acknowledgement
// piggy-backed.
func (c *Conn) transmit(tf *txFrame, isRetrans bool) {
	op := tf.op
	typ := frame.TypeData
	switch {
	case op.opType == frame.OpRead:
		typ = frame.TypeReadReq
	case op.subs != nil:
		typ = frame.TypeMultiData
	}
	h := frame.Header{
		Type: typ, ConnID: c.remoteID,
		Seq: tf.seq, Ack: c.rcvNxt, HasAck: true, AckReq: tf.ackReq,
		OpID: op.id, OpType: op.opType, OpFlags: op.flags,
		Remote: op.remote, Local: op.local,
		Offset: tf.offset, Total: op.total,
	}
	if isRetrans {
		tf.retx = true
		c.ep.Stats.Retransmissions++
		if c.ep.cfg.ccOn() {
			c.ccRetxSent++
		}
	} else if c.inflight() == 1 {
		// Sole outstanding frame: a fresh burst after an idle gap.
		// Progress tracking (DeadInterval) anchors here, not at the last
		// acknowledgement of the previous burst.
		c.lastProgress = c.ep.env.Now()
	}
	li := -1 // normal round-robin pick
	if tf.op.probe && !isRetrans {
		li = tf.link // the probe's first copy is forced onto the dead link
	}
	prev := tf.link
	tf.link = c.sendFrameOn(&h, tf.payload, li)
	if c.ep.cfg.ccOn() {
		if isRetrans {
			// The frame's outstanding charge moves with it to its new rail.
			c.railDec(prev)
		}
		c.rails[tf.link].out++
	}
	tf.txAt = c.ep.env.Now()
	k := obs.EvFrameRetx
	if !isRetrans {
		k = obs.EvFrameTx
		if tf.offset == 0 {
			// First transmission of the op's first frame: the protocol CPU
			// has dequeued the operation. The gap from span start is
			// initiation + send-queue + CPU contention time.
			c.ep.emit(c.localID, obs.EvProtoDequeue, int64(tf.seq), 0, spanOf{op: op, link: -1})
		}
	}
	c.ep.emit(c.localID, k, int64(tf.seq), int64(len(tf.payload)), spanOf{op: op, link: tf.link})
	// Only user traffic keeps probing alive: a probe transmission must
	// not re-arm the timer, or an idle connection with a dead link would
	// sustain a probe → loss → RTO-repair → probe loop forever.
	if c.deadLinks > 0 && !tf.op.probe {
		c.armProbeTimer()
	}
	c.armRTO()
}

// queueRetrans schedules seq for retransmission if it is still
// outstanding and not already queued. Each repair event is attributed
// to the link the frame was last transmitted on, feeding dead-link
// detection. cause records why the repair was scheduled (NACK vs RTO)
// in the operation's span.
func (c *Conn) queueRetrans(seq uint32, cause obs.Kind) {
	tf, ok := c.retrans.get(seq)
	if !ok || tf.inQ {
		return
	}
	tf.inQ = true
	c.retransQ = append(c.retransQ, seq)
	c.ep.emit(c.localID, cause, int64(seq), int64(len(tf.payload)), spanOf{op: tf.op, link: tf.link})
	c.noteLinkRepair(tf.link)
}

// updateRTT feeds one ack-derived round-trip sample into the conn-level
// estimator. The estimate is always maintained for statistics; it is
// only *armed* in adaptive mode (Config.RTOMax > 0).
func (c *Conn) updateRTT(sample sim.Time) {
	if !c.rtt.sample(sample) {
		return
	}
	c.ep.Stats.RttSamples++
	if c.ep.rtoHist != nil {
		c.ep.rtoHist.Observe(float64(c.rtt.rto(&c.ep.cfg)) / 1000)
	}
}

// backoff is base doubled n times, capped at limit: the one capped
// doubling behind the adaptive RTO, the redial delay and the acceptor's
// reconnect wait.
func backoff(base, limit sim.Time, n int) sim.Time {
	for ; n > 0 && base < limit; n-- {
		base *= 2
	}
	return min(base, limit)
}

// currentRTO returns the timeout the next expiry timer should use: the
// fixed Config.RTO outside adaptive mode, otherwise the Jacobson
// estimate doubled once per consecutive expiry (exponential backoff)
// and capped at RTOMax.
func (x *arqTx) currentRTO(cfg *Config) sim.Time {
	if cfg.RTOMax <= 0 {
		return cfg.RTO
	}
	d := x.rtt.rto(cfg)
	if d == 0 {
		d = cfg.RTO // adaptive mode starts from the paper's fixed value
	}
	return backoff(d, cfg.RTOMax, x.expiries)
}

// armRTO (re)starts the coarse retransmission timer (§2.4). With
// DeadInterval set the timer never sleeps past the death deadline, so
// peer-failure detection latency is bounded by DeadInterval itself and
// not by DeadInterval plus one (possibly backed-off) timeout.
func (c *Conn) armRTO() {
	if c.state != live {
		return
	}
	d := c.currentRTO(&c.ep.cfg)
	if di := c.ep.cfg.DeadInterval; di > 0 {
		if rem := c.lastProgress + di - c.ep.env.Now(); rem < d {
			d = rem
			if d < 0 {
				d = 0
			}
		}
	}
	if c.onRTOFn == nil {
		c.onRTOFn = c.onRTO
	}
	c.rtoTimer = c.ep.env.Rearm(c.rtoTimer, d, c.onRTOFn)
}

func (c *Conn) onRTO() {
	if c.state != live || c.inflight() == 0 {
		return
	}
	cfg := &c.ep.cfg
	now := c.ep.env.Now()
	c.ep.Stats.RtoExpiries++
	c.expiries++
	if c.expiries > c.ep.Stats.RtoBackoffMax {
		c.ep.Stats.RtoBackoffMax = c.expiries
	}
	if c.ep.backoffHist != nil {
		c.ep.backoffHist.Observe(float64(c.expiries))
	}
	c.ep.emit(c.localID, obs.EvRtoExpiry, int64(c.expiries), int64(c.inflight()))
	if (cfg.MaxRetries > 0 && c.expiries > cfg.MaxRetries) ||
		(cfg.DeadInterval > 0 && now-c.lastProgress >= cfg.DeadInterval) {
		c.peerLost(fmt.Errorf("core: connection to node %d: no ack progress after %d timeouts over %v: %w",
			c.remoteNode, c.expiries, now-c.lastProgress, ErrPeerDead), true)
		return
	}
	// Loss is a congestion signal: halve the window (at most once per
	// flight) and re-open the retransmission budget — RTO expiry is the
	// clock that paces a blocked recovery forward.
	c.ccOnRto()
	if cfg.GoBackN {
		// Go-back-N baseline: resend everything outstanding.
		for s := c.sndUna; s != c.sndNxt; s++ {
			c.queueRetrans(s, obs.EvRtoRepair)
		}
	} else {
		// The paper's rule: retransmit the last transmitted frame; the
		// receiver then sees the gap and NACKs anything else missing.
		seq := c.sndNxt - 1
		if !c.retrans.has(seq) {
			seq = c.sndUna
		}
		c.queueRetrans(seq, obs.EvRtoRepair)
	}
	c.armRTO()
	c.kick()
}

// handleAck processes a cumulative acknowledgement (piggy-backed or
// explicit): it releases retransmit buffers, advances the window and
// completes operations whose every frame is acknowledged.
func (c *Conn) handleAck(ack uint32) {
	if int32(ack-c.sndUna) <= 0 {
		return // stale
	}
	if int32(ack-c.sndNxt) > 0 {
		ack = c.sndNxt // defensive: never ack beyond what was sent
	}
	// Newest never-retransmitted acked frame (Karn). The timestamp is
	// copied out rather than holding the frame: each tf is recycled the
	// moment its op bookkeeping is done.
	var newestAt sim.Time
	haveNewest := false
	for s := c.sndUna; s != ack; s++ {
		tf, ok := c.retrans.get(s)
		c.retrans.del(s)
		if ok {
			c.bytesAcked += uint64(len(tf.payload))
			tf.op.unacked--
			if tf.op.h != nil && tf.op.opType == frame.OpWrite {
				tf.op.h.acked += len(tf.payload)
			}
			c.ep.emit(c.localID, obs.EvAck, int64(s), int64(len(tf.payload)), spanOf{op: tf.op, link: tf.link})
			c.clearLinkFault(tf.link, tf.txAt)
			if !tf.retx && (!haveNewest || tf.txAt > newestAt) {
				newestAt, haveNewest = tf.txAt, true
			}
			if !tf.retx && !c.railProbing() && tf.link >= 0 && tf.link < c.links {
				if r := &c.rails[tf.link]; !r.have || tf.txAt > r.newest {
					r.newest, r.have = tf.txAt, true
				}
			}
			if c.ep.cfg.ccOn() {
				c.railDec(tf.link)
			}
			op := tf.op
			c.freeTxFrame(tf)
			if op.sentAll && op.unacked == 0 {
				c.endTxOp(op, nil)
			}
		}
	}
	if c.ep.cfg.ccOn() {
		c.ccOnAck(int(ack-c.sndUna), c.ep.cfg.Window)
	}
	c.sndUna = ack
	c.expiries = 0
	c.lastProgress = c.ep.env.Now()
	if haveNewest {
		c.updateRTT(c.ep.env.Now() - newestAt)
		c.updateRailRTT(c.ep.env.Now())
	}
	if c.inflight() > 0 {
		c.armRTO()
	} else {
		c.rtoTimer.Stop()
	}
	c.kick() // the window may have opened
}

// handleNack retransmits the frames a NACK reports missing (selective
// repeat; the go-back-N baseline never receives NACKs).
func (c *Conn) handleNack(missing []uint32) {
	for _, s := range missing {
		c.queueRetrans(s, obs.EvNackRepair)
	}
	c.kick()
}

// endTxOp ends a send-side operation, at most once: err is nil when its
// every frame is acknowledged, else the cause that ends it early. It
// retires the op, fans a coalesced batch out to its sub-ops, ends the
// span unless the op is a read reply (the read's span ends when the
// reply lands), and finishes the handle. A read that succeeds here has
// only its request acknowledged: its handle finishes when the reply
// lands (completeRxOp).
func (c *Conn) endTxOp(t *txOp, err error) {
	if t.completed {
		return
	}
	if c.retireTxOp(t) {
		return // internal probe: no user-visible completion
	}
	ep := c.ep
	if err == nil && t.flags&frame.FenceAfter != 0 {
		c.txFenced.remove(t.id)
		c.kick() // stalled operations may proceed now
	}
	now := ep.env.Now()
	if t.subs != nil {
		for i := range t.subs {
			s := &t.subs[i]
			if err == nil {
				ep.Stats.OpsCompleted++
			} else {
				ep.Stats.OpsFailed++
			}
			s.span.EndAt(now)
			c.pushCompletion(Completion{OpID: s.id, Op: s.op, Err: err})
		}
		return
	}
	if err == nil {
		ep.Stats.OpsCompleted++
		if t.opType == frame.OpRead {
			// The request is fully acknowledged but nothing is in flight any
			// more: the RTO machinery is quiet while we wait for the reply, so
			// a daemon guard keeps DeadInterval protection over the wait.
			c.armReadGuard()
			return
		}
	}
	if t.opType != frame.OpReadReply {
		t.span.EndAt(now)
	}
	if t.opType == frame.OpRead {
		delete(c.pendingReads, t.id)
	}
	h := t.h
	t.h = nil
	if h != nil && err != nil {
		ep.Stats.OpsFailed++
	}
	c.finishHandle(h, err)
}

// retireTxOp marks a send-side operation completed — done or failed —
// and releases what it held: the snapshot buffer and the QoS admission
// charge. It reports whether op was an internal dead-link probe.
func (c *Conn) retireTxOp(op *txOp) (probe bool) {
	op.completed = true
	c.ep.releaseSnapshot(op.data, op.dataBuf)
	op.data, op.dataBuf = nil, nil
	c.qosRelease(op)
	return op.probe
}

// finishHandle terminates a handle: err is nil on completion, else the
// deadline expiry or connection failure. The waiter (if any) is woken
// exactly once; a CQ handle also fans the outcome out as a Completion.
func (c *Conn) finishHandle(h *Handle, err error) {
	if h == nil || h.done.Fired() {
		return
	}
	if h.dlTimer != nil {
		h.dlTimer.Stop()
	}
	h.err = err
	ep := c.ep
	// Waking the user process costs CPU only if someone is blocked on
	// the handle; a poll-later handle just flips state.
	if h.done.HasWaiters() {
		ep.cpus.Proto.SubmitArg(ep.env, ep.costs.UserWake, ep.fireSigFn, &h.done)
	} else {
		h.done.Fire(ep.env)
	}
	if h.cq {
		c.pushCompletion(Completion{OpID: h.opID, Op: h.op, Err: err})
	}
}

// expireHandle fires when an operation's Op.Deadline passes before it
// completes. Only the waiter is released: the transfer itself keeps
// running, because cancelling a partially transmitted operation would
// leave a hole in the receiver's sequence and fence frontier. t is the
// operation the handle belongs to (nil for an already-detached handle).
func (c *Conn) expireHandle(h *Handle, t *txOp) {
	if h.done.Fired() || c.state == ended {
		return // completed (or the conn ended) in the meantime
	}
	ep := c.ep
	ep.Stats.OpDeadlinesExpired++
	ep.Stats.OpsFailed++
	if t != nil && t.h == h {
		t.h = nil // detach: completion machinery no longer owns the waiter
	}
	if t != nil && t.opType == frame.OpRead {
		delete(c.pendingReads, t.id)
		if len(c.pendingReads) == 0 {
			c.readGuard.Stop()
		}
	}
	c.finishHandle(h, fmt.Errorf("core: op %d to node %d: %w", h.opID, c.remoteNode, ErrDeadlineExceeded))
}

// dropWindow recycles every frame record in the transmit window once a
// teardown or a rebirth has taken from it what it needs.
func (c *Conn) dropWindow() {
	for s := c.sndUna; s != c.sndNxt; s++ {
		if tf, ok := c.retrans.get(s); ok {
			c.freeTxFrame(tf)
		}
	}
	c.retrans.clear()
	c.retransQ = nil
}
