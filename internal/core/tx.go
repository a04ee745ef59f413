package core

import (
	"cmp"
	"fmt"

	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// arqTx is the sending half of a connection's sliding-window ARQ
// (IPPS'07 §2.4): the ops queued for fragmentation, the window of frames
// awaiting acknowledgement and repair, and the timing behind repair and
// peer-death detection. Its methods take the clock, the configuration
// and the endpoint's frame freelist as arguments; the glue on Conn
// keeps events, Stats, timers, CPU charges and the wire.
type arqTx struct {
	nextOpID     uint64
	txOps        []*txOp // FIFO: head is being fragmented
	retrans      seqRing[*txFrame]
	retransQ     []uint32 // sequence numbers queued for retransmission
	txFenced     fenceSet // forward-fenced ops not yet fully acked
	pendingReads map[uint64]*txOp
	rtoTimer     *sim.Timer
	onRTOFn      func()
	rtt          rttEst   // every rail blended; its rto is armed in adaptive mode
	expiries     int      // consecutive RTO expiries without ack progress
	lastProgress sim.Time // last ack advance, or first transmit of a fresh burst
	bytesAcked   uint64   // payload bytes acknowledged end-to-end, lifetime
	sndUna       uint32   // oldest unacknowledged sequence number
	sndNxt       uint32   // next sequence number to assign
}

// txOp is an operation on the send side, pooled (freelists.recycle):
// the kernel-buffer snapshot of its data plus fragmentation and
// acknowledgement progress. Op is its descriptor: the user's, or that of
// a read reply (Local is the requester's read id), container or probe.
type txOp struct {
	Op
	id uint64
	// data is the kernel-buffer snapshot (Endpoint.snapshot), or a
	// container's encoded sub-ops. The txOp owns it until it ends
	// (endTxOp); replay touches only incomplete ops, so retransmission
	// always has it.
	data      []byte
	total     uint32
	sent      uint32
	sentAll   bool
	unacked   int
	completed bool
	probe     bool       // internal dead-link probe, not a user operation
	queued    bool       // in txOps, until curOp's compaction takes it out
	cq        bool       // the outcome is owed to the completion queue (until finish)
	h         *Handle    // the outcome is owed to this handle (until finish)
	dl        *sim.Timer // Op.Deadline expiry (nil without a deadline)
	span      *obs.Span  // causal span (nil unless span recording is on)
	subs      []multiSub // coalesced sub-ops (empty = ordinary single op)

	// Admission charge held against a QoS class (Config.QoS): released
	// exactly once when the op completes or fails. qosOps is 0 when no
	// charge is held (QoS off, probes, receiver-side serves, replayed
	// read re-syntheses).
	qosCls   int
	qosOps   int
	qosBytes int
}

// owed reports whether a caller still waits for t's outcome.
func (t *txOp) owed() bool { return t.h != nil || t.cq }

// byID orders send records by operation id, which is issue order.
func byID(a, b *txOp) int { return cmp.Compare(a.id, b.id) }

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
// programmer can query the progress of each issued operation"). It holds
// what its methods read; the op's txOp points at it until Conn.finish.
type Handle struct {
	done  sim.Signal
	err   error
	opID  uint64
	acked uint32 // bytes acknowledged so far (writes) or received (reads)
	size  uint32
}

// Progress returns how many of the operation's bytes have been
// acknowledged end-to-end (writes) or landed locally (reads), and the
// operation's total size.
func (h *Handle) Progress() (done, total int) { return int(h.acked), int(h.size) }

// BytesAcked returns the operation's acknowledged-byte high-water mark.
// For an operation that failed — deadline expiry, peer death, exhausted
// reconnects — this is how far the transfer provably got, so a caller
// re-issuing the work can resume from this offset instead of restarting
// from byte 0. (A replayed operation resets the mark before re-issuing,
// so a successful recovery still reports exactly Size on completion.)
func (h *Handle) BytesAcked() int { return int(h.acked) }

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

// freelists are the records an endpoint's data path recycles, shared
// by its conns, whose protocol thread serializes them (DESIGN.md §13):
// transmit frames, receive-op records, held payload buffers, every send
// record, and the handles of Conn.Run, whose caller gives them back.
type freelists struct {
	frames  frame.Freelist[txFrame] // acknowledged or abandoned transmit frames
	rx      frame.Freelist[rxOp]    // frontier-collected receive ops
	ops     frame.Freelist[txOp]    // send records
	handles frame.Freelist[Handle]  // Conn.Run handles
	pool    *phys.Pool              // the simulation's frames and buffers
}

// poisonOp is what a recycled op record reads under frame.SetPoolDebug:
// fragmenting it, as a stale pointer left in txOps would, faults.
var poisonOp = txOp{id: ^uint64(0) / 255 * 0xDB, Op: Op{Kind: 0xDB, Remote: ^uint64(0) / 255 * 0xDB}, total: ^uint32(0) / 255 * 0xDB}

// recycle hands send record t back to fl once nothing refers to it: it
// is retired (endTxOp ran), its outcome delivered (finish ran, so no
// handle, deadline timer or pendingReads holds it), the compaction in
// curOp took it out of txOps, and no frame holds it (unacked; ack frees
// the last one right after endTxOp). Whichever of these comes last
// calls it. A replayed or in-flight op is not retired, and a teardown
// leaves its records to the collector. The record is zeroed, or
// poisoned under frame.SetPoolDebug; a container keeps its subs backing.
func (fl *freelists) recycle(t *txOp) {
	if !t.completed || t.queued || t.unacked > 0 || t.owed() {
		return
	}
	z := txOp{}
	if frame.Poisoning() {
		z = poisonOp
	}
	clear(t.subs)
	z.subs = t.subs[:0]
	*t = z
	fl.ops.Put(t)
}

func (x *arqTx) inflight() int { return int(x.sndNxt - x.sndUna) }

// curOp returns the operation currently being fragmented; nil if there
// is none, or if the head operation is stalled behind an unacknowledged
// forward-fenced operation (sender side of §2.5's forward fence). The
// fragmented ops it takes off the head may go back to fl.
func (x *arqTx) curOp(fl *freelists) *txOp {
	if n := 0; len(x.txOps) > 0 && x.txOps[0].sentAll {
		for n < len(x.txOps) && x.txOps[n].sentAll {
			x.txOps[n].queued = false
			fl.recycle(x.txOps[n])
			n++
		}
		// Compact in place: re-slicing the head off walks the queue off its
		// backing array, reallocating it on every op of a pipelined conn.
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

// enqueue queues t for fragmentation from offset 0. A forward fence
// holds every later op until t is fully acknowledged: a receiver that
// has seen no frame of t could not know to hold their frames.
func (x *arqTx) enqueue(t *txOp) {
	t.sent, t.sentAll, t.unacked, t.queued = 0, false, 0, true
	if t.Flags&frame.FenceAfter != 0 {
		x.txFenced.add(t.id)
	}
	x.txOps = append(x.txOps, t)
}

// restart begins a fresh epoch (Conn.rebirth) from sequence number 0
// with journal re-queued. Op ids, pending reads, the round-trip
// estimate, the byte count, the ring's storage and the timer carry over.
func (x *arqTx) restart(journal []*txOp) {
	*x = arqTx{nextOpID: x.nextOpID, txOps: journal[:0], retrans: x.retrans, pendingReads: x.pendingReads,
		rtoTimer: x.rtoTimer, onRTOFn: x.onRTOFn, rtt: x.rtt, bytesAcked: x.bytesAcked}
	for _, t := range journal {
		x.enqueue(t) // writes journal[i] over itself: txOps is journal[:i]
	}
}

// next returns the frame to put on the wire, if any, and whether it is a
// repair: queued repairs first (none while !repairOK), else the current
// op's next fragment of at most maxPay bytes if window has room.
func (x *arqTx) next(fl *freelists, repairOK bool, window, maxPay, ackEvery int) (tf *txFrame, repair bool) {
	for repairOK && len(x.retransQ) > 0 {
		seq := x.retransQ[0]
		// Copy-shift keeps the backing array; loss bursts are short.
		x.retransQ = x.retransQ[:copy(x.retransQ, x.retransQ[1:])]
		if tf, ok := x.retrans.get(seq); ok {
			tf.inQ = false
			return tf, true
		} // else acknowledged since it was queued
	}
	if len(x.retransQ) > 0 {
		return nil, false
	}
	op := x.curOp(fl)
	if op == nil || x.inflight() >= window {
		return nil, false
	}
	pay := uint32(maxPay)
	if rem := op.total - op.sent; rem < pay {
		pay = rem
	}
	tf = x.number(fl, op, op.sent)
	if op.Kind == frame.OpRead {
		// A read request is a single header-only frame describing the
		// whole transfer; the data flows back as a ReadReply operation.
		pay = op.total
	} else if pay > 0 {
		tf.payload = op.data[op.sent : op.sent+pay]
	}
	op.sent += pay
	op.sentAll = op.sent >= op.total
	op.unacked++
	tf.ackReq = x.blockedOnAckOf(op, window, ackEvery)
	return tf, false
}

// number numbers op's frame at offset and holds it until acknowledged.
func (x *arqTx) number(fl *freelists, op *txOp, offset uint32) *txFrame {
	tf := fl.frames.Get()
	*tf = txFrame{op: op, seq: x.sndNxt, offset: offset}
	x.sndNxt++
	x.retrans.put(tf.seq, tf)
	return tf
}

// blockedOnAckOf reports whether the sender cannot move until the frame
// it has just numbered, op's newest, is acknowledged in a way the
// receiver's delayed-ACK policy (§2.4) cannot see; such a frame carries
// frame.Header.AckReq. Either it closes the effective window while more
// is queued and the flight is shorter than ackEvery, so the receiver's
// frame threshold never fires and each window would cost an AckDelay (a
// congestion window in slow start or after a cut, or Window below
// AckEvery; ackEvery is the local value, as a cluster shares one
// Config); or it is the last frame of a forward-fenced op, whose ACK
// every later op waits for, unless a Solicit already asks for that one
// ACK (a coalesced container carries only the fence, so the bit may
// ride beside a Solicit sub-op). At the paper's defaults (Window 128,
// AckEvery 32, no congestion window, no bare forward fences in any
// pinned run) neither holds and the protocol on the wire is the paper's.
func (x *arqTx) blockedOnAckOf(op *txOp, window, ackEvery int) bool {
	if op.sentAll && op.Flags&(frame.FenceAfter|frame.Solicit) == frame.FenceAfter {
		return true
	}
	fl := x.inflight()
	return fl >= window && fl < ackEvery && (!op.sentAll || len(x.txOps) > 1)
}

// dataHeader is data frame tf's header on conn connID, ack piggy-backed.
func dataHeader(tf *txFrame, connID, ack uint32) frame.Header {
	op := tf.op
	typ := frame.TypeData
	switch {
	case op.Kind == frame.OpRead:
		typ = frame.TypeReadReq
	case len(op.subs) > 0:
		typ = frame.TypeMultiData
	}
	return frame.Header{
		Type: typ, ConnID: connID,
		Seq: tf.seq, Ack: ack, HasAck: true, AckReq: tf.ackReq,
		OpID: op.id, OpType: op.Kind, OpFlags: op.Flags,
		Remote: op.Remote, Local: op.Local,
		Offset: tf.offset, Total: op.total,
	}
}

// queueRepairs queues each of seqs still outstanding and not queued, and
// returns those: the tail of retransQ, valid until the queue changes.
func (x *arqTx) queueRepairs(seqs ...uint32) []uint32 {
	n := len(x.retransQ)
	for _, s := range seqs {
		if tf, ok := x.retrans.get(s); ok && !tf.inQ {
			tf.inQ = true
			x.retransQ = append(x.retransQ, s)
		}
	}
	return x.retransQ[n:]
}

// expire counts one RTO expiry at now and reports whether it ends the
// conn: over MaxRetries in a row, or DeadInterval without ack progress.
func (x *arqTx) expire(now sim.Time, cfg *Config) (dead bool) {
	x.expiries++
	return (cfg.MaxRetries > 0 && x.expiries > cfg.MaxRetries) ||
		(cfg.DeadInterval > 0 && now-x.lastProgress >= cfg.DeadInterval)
}

// rtoRepairs queues and returns (see queueRepairs) an expiry's repairs.
// The paper's rule resends the last frame sent, and the receiver then
// NACKs anything else missing; go-back-N resends the whole window.
func (x *arqTx) rtoRepairs(goBackN bool) []uint32 {
	n, last := len(x.retransQ), x.sndNxt-1
	if _, ok := x.retrans.get(last); !ok {
		last = x.sndUna
	}
	for s := x.sndUna; s != x.sndNxt; s++ {
		if goBackN || s == last {
			x.queueRepairs(s)
		}
	}
	return x.retransQ[n:]
}

// ack applies cumulative acknowledgement ack at now. Each frame it
// releases goes to released, oldest first (done: its op's last, whose
// forward fence lifted), then back to fl, zeroed: it would otherwise
// pin its op, handle and payload snapshot for as long as it waits. It
// returns the window's advance, -1 if stale, and the Karn round-trip
// sample of the newest released frame never retransmitted, -1 if none.
func (x *arqTx) ack(ack uint32, now sim.Time, fl *freelists, released func(tf *txFrame, done bool)) (advanced int, rtt sim.Time) {
	if int32(ack-x.sndUna) <= 0 {
		return -1, -1 // stale
	}
	if int32(ack-x.sndNxt) > 0 {
		ack = x.sndNxt // defensive: never ack beyond what was sent
	}
	rtt = -1
	for s := x.sndUna; s != ack; s++ {
		tf, ok := x.retrans.get(s)
		if !ok {
			continue
		}
		x.retrans.del(s)
		op := tf.op
		x.bytesAcked += uint64(len(tf.payload))
		op.unacked--
		if op.h != nil && op.Kind == frame.OpWrite {
			op.h.acked += uint32(len(tf.payload))
		}
		if !tf.retx && (rtt < 0 || now-tf.txAt < rtt) {
			rtt = now - tf.txAt
		}
		done := op.sentAll && op.unacked == 0
		if done && op.Flags&frame.FenceAfter != 0 {
			x.txFenced.remove(op.id) // stalled operations may proceed now
		}
		released(tf, done)
		*tf = txFrame{}
		fl.frames.Put(tf)
	}
	advanced = int(ack - x.sndUna)
	x.sndUna = ack
	x.expiries = 0
	x.lastProgress = now
	return advanced, rtt
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

// backoff is base doubled n times, capped at limit: the one capped
// doubling behind the adaptive RTO, the redial delay and the acceptor's
// reconnect wait.
func backoff(base, limit sim.Time, n int) sim.Time {
	for ; n > 0 && base < limit; n-- {
		base *= 2
	}
	return min(base, limit)
}

// dropWindow recycles every frame record in the window onto fl and
// empties the queues, once a teardown or a rebirth took what it needs.
func (x *arqTx) dropWindow(fl *freelists) {
	for s := x.sndUna; s != x.sndNxt; s++ {
		if tf, ok := x.retrans.get(s); ok {
			*tf = txFrame{}
			fl.frames.Put(tf)
		}
	}
	x.retrans.clear()
	x.retransQ, x.txOps, x.txFenced = nil, nil, nil
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
	return c.inflight() < c.effWindow(&c.ep.cfg) && c.curOp(&c.ep.free) != nil
}

// sendNextDataFrame emits one data frame: a queued retransmission first,
// otherwise the next fragment of the current operation. It returns the
// payload bytes handed to the wire (0 when the work evaporated), which
// the QoS scheduler charges against the served class.
func (c *Conn) sendNextDataFrame() int {
	cfg := &c.ep.cfg
	if len(c.retransQ) > 0 && !c.ccRetxOK(cfg) {
		// Over the round trip's repair budget: emit nothing. sendable()
		// agrees, so the conn parks until an ack or RTO re-opens it.
		c.ep.Stats.CcRetxDeferred++
		return 0
	}
	pay := frame.MaxPayload
	if cfg.ByteStripe && c.links > 1 {
		pay /= c.links // the byte-striping baseline: an even slice per link
	}
	tf, repair := c.next(&c.ep.free, true, c.effWindow(cfg), pay, cfg.AckEvery)
	if tf == nil {
		return 0 // conditions changed since sendable()
	}
	if !repair {
		if tf.ackReq {
			c.ep.Stats.AckReqSent++
		}
		c.ep.Stats.DataFramesSent++
		c.ep.Stats.DataBytesSent += uint64(len(tf.payload))
	}
	c.transmit(tf, repair)
	if repair && len(c.retransQ) > 0 && !c.ccRetxOK(cfg) {
		// That was the round trip's last repair slot: the rest waits for
		// ack progress or the next RTO (sendable() parks the conn, so the
		// branch above never sees this deferral).
		c.ep.Stats.CcRetxDeferred++
	}
	return len(tf.payload)
}

// transmit encodes and hands one frame to the next link in round-robin
// order (IPPS'07 §2.5), with the current cumulative acknowledgement
// piggy-backed.
func (c *Conn) transmit(tf *txFrame, isRetrans bool) {
	op := tf.op
	h := dataHeader(tf, c.remoteID, c.rcvNxt)
	if isRetrans {
		tf.retx = true
		c.ep.Stats.Retransmissions++
		if c.ep.cfg.ccOn() {
			c.ccRetxSent++
		}
	} else if c.inflight() == 1 {
		// Sole outstanding frame, a fresh burst after an idle gap: progress
		// tracking (DeadInterval) anchors here, not at the last burst's ACK.
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
			// The op's first frame, first sent: the protocol CPU dequeued the
			// op, after initiation, send-queue and CPU contention time.
			c.ep.emit(c.localID, obs.EvProtoDequeue, int64(tf.seq), 0, spanOf{op: op, link: -1})
		}
	}
	c.ep.emit(c.localID, k, int64(tf.seq), int64(len(tf.payload)), spanOf{op: op, link: tf.link})
	// Only user traffic keeps probing alive: an idle conn with a dead link
	// would otherwise loop probe → loss → RTO repair → probe forever.
	if c.deadLinks > 0 && !tf.op.probe {
		c.armProbeTimer()
	}
	c.armRTO()
}

// noteRepairs reports repairs just queued for cause (NACK or RTO) and
// charges each to its frame's last link, feeding dead-link detection.
func (c *Conn) noteRepairs(seqs []uint32, cause obs.Kind) {
	for _, s := range seqs {
		tf, _ := c.retrans.get(s)
		c.ep.emit(c.localID, cause, int64(s), int64(len(tf.payload)), spanOf{op: tf.op, link: tf.link})
		c.noteLinkRepair(tf.link)
	}
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
			d = max(rem, 0)
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
	dead := c.expire(now, cfg)
	if c.expiries > c.ep.Stats.RtoBackoffMax {
		c.ep.Stats.RtoBackoffMax = c.expiries
	}
	if c.ep.backoffHist != nil {
		c.ep.backoffHist.Observe(float64(c.expiries))
	}
	c.ep.emit(c.localID, obs.EvRtoExpiry, int64(c.expiries), int64(c.inflight()))
	if dead {
		c.peerLost(fmt.Errorf("core: connection to node %d: no ack progress after %d timeouts over %v: %w",
			c.remoteNode, c.expiries, now-c.lastProgress, ErrPeerDead), true)
		return
	}
	// Loss is a congestion signal: halve the window (once per flight) and
	// re-open the repair budget; expiry paces a blocked recovery forward.
	c.ccOnRto()
	c.noteRepairs(c.rtoRepairs(cfg.GoBackN), obs.EvRtoRepair)
	c.armRTO()
	c.kick()
}

// handleAck processes a cumulative acknowledgement, piggy-backed or
// explicit (arqTx.ack), around the events, stats and timers it moves.
func (c *Conn) handleAck(ack uint32) {
	now := c.ep.env.Now()
	n, rtt := c.ack(ack, now, &c.ep.free, c.ackedFrame)
	if n < 0 {
		return
	}
	if c.ep.cfg.ccOn() {
		c.ccOnAck(n, c.ep.cfg.Window)
	}
	if rtt >= 0 {
		if c.rtt.sample(rtt) { // kept for statistics; armed only if RTOMax > 0
			c.ep.Stats.RttSamples++
			if c.ep.rtoHist != nil {
				c.ep.rtoHist.Observe(float64(c.rtt.rto(&c.ep.cfg)) / 1000)
			}
		}
		c.updateRailRTT(now)
	}
	if c.inflight() > 0 {
		c.armRTO()
	} else {
		c.rtoTimer.Stop()
	}
	c.kick() // the window may have opened
}

// ackedFrame is handleAck's glue for one released frame: its event, its
// rail's health, sample and charge, and its op's end when done.
func (c *Conn) ackedFrame(tf *txFrame, done bool) {
	c.ep.emit(c.localID, obs.EvAck, int64(tf.seq), int64(len(tf.payload)), spanOf{op: tf.op, link: tf.link})
	c.clearLinkFault(tf.link, tf.txAt)
	if !tf.retx && !c.railProbing() && tf.link >= 0 && tf.link < c.links {
		if r := &c.rails[tf.link]; !r.have || tf.txAt > r.newest {
			r.newest, r.have = tf.txAt, true
		}
	}
	if c.ep.cfg.ccOn() {
		c.railDec(tf.link)
	}
	if done {
		c.endTxOp(tf.op, nil)
	}
}

// endTxOp ends a send-side operation once: err is nil when its every
// frame is acknowledged, else the cause that ends it early. It fans a
// batch out to its sub-ops, ends the span (a read reply's ends when the
// reply lands) and delivers the outcome, except a read's: its request
// is acknowledged, and its outcome waits for the reply. The record may
// go back to the freelists on the way out.
func (c *Conn) endTxOp(t *txOp, err error) {
	if t.completed {
		return
	}
	// Retire it: release the snapshot buffer and the QoS admission charge.
	t.completed = true
	ep := c.ep
	defer ep.free.recycle(t)
	ep.releaseSnapshot(t.data)
	t.data = nil
	c.qosRelease(t)
	if t.probe {
		return // internal probe: no user-visible completion
	}
	if err == nil && t.Flags&frame.FenceAfter != 0 {
		c.kick() // its fence lifted (arqTx.ack): stalled operations may proceed now
	}
	now := ep.env.Now()
	if len(t.subs) > 0 {
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
		if t.Kind == frame.OpRead {
			// The request is fully acknowledged but nothing is in flight any
			// more: the RTO machinery is quiet while we wait for the reply, so
			// a daemon guard keeps DeadInterval protection over the wait.
			c.armReadGuard()
			return
		}
	}
	if t.Kind != frame.OpReadReply {
		t.span.EndAt(now)
	}
	if t.owed() && err != nil {
		ep.Stats.OpsFailed++
	}
	c.finish(t, err)
}

// finish delivers op t's outcome once, err nil on completion: a read
// leaves pendingReads, the deadline timer stops, and the handle's waiter
// wakes or the completion lands on the CQ. t drops both, so the handle
// is the caller's alone.
func (c *Conn) finish(t *txOp, err error) {
	if t.Kind == frame.OpRead {
		delete(c.pendingReads, t.id)
		if len(c.pendingReads) == 0 {
			// No replies outstanding: cancel the liveness guard so its
			// (daemon) tick does not advance a drained simulation's clock
			// under RunUntil.
			c.readGuard.Stop()
		}
	}
	t.dl.Stop() // nil-safe
	t.dl = nil
	ep := c.ep
	if h := t.h; h != nil {
		t.h = nil
		h.err = err
		// Waking the user process costs CPU only if someone is blocked on
		// the handle; a poll-later handle just flips state.
		if h.done.HasWaiters() {
			ep.cpus.Proto.SubmitArg(ep.env, ep.costs.UserWake, ep.fireSigFn, &h.done)
		} else {
			h.done.Fire(ep.env)
		}
	}
	if t.cq {
		t.cq = false
		c.pushCompletion(Completion{OpID: t.id, Op: t.Op, Err: err})
	}
}

// expireOp fires when op t's Op.Deadline passes first. Only the waiter is
// released: cancelling a partly sent op would leave a hole in the
// receiver's sequence and fence frontier, so the transfer runs on.
func (c *Conn) expireOp(t *txOp) {
	if !t.owed() || c.state == ended {
		return // completed (or the conn ended) in the meantime
	}
	ep := c.ep
	ep.Stats.OpDeadlinesExpired++
	ep.Stats.OpsFailed++
	c.finish(t, fmt.Errorf("core: op %d to node %d: %w", t.id, c.remoteNode, ErrDeadlineExceeded))
	c.ep.free.recycle(t)
}
