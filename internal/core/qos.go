package core

import (
	"fmt"
	"strconv"

	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// The connection scheduler (Config.SchedQueue) and multi-tenant quality
// of service (Config.QoS). The endpoint keeps one control and one data
// service queue PER CLASS, and the protocol thread picks the next
// connection by deficit-weighted fair queueing: each visit grants a
// class Weight × qosQuantum bytes of deficit, every transmitted frame is
// charged against it, and the cursor only advances once the deficit is
// spent — so when every class is backlogged, class i holds
// Weight_i/ΣWeight of the transmit slots regardless of how many
// connections (or how large the operations) a tenant throws at the
// endpoint. With Config.QoS empty the scheduler serves one implicit
// weight-1 class, and DWFQ over a single class is FIFO round-robin over
// its connections: there is no second, flat scheduler. The implicit
// class is invisible — no admission, no Stats.Qos* counter, no qos_*
// series.
//
// Two admission-side mechanisms bound what a tenant can occupy before
// scheduling even starts. A token bucket (RateBps/Burst) paces the
// class's data-path transmissions — control frames are never throttled;
// an empty bucket parks the class and a refill timer wakes the thread
// when the next frame's worth of tokens has accrued. Submission quotas
// (MaxQueued/MaxQueuedBytes) cap the class's admitted-but-uncompleted
// operations and payload bytes — the kernel-buffer/journal memory it
// pins — with explicit backpressure: fail-fast submissions (Post)
// return ErrThrottled, blocking submissions (Do) wait for room honoring
// Op.Deadline.

// qosQuantum is the deficit granted per unit of class weight per
// scheduler visit, sized to one full-MTU frame so a weight-1 class gets
// at least one large frame per round.
const qosQuantum = 1500

// qosMinCharge floors the deficit charge per transmit slot so runs of
// tiny (or evaporated) frames cannot hold the cursor forever.
const qosMinCharge = 64

// qosNICQueueBound is the wire-pacing depth: while every NIC already
// has this many frames queued for transmit, the scheduler holds further
// data frames in the class queues. An unbounded NIC FIFO would decide
// service order itself — first-come, first-serialized — and the class
// weights would only ever shape the order frames *enter* it.
const qosNICQueueBound = 2

// qosClass is the endpoint's live state for one traffic class.
type qosClass struct {
	ctrlQ sim.Mailbox[*Conn] // conns with pending explicit ACK/NACK work
	sendQ sim.Mailbox[*Conn] // conns with transmittable data work

	weight int   // QoSClass.Weight (1 for the implicit class)
	rate   int64 // QoSClass.RateBps (0 = unlimited)

	deficit    int64 // DWFQ byte deficit (data path)
	ctrlBudget int   // weighted-round-robin ctrl frames left this visit

	// Token bucket (cfg.RateBps > 0). tokens may go negative: a frame
	// is admitted whenever tokens > 0 and charged its full size, so an
	// oversized frame simply delays the class longer.
	tokens     int64
	burst      int64
	lastRefill sim.Time
	refill     *sim.Timer // wake for when the bucket next goes positive

	// Submission quotas: admitted (issued or posted) but uncompleted.
	pendingOps   int
	pendingBytes int

	// Per-class counters, published by the qos collector at gather time.
	admitted   uint64
	throttled  uint64
	waits      uint64
	deferrals  uint64
	framesSent uint64
	bytesSent  uint64
}

// qosOn reports whether QoS is configured at this endpoint: admission
// quotas, class tags, Stats.Qos* and the qos_* series apply. The class
// scheduler itself (ep.qos) exists whenever Config.SchedQueue is set.
func (ep *Endpoint) qosOn() bool { return len(ep.cfg.QoS) > 0 }

// initQoS builds the per-class scheduler state from Config.QoS, or one
// implicit weight-1 class when no class is configured. The implicit
// class lives only here, never in cfg.QoS, so qosOn stays false.
func (ep *Endpoint) initQoS() {
	ep.qosWakeFn = ep.wakeThread
	if len(ep.cfg.QoS) == 0 {
		ep.qos = []qosClass{{weight: 1}}
		return
	}
	ep.qos = make([]qosClass, len(ep.cfg.QoS))
	for i := range ep.cfg.QoS {
		cc := &ep.cfg.QoS[i]
		q := &ep.qos[i]
		q.weight, q.rate = cc.Weight, cc.RateBps
		if cc.RateBps > 0 {
			q.burst = int64(cc.Burst)
			if q.burst <= 0 {
				q.burst = 64 << 10
			}
			q.tokens = q.burst // buckets start full
		}
	}
}

// classIdx is the conn's effective class, clamped into the configured
// table (a conn tagged before the endpoint's table shrank falls back to
// the default class instead of indexing out of bounds).
func (c *Conn) classIdx() int {
	if c.class < 0 || c.class >= len(c.ep.qos) {
		return 0
	}
	return c.class
}

// opClass is the effective class of one operation: the op's own tag
// when set, else the connection's.
func (c *Conn) opClass(op Op) int {
	if op.Class > 0 && op.Class < len(c.ep.qos) {
		return op.Class
	}
	return c.classIdx()
}

// SetClass tags the connection with a traffic class for QoS scheduling
// and admission (0 is the default class). Tag a connection right after
// Dial/Accept, before issuing traffic: the class of already-queued work
// is not migrated. With QoS off the tag is stored but has no effect.
// Panics on a negative or (with QoS on) out-of-range class, mirroring
// the loud validation of cluster.Config.Validate.
func (c *Conn) SetClass(cls int) {
	if cls < 0 || (c.ep.qosOn() && cls >= len(c.ep.qos)) {
		panic("core: SetClass: class index out of configured QoS range")
	}
	c.class = cls
}

// Class returns the connection's traffic class tag.
func (c *Conn) Class() int { return c.class }

// ---------------------------------------------------------------------
// Submission quotas (admission control).
// ---------------------------------------------------------------------

// qosHasRoom reports whether class cls can admit one more operation of
// size bytes. An empty class always admits, so a single operation
// larger than MaxQueuedBytes is not wedged forever — the byte quota is
// soft by at most one operation.
func (ep *Endpoint) qosHasRoom(cls, size int) bool {
	q := &ep.qos[cls]
	cfg := &ep.cfg.QoS[cls]
	if q.pendingOps == 0 {
		return true
	}
	if cfg.MaxQueued > 0 && q.pendingOps >= cfg.MaxQueued {
		return false
	}
	if cfg.MaxQueuedBytes > 0 && q.pendingBytes+size > cfg.MaxQueuedBytes {
		return false
	}
	return true
}

// qosCharge admits one operation into class cls's quota.
func (ep *Endpoint) qosCharge(cls, size int) {
	q := &ep.qos[cls]
	q.pendingOps++
	q.pendingBytes += size
	q.admitted++
	ep.Stats.QosOpsAdmitted++
}

// qosUncharge releases quota held by an admitted operation (completion,
// failure, or a posted descriptor dying unrung). Clamped at zero so an
// accounting mismatch can never wedge admission shut.
func (ep *Endpoint) qosUncharge(cls, n, size int) {
	q := &ep.qos[cls]
	q.pendingOps -= n
	q.pendingBytes -= size
	if q.pendingOps < 0 {
		q.pendingOps = 0
	}
	if q.pendingBytes < 0 {
		q.pendingBytes = 0
	}
}

// qosRelease returns a txOp's admission charge to its class. Exactly
// once per txOp: the one end-of-op path (endTxOp) flips completed
// first and the charge is zeroed here.
func (c *Conn) qosRelease(t *txOp) {
	if t.qosOps == 0 {
		return
	}
	c.ep.qosUncharge(t.qosCls, t.qosOps, t.qosBytes)
	t.qosOps = 0
	t.qosBytes = 0
}

// qosAdmitFast is the fail-fast admission check (Post): over quota
// returns ErrThrottled immediately, otherwise the charge is taken.
func (c *Conn) qosAdmitFast(op Op) (int, bool) {
	ep := c.ep
	cls := c.opClass(op)
	if !ep.qosHasRoom(cls, op.Size) {
		ep.qos[cls].throttled++
		ep.Stats.QosOpsThrottled++
		ep.emit(c.localID, obs.EvThrottled, int64(cls), 0)
		return cls, false
	}
	ep.qosCharge(cls, op.Size)
	return cls, true
}

// qosAdmitDo is the blocking admission path (Do/DoOn): the caller waits
// (admitWait) until its class has room, the connection dies, or
// Op.Deadline passes — overload backpressure instead of unbounded
// queueing.
func (c *Conn) qosAdmitDo(p *sim.Proc, op Op) error {
	ep := c.ep
	cls := c.opClass(op)
	room := func() bool { return ep.qosHasRoom(cls, op.Size) }
	if !room() {
		ep.qos[cls].waits++
		ep.Stats.QosAdmissionWaits++
		ep.emit(c.localID, obs.EvThrottled, int64(cls), 1)
		err := c.admitWait(p, op, room, func() error {
			return fmt.Errorf("core: class %d admission to node %d: %w", cls, c.remoteNode, ErrDeadlineExceeded)
		})
		if err != nil {
			return err
		}
	}
	ep.qosCharge(cls, op.Size)
	return nil
}

// ---------------------------------------------------------------------
// Token buckets (rate limits).
// ---------------------------------------------------------------------

// qosRefill lazily credits class cls's bucket for the time elapsed
// since the last refill. lastRefill only advances by the time whole
// tokens account for, so truncation never leaks rate; a full bucket
// resets the anchor so idle time cannot bank extra burst.
func (ep *Endpoint) qosRefill(cls int) {
	q := &ep.qos[cls]
	rate := q.rate
	if rate <= 0 {
		return
	}
	now := ep.env.Now()
	delta := int64(now - q.lastRefill)
	if delta <= 0 {
		return
	}
	if delta > int64(sim.Second) {
		delta = int64(sim.Second) // bucket is capped anyway; avoid overflow
		q.lastRefill = now - sim.Second
	}
	add := delta * rate / int64(sim.Second)
	q.tokens += add
	if q.tokens >= q.burst {
		q.tokens = q.burst
		q.lastRefill = now
		return
	}
	q.lastRefill += sim.Time(add * int64(sim.Second) / rate)
}

// qosRateOK reports whether class cls may transmit a data frame now,
// arming a thread wakeup for when the bucket next goes positive if not.
// The refill timer is a plain (non-daemon) event: a rate-parked class
// still has work, so the simulation must not drain under it. One handle
// per class is re-armed for the endpoint's lifetime.
func (ep *Endpoint) qosRateOK(cls int) bool {
	q := &ep.qos[cls]
	rate := q.rate
	if rate <= 0 {
		return true
	}
	ep.qosRefill(cls)
	if q.tokens > 0 {
		return true
	}
	q.deferrals++
	ep.Stats.QosRateDeferrals++
	if !q.refill.Pending() {
		need := 1 - q.tokens
		d := sim.Time((need*int64(sim.Second) + rate - 1) / rate)
		ep.emit(0, obs.EvRateDefer, int64(cls), int64(d))
		q.refill = ep.env.Rearm(q.refill, d, ep.qosWakeFn)
	}
	return false
}

// ---------------------------------------------------------------------
// Scheduler (DWFQ pops).
// ---------------------------------------------------------------------

// qosPopCtrl picks the next connection with pending control work under
// weighted round-robin across classes: each visit lets a class send up
// to Weight control frames before the cursor moves on. Control frames
// are fixed-size, so frame-denominated deficits are exact, and no token
// bucket applies — acknowledgements repair the window that unblocks
// everyone else.
func (ep *Endpoint) qosPopCtrl() *Conn {
	n := len(ep.qos)
	for visited := 0; visited < n; visited++ {
		q := &ep.qos[ep.qosCtrlCur]
		if q.ctrlQ.Len() == 0 {
			q.ctrlBudget = 0
			ep.qosCtrlCur = (ep.qosCtrlCur + 1) % n
			continue
		}
		if q.ctrlBudget <= 0 {
			q.ctrlBudget = q.weight
		}
		for q.ctrlBudget > 0 {
			c, ok := q.ctrlQ.TryRecv()
			if !ok {
				break
			}
			c.inCtrlQ = false
			if c.ctrlPending() {
				q.ctrlBudget--
				if q.ctrlBudget == 0 {
					ep.qosCtrlCur = (ep.qosCtrlCur + 1) % n
				}
				return c
			}
		}
		q.ctrlBudget = 0
		ep.qosCtrlCur = (ep.qosCtrlCur + 1) % n
	}
	return nil
}

// qosPopSend picks the next connection with transmittable data work by
// deficit-weighted fair queueing: the cursor parks on a class while it
// has deficit and work, empty or rate-parked classes are skipped (their
// deficit resets so idle classes cannot bank service), and each visit
// of a backlogged class grants Weight × qosQuantum fresh deficit. The
// class actually served is recorded in qosServing for the post-send
// charge.
func (ep *Endpoint) qosPopSend() *Conn {
	n := len(ep.qos)
	for visited := 0; visited < n; visited++ {
		cls := ep.qosSendCur
		q := &ep.qos[cls]
		if q.sendQ.Len() == 0 {
			q.deficit = 0
			ep.qosSendCur = (ep.qosSendCur + 1) % n
			continue
		}
		if !ep.qosRateOK(cls) {
			q.deficit = 0
			ep.qosSendCur = (ep.qosSendCur + 1) % n
			continue
		}
		if q.deficit <= 0 {
			q.deficit += int64(q.weight) * qosQuantum
		}
		for {
			c, ok := q.sendQ.TryRecv()
			if !ok {
				break
			}
			c.inSendQ = false
			if c.sendable() {
				ep.qosServing = cls
				return c
			}
		}
		q.deficit = 0
		ep.qosSendCur = (ep.qosSendCur + 1) % n
	}
	return nil
}

// qosChargeSend debits the served class for one transmitted data frame:
// n payload bytes against the deficit (floored at qosMinCharge so tiny
// frames still consume service) and against the token bucket. A spent
// deficit advances the cursor — the class's turn is over.
func (ep *Endpoint) qosChargeSend(cls, n int) {
	q := &ep.qos[cls]
	if ep.qosOn() {
		q.framesSent++
		q.bytesSent += uint64(n)
		ep.Stats.QosSchedFrames++
	}
	charge := int64(n)
	if charge < qosMinCharge {
		charge = qosMinCharge
	}
	q.deficit -= charge
	if q.rate > 0 {
		q.tokens -= int64(n)
	}
	if q.deficit <= 0 && ep.qosSendCur == cls {
		ep.qosSendCur = (ep.qosSendCur + 1) % len(ep.qos)
	}
}

// qosPaced reports whether data service should hold off for the wire:
// some class has data queued while every NIC's transmit queue is at or
// past the pacing bound, so a dispatched frame would sit behind backlog
// the scheduler no longer controls. Pacing keeps the class weights, not
// the NIC FIFO, in charge of frame order, which only means something
// with two or more classes; a single class is never paced.
func (ep *Endpoint) qosPaced() bool {
	if len(ep.qos) < 2 {
		return false
	}
	for _, n := range ep.nics {
		if n.OutPort().Queued() < qosNICQueueBound {
			return false
		}
	}
	for i := range ep.qos {
		if ep.qos[i].sendQ.Len() > 0 {
			return true
		}
	}
	return false
}

// qosArmPace schedules a wake for roughly when the head frame of the
// shallowest NIC queue clears the wire, re-entering threadStep to
// dispatch the next DWFQ pick. The timer is non-daemon — paced frames
// are real pending work and must keep the simulation alive — and one
// handle is re-armed, so at most one wake is outstanding per endpoint.
func (ep *Endpoint) qosArmPace() {
	if ep.qosPace.Pending() {
		return
	}
	var d sim.Time
	for _, n := range ep.nics {
		q := n.OutPort().Queued()
		if q == 0 {
			continue
		}
		per := n.OutPort().Backlog() / sim.Time(q)
		if d == 0 || per < d {
			d = per
		}
	}
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	ep.qosPace = ep.env.Rearm(ep.qosPace, d, ep.qosWakeFn)
}

// qosSchedDepth returns the number of queued scheduler entries, summed
// over the class queues: control and data.
func (ep *Endpoint) qosSchedDepth() (ctrl, send int) {
	for i := range ep.qos {
		ctrl += ep.qos[i].ctrlQ.Len()
		send += ep.qos[i].sendQ.Len()
	}
	return ctrl, send
}

// qosCollector publishes the per-class qos_* series at gather time with
// a tenant label: admission gauges (pending work, bucket level) and the
// throttle/deferral/service counters.
func (ep *Endpoint) qosCollector() obs.Collector {
	nl := obs.NodeLabel(ep.node)
	tenants := make([]obs.Label, len(ep.qos))
	for i := range tenants {
		tenants[i] = obs.Label{Key: "tenant", Value: strconv.Itoa(i)}
	}
	return func(emit func(obs.Sample)) {
		for i := range ep.qos {
			q := &ep.qos[i]
			ls := []obs.Label{nl, tenants[i]}
			g := func(name string, v float64) {
				emit(obs.Sample{Name: name, Labels: ls, Value: v, Type: obs.TypeGauge})
			}
			c := func(name string, v uint64) {
				emit(obs.Sample{Name: name, Labels: ls, Value: float64(v), Type: obs.TypeCounter})
			}
			g("qos_pending_ops", float64(q.pendingOps))
			g("qos_pending_bytes", float64(q.pendingBytes))
			if ep.cfg.QoS[i].RateBps > 0 {
				g("qos_tokens", float64(q.tokens))
			}
			c("qos_admitted_total", q.admitted)
			c("qos_throttled_total", q.throttled)
			c("qos_admission_waits_total", q.waits)
			c("qos_rate_deferrals_total", q.deferrals)
			c("qos_frames_sent_total", q.framesSent)
			c("qos_bytes_sent_total", q.bytesSent)
		}
	}
}
