package core

import (
	"errors"
	"fmt"

	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// Op describes one remote memory operation: the options-struct form of
// the paper's positional RDMA_operation arguments. The same struct is
// accepted by the eager issue path (Conn.Do) and the submission-queue
// path (Conn.Post + Conn.Ring), so the two surfaces compose.
type Op struct {
	// Remote is the destination virtual address in the peer's address
	// space (writes) or the source address to fetch from (reads).
	Remote uint64
	// Local is the source address of a write or the destination address
	// of a read in this endpoint's address space.
	Local uint64
	// Size is the transfer length in bytes. A zero-size write is legal
	// and useful as a pure notification.
	Size int
	// Kind is frame.OpWrite or frame.OpRead.
	Kind frame.OpType
	// Flags combines frame.FenceBefore, frame.FenceAfter, frame.Notify
	// and frame.Solicit.
	Flags frame.OpFlags
	// Deadline, when non-zero, is an absolute simulation time by which
	// the issuer must be released: if the operation has not completed by
	// then, its handle fires with ErrDeadlineExceeded (and an errored
	// completion record if it was rung through the submission queue).
	// The transmission itself is not cancelled — frames already on the
	// wire stay valid and the transfer may still land — only the caller
	// stops waiting. A deadline already in the past expires immediately.
	Deadline sim.Time
	// Class, when positive, overrides the connection's traffic class for
	// this operation's QoS admission (quota accounting under Config.QoS).
	// 0 inherits the connection's class (Conn.SetClass). Ignored when
	// QoS is off; with QoS on an out-of-range class fails checkOp with
	// ErrBadClass.
	Class int
}

// MaxOpSize bounds a single operation's transfer length (the protocol
// header carries a 32-bit total; staying far below the wrap keeps
// arithmetic safe).
const MaxOpSize = 1 << 30

// Errors returned by the Op issue paths (Do, DoOn, Post, Ring). Each is
// wrapped with context; test with errors.Is.
var (
	// ErrNotEstablished: the connection handshake has not completed.
	ErrNotEstablished = errors.New("connection not established")
	// ErrClosed: the connection has been torn down.
	ErrClosed = errors.New("connection closed")
	// ErrBadOpKind: Op.Kind is neither OpWrite nor OpRead.
	ErrBadOpKind = errors.New("op kind must be OpWrite or OpRead")
	// ErrBadSize: negative transfer size.
	ErrBadSize = errors.New("negative transfer size")
	// ErrOversized: transfer larger than MaxOpSize.
	ErrOversized = errors.New("transfer exceeds MaxOpSize")
	// ErrBadRange: the local buffer lies outside the endpoint's address
	// space, or the remote range outside the peer's (Config.MemBytes).
	ErrBadRange = errors.New("address range outside memory")
	// ErrUnregistered: Config.EnforceRegistration is on and the local
	// buffer is not inside a registered region.
	ErrUnregistered = errors.New("local buffer not registered")
	// ErrPeerDead: the peer stopped responding (retry budget or
	// DeadInterval exhausted, or a Reset frame arrived) and the
	// connection transitioned to Failed. Every queued and in-flight
	// operation completes with this error; the connection is unusable
	// and a fresh Dial/Accept pair is required to talk to the peer again.
	ErrPeerDead = errors.New("peer dead")
	// ErrDeadlineExceeded: Op.Deadline passed before the operation
	// completed; the waiter was released but the transfer itself was not
	// cancelled.
	ErrDeadlineExceeded = errors.New("op deadline exceeded")
	// ErrThrottled: the operation's QoS class is over its submission
	// quota (Config.QoS MaxQueued/MaxQueuedBytes) and the fail-fast
	// path (Post) refused it. Back off and retry, or use the blocking
	// path (Do), which waits for room instead.
	ErrThrottled = errors.New("tenant class over quota")
	// ErrBadClass: Op.Class is negative or outside the configured
	// Config.QoS table.
	ErrBadClass = errors.New("op class outside configured QoS classes")
)

// checkOp validates an operation against the connection and endpoint
// state. It has no side effects; the checks (and their order) mirror the
// panics of the legacy RDMAOperation path.
func (c *Conn) checkOp(op Op) error {
	if c.state == dialing {
		return fmt.Errorf("core: operation on unestablished connection to node %d: %w", c.remoteNode, ErrNotEstablished)
	}
	if err := c.endedErr(); err != nil {
		return err
	}
	// Zero-size buffers need no registration; a negative size fails below.
	if c.ep.cfg.EnforceRegistration && op.Size > 0 && regionOf(c.ep.regions, op.Local, op.Size) == nil {
		return fmt.Errorf("core: local buffer [%d,%d): %w", op.Local, op.Local+uint64(op.Size), ErrUnregistered)
	}
	if op.Size < 0 {
		return fmt.Errorf("core: size %d: %w", op.Size, ErrBadSize)
	}
	if op.Size > MaxOpSize {
		return fmt.Errorf("core: size %d > %d: %w", op.Size, MaxOpSize, ErrOversized)
	}
	var local, remote string
	switch op.Kind {
	case frame.OpWrite:
		local, remote = "write source", "write destination"
	case frame.OpRead:
		local, remote = "read destination", "read source"
	default:
		return fmt.Errorf("core: kind %v: %w", op.Kind, ErrBadOpKind)
	}
	if mem := uint64(len(c.ep.mem)); !within(op.Local, op.Size, mem) {
		return fmt.Errorf("core: %s [%d,+%d) outside the %d-byte memory: %w",
			local, op.Local, op.Size, mem, ErrBadRange)
	}
	// Every endpoint of a cluster runs the same Config, so MemBytes is the
	// peer's address space too.
	if mem := uint64(c.ep.cfg.MemBytes); !within(op.Remote, op.Size, mem) {
		return fmt.Errorf("core: %s [%d,+%d) outside the peer's %d-byte memory: %w",
			remote, op.Remote, op.Size, mem, ErrBadRange)
	}
	if op.Class != 0 && c.ep.qosOn() {
		if op.Class < 0 || op.Class >= len(c.ep.qos) {
			return fmt.Errorf("core: class %d with %d configured: %w", op.Class, len(c.ep.qos), ErrBadClass)
		}
	}
	return nil
}

// endedErr is why no operation may start on a closing or ended conn,
// and nil before.
func (c *Conn) endedErr() error {
	switch {
	case c.Failed():
		return fmt.Errorf("core: operation on failed connection to node %d: %w", c.remoteNode, c.endErr)
	case c.Closed():
		return fmt.Errorf("core: operation on closed connection to node %d: %w", c.remoteNode, ErrClosed)
	}
	return nil
}

// within reports whether [addr, addr+size) lies inside [0, limit). It
// compares without forming addr+size, which wraps for addresses near
// the top of the 64-bit space; size must not be negative.
func within(addr uint64, size int, limit uint64) bool {
	return addr <= limit && uint64(size) <= limit-addr
}

// Do initiates op eagerly on the connection and returns its progress
// handle, charging the full per-operation issue cost (syscall,
// descriptor, user→kernel copy for writes) to the calling process on the
// application CPU. It is the options-struct successor of RDMAOperation
// and returns an error — ErrNotEstablished, ErrClosed, ErrBadRange,
// ErrOversized, ... — instead of panicking on invalid use. A caller
// that only waits for the error has Run, which allocates nothing; many
// small operations to one peer are cheaper through Post + Ring.
func (c *Conn) Do(p *sim.Proc, op Op) (*Handle, error) {
	return c.DoOn(p, c.ep.cpus.App, op)
}

// DoOn is Do with an explicit CPU to charge the initiation to.
// User-level callers run in syscall context on the application CPU (use
// Do); handler-style callers — e.g. a DSM protocol handler servicing
// remote requests — run on the protocol CPU, like the kernel thread
// they model.
func (c *Conn) DoOn(p *sim.Proc, cpu *sim.Resource, op Op) (*Handle, error) {
	data, err := c.initiate(p, cpu, op)
	if err != nil {
		return nil, err
	}
	h := new(Handle)
	c.enqueueOp(op, data, h)
	return h, nil
}

// Run is Do, Wait and Handle.Err: the same CPU charge and frames, and no
// allocation. Its handle is pooled: once the outcome is delivered no
// send record points at it (Conn.finish), so it goes back at once.
func (c *Conn) Run(p *sim.Proc, op Op) error {
	data, err := c.initiate(p, c.ep.cpus.App, op)
	if err != nil {
		return err
	}
	h := c.ep.free.handles.Get()
	c.enqueueOp(op, data, h)
	h.Wait(p)
	err = h.err
	if *h = (Handle{}); frame.Poisoning() {
		h.opID = poisonOp.id
	}
	c.ep.free.handles.Put(h)
	return err
}

// initiate validates op, passes the admission gates and charges the
// eager issue cost to cpu, and returns the write payload's snapshot.
func (c *Conn) initiate(p *sim.Proc, cpu *sim.Resource, op Op) ([]byte, error) {
	if err := c.checkOp(op); err != nil {
		return nil, err
	}
	ep := c.ep
	if ep.cfg.ccOn() {
		// Window backpressure: a spent congestion window with a full
		// backlog behind it blocks the issuer here, honoring Op.Deadline.
		// This gate runs before the quota gate because it takes no charge
		// — an error below cannot leak an admission already granted.
		if err := c.ccAdmitDo(p, op); err != nil {
			return nil, err
		}
	}
	if ep.qosOn() {
		// Blocking admission: over-quota issuers wait here for room —
		// graceful backpressure — honoring Op.Deadline. The charge taken
		// rides the txOp (enqueueOp) and is released on completion.
		if err := c.qosAdmitDo(p, op); err != nil {
			return nil, err
		}
	}
	// Snapshot the write payload; the txOp owns the buffer until
	// completion or failure releases it.
	var data []byte
	if op.Kind == frame.OpWrite {
		data = ep.snapshot(op.Local, op.Size)
	}
	copyBytes := 0
	if op.Kind == frame.OpWrite && !ep.cfg.Offload {
		// Offloading NICs gather payload straight from user memory, so
		// only the host path pays the user->kernel copy.
		copyBytes = op.Size
	}
	cost := ep.costs.Initiation(copyBytes)
	if cpu == ep.cpus.App {
		ep.Stats.AppProtoTime += cost
	}
	p.Exec(cpu, cost)
	return data, nil
}

// admitPoll is the blocking-admission polling interval: a Do caller a
// gate holds back re-checks at this cadence (the same deterministic
// sleep-poll pattern Conn.Close uses to drain).
const admitPoll = 20 * sim.Microsecond

// admitWait is the blocking wait of both Do admission gates, the QoS
// quota (qosAdmitDo) and the congestion backlog (ccAdmitDo): the caller
// sleeps in a deterministic poll loop until room holds, the connection
// leaves the live state, or Op.Deadline passes, which ends the wait
// with the gate's own error, late().
func (c *Conn) admitWait(p *sim.Proc, op Op, room func() bool, late func() error) error {
	for {
		p.Sleep(admitPoll)
		if err := c.endedErr(); err != nil {
			return err
		}
		if op.Deadline > 0 && c.ep.env.Now() >= op.Deadline {
			// The operation never started (no OpsStarted/OpsFailed): only
			// the deadline-release counter ticks, like any expired waiter.
			c.ep.Stats.OpDeadlinesExpired++
			return late()
		}
		if room() {
			return nil
		}
	}
}

// MustDo is Do for callers that guarantee the operation is valid; it
// panics on error, preserving the legacy RDMAOperation contract.
func (c *Conn) MustDo(p *sim.Proc, op Op) *Handle {
	return c.MustDoOn(p, c.ep.cpus.App, op)
}

// MustDoOn is DoOn with the MustDo panic-on-error contract.
func (c *Conn) MustDoOn(p *sim.Proc, cpu *sim.Resource, op Op) *Handle {
	h, err := c.DoOn(p, cpu, op)
	if err != nil {
		panic(err)
	}
	return h
}

// enqueueOp creates the send-side record for a validated, paid-for
// operation and hands it to the protocol thread. Its outcome goes to
// handle h, or to the completion queue when h is nil (Ring).
func (c *Conn) enqueueOp(op Op, data []byte, h *Handle) {
	ep := c.ep
	t := ep.free.ops.Get()
	*t = txOp{Op: op, id: c.nextOpID, data: data, total: uint32(op.Size), cq: h == nil, h: h, subs: t.subs}
	if h != nil {
		*h = Handle{opID: t.id, size: t.total}
	}
	c.nextOpID++
	if ep.qosOn() {
		// The admission charge (taken in DoOn or Post) transfers onto the
		// txOp, which releases it exactly once at completion or failure —
		// surviving reconnect replay, which re-queues these same objects.
		t.qosCls, t.qosOps, t.qosBytes = c.opClass(op), 1, op.Size
	}
	if ep.obs.SpansEnabled() {
		name := "write"
		switch {
		case op.Kind == frame.OpRead:
			name = "read"
		case op.Flags&frame.Notify != 0:
			name = "write-notify"
		}
		t.span = ep.obs.StartOpSpan(
			obs.SpanID{Node: ep.node, Conn: c.localID, Op: t.id}, "core", name, op.Size)
	}
	if op.Deadline > 0 {
		d := op.Deadline - ep.env.Now()
		if d < 0 {
			d = 0
		}
		t.dl = ep.env.After(d, func() { c.expireOp(t) })
	}
	ep.Stats.OpsStarted++
	c.issue(t)
}

// issue hands a new send-side op to the protocol thread: a read joins
// the pending replies, and the op the transmit queue (arqTx.enqueue).
// An op that arrives once the conn is closing or ended — its initiation
// straddled the exit: Do's Exec, Ring's doorbell — ends at once with
// the exit's cause instead.
func (c *Conn) issue(t *txOp) {
	if c.Closed() {
		c.endTxOp(t, c.endErr)
		return
	}
	if t.Kind == frame.OpRead {
		if c.pendingReads == nil {
			c.pendingReads = make(map[uint64]*txOp)
		}
		c.pendingReads[t.id] = t
	}
	c.enqueue(t)
	c.kick()
}

// ---------------------------------------------------------------------
// Submission queue, doorbell, completion queue.
//
// The eager path charges a full kernel crossing per operation. The SQ
// path splits issue in two: Post appends a descriptor to a user-mapped
// queue (cheap, no host-cost charge — the validation is a library-level
// check), and Ring pays ONE doorbell crossing for the whole batch. While
// walking the batch, runs of small writes are coalesced into shared
// MultiData frames (Config.CoalesceLimit), amortizing per-frame protocol
// and wire overhead as well. Completions fan out per operation on the
// connection's completion queue.
// ---------------------------------------------------------------------

// Completion reports one submission-queue operation that has completed:
// writes once every frame is acknowledged end-to-end, reads once the
// reply data has landed in local memory.
type Completion struct {
	OpID uint64 // the operation's connection-local id, in issue order
	Op   Op     // the posted descriptor
	// Err is nil for a successful completion; ErrPeerDead when the
	// connection failed with the operation pending, ErrClosed when it
	// closed, ErrDeadlineExceeded when Op.Deadline released the waiter
	// first (test with errors.Is).
	Err error
}

// Post validates op and appends it to the connection's submission queue.
// Nothing is charged and nothing is transmitted until Ring; the
// descriptor store is treated as free at simulation resolution (the
// calibrated SQPost cost is charged per descriptor by Ring). Post is
// also the fail-fast QoS admission point: a descriptor whose class is
// over quota (Config.QoS) is refused with ErrThrottled instead of
// queueing unboundedly.
func (c *Conn) Post(op Op) error {
	if err := c.checkOp(op); err != nil {
		return err
	}
	// The congestion gate runs before the quota gate: it takes no charge,
	// so a rejection here cannot leak an admission already taken.
	if c.ep.cfg.ccOn() {
		if err := c.ccAdmitFast(); err != nil {
			return err
		}
	}
	if c.ep.qosOn() {
		cls, ok := c.qosAdmitFast(op)
		if !ok {
			return fmt.Errorf("core: class %d to node %d: %w", cls, c.remoteNode, ErrThrottled)
		}
	}
	q := c.queueGroup()
	q.sq = append(q.sq, op)
	c.ep.noteSQDepth(1)
	return nil
}

// MustPost is Post for callers that guarantee the descriptor is valid.
func (c *Conn) MustPost(op Op) {
	if err := c.Post(op); err != nil {
		panic(err)
	}
}

// Ring rings the connection's doorbell on the application CPU: every
// posted descriptor is issued under a single batched charge
// (hostmodel.Costs.BatchIssue) and the submission queue empties. It
// returns the number of operations issued; ringing an empty queue is a
// free no-op. Completions surface on the completion queue (PollCQ /
// WaitCQ) in issue order.
func (c *Conn) Ring(p *sim.Proc) (int, error) {
	return c.RingOn(p, c.ep.cpus.App)
}

// MustRing is Ring for callers that guarantee the connection is open.
func (c *Conn) MustRing(p *sim.Proc) int {
	n, err := c.Ring(p)
	if err != nil {
		panic(err)
	}
	return n
}

// RingOn is Ring with an explicit CPU to charge the doorbell to.
func (c *Conn) RingOn(p *sim.Proc, cpu *sim.Resource) (int, error) {
	if err := c.endedErr(); err != nil {
		return 0, err
	}
	n := c.SQLen()
	if n == 0 {
		return 0, nil
	}
	q, ep := c.queues, c.ep
	batch := q.sq
	// Hand the endpoint's spare batch backing to the SQ for the next Post
	// run; descriptors posted while this ring's Exec blocks land there,
	// untouched by the walk below. Every scratch slice is taken off the
	// endpoint for the walk and handed back after it, so a ring of
	// another conn during the Exec park finds the slot empty and
	// allocates its own instead of sharing this one.
	q.sq = ep.sqScratch
	ep.sqScratch = nil
	ep.noteSQDepth(-n)
	// Snapshot write payloads at ring time (the doorbell is the issue
	// point), before the batched cost is charged — mirroring DoOn's
	// snapshot-before-Exec order. The snapshot slice is endpoint
	// scratch (reused ring to ring); the snapshots' ownership transfers
	// to the issued txOps.
	data := ep.ringData[:0]
	ep.ringData = nil
	copyBytes := 0
	for _, op := range batch {
		var d []byte
		if op.Kind == frame.OpWrite {
			d = ep.snapshot(op.Local, op.Size)
			if !ep.cfg.Offload {
				copyBytes += op.Size
			}
		}
		data = append(data, d)
	}
	cost := ep.costs.BatchIssue(n, copyBytes)
	if cpu == ep.cpus.App {
		ep.Stats.AppProtoTime += cost
	}
	p.Exec(cpu, cost)
	ep.Stats.Doorbells++
	ep.Stats.SQOps += uint64(n)
	if ep.doorbellHist != nil {
		ep.doorbellHist.Observe(float64(n))
	}
	ep.emit(c.localID, obs.EvDoorbell, int64(n), 0)
	// Walk the batch in issue order, coalescing runs of small writes
	// into shared MultiData frames.
	lim := ep.cfg.CoalesceLimit
	for i := 0; i < n; {
		if lim > 0 && coalescable(batch[i], lim) {
			j, bytes := i, multiPayloadBase
			// Under QoS a MultiData container carries ONE class's quota
			// charge, so a run breaks where the effective class changes.
			for j < n && coalescable(batch[j], lim) &&
				bytes+frame.SubOpOverhead+batch[j].Size <= frame.MaxPayload &&
				(!ep.qosOn() || c.opClass(batch[j]) == c.opClass(batch[i])) {
				bytes += frame.SubOpOverhead + batch[j].Size
				j++
			}
			if j > i+1 {
				c.enqueueMulti(batch[i:j], data[i:j])
				i = j
				continue
			}
		}
		c.enqueueOp(batch[i], data[i], nil)
		i++
	}
	// Recycle the walk's scratch: the batch backing feeds the next ring's
	// Post run, the snapshot-pointer slices the next ring's walk. The
	// snapshots belong to the issued ops now; the spare slice must not
	// keep them reachable.
	clear(data)
	ep.sqScratch = batch[:0]
	ep.ringData = data[:0]
	return n, nil
}

// multiPayloadBase is the fixed MultiData payload overhead (the sub-op
// count field).
const multiPayloadBase = 2

// coalescable reports whether op may share a MultiData frame: a write no
// larger than the coalesce limit. Flags pose no obstacle — the receive
// side honors fences, Notify and Solicit per sub-op. Deadline ops stay
// un-coalesced so their expiry timers track exactly one operation.
func coalescable(op Op, limit int) bool {
	return op.Kind == frame.OpWrite && op.Size <= limit && op.Deadline == 0
}

// enqueueMulti packs a run of small writes into one MultiData txOp. Each
// sub-op keeps its own operation id (allocated contiguously in issue
// order); the container reuses the LAST sub-op's id, so sender-side
// forward-fence ordering (txFenced is sorted by id) holds any later
// operation until the whole batch — and therefore every fenced sub-op in
// it — is acknowledged.
func (c *Conn) enqueueMulti(ops []Op, data [][]byte) {
	ep := c.ep
	// subs is encode-input scratch (reused across rings); the container
	// and its sub-op records come back from the endpoint's freelist.
	subs := ep.subScratch[:0]
	t := ep.free.ops.Get()
	recs := t.subs[:0]
	var fenced frame.OpFlags
	for i, op := range ops {
		id := c.nextOpID
		c.nextOpID++
		subs = append(subs, frame.SubOp{OpID: id, Flags: op.Flags, Remote: op.Remote, Data: data[i]})
		recs = append(recs, multiSub{id: id, op: op})
		fenced |= op.Flags & frame.FenceAfter
		if ep.obs.SpansEnabled() {
			name := "write-coalesced"
			if op.Flags&frame.Notify != 0 {
				name = "write-notify-coalesced"
			}
			recs[i].span = ep.obs.StartOpSpan(
				obs.SpanID{Node: ep.node, Conn: c.localID, Op: id}, "core", name, op.Size)
		}
		ep.Stats.OpsStarted++
	}
	payload, err := frame.EncodeMultiPayloadInto(ep.snapBuf(frame.MaxPayload), subs)
	if err != nil {
		panic(err) // Ring's packer keeps the batch under MaxPayload
	}
	ep.subScratch = subs[:0]
	for _, d := range data {
		ep.releaseSnapshot(d) // copied into the payload
	}
	// One frame carries every sub-op, so one forward fence on the
	// container (its id is the last sub-op's) covers every fenced sub-op.
	*t = txOp{
		Op: Op{Kind: frame.OpWrite, Flags: fenced}, id: recs[len(recs)-1].id,
		data: payload, total: uint32(len(payload)), subs: recs,
	}
	if ep.qosOn() {
		// One container, one class (Ring breaks coalesce runs on class
		// boundaries): the batch's Post-time charges ride it together.
		t.qosCls, t.qosOps = c.opClass(ops[0]), len(ops)
		for _, op := range ops {
			t.qosBytes += op.Size
		}
	}
	ep.Stats.CoalescedFrames++
	ep.Stats.CoalescedSubOps += uint64(len(ops))
	if ep.coalesceHist != nil {
		ep.coalesceHist.Observe(float64(len(ops)))
	}
	c.issue(t)
}

// SQLen returns the number of descriptors posted but not yet rung.
func (c *Conn) SQLen() int {
	if c.queues == nil {
		return 0
	}
	return len(c.queues.sq)
}

// CQLen returns the number of completions waiting to be polled.
func (c *Conn) CQLen() int {
	if c.queues == nil {
		return 0
	}
	return c.queues.cq.Len()
}

// PollCQ returns the oldest pending completion without blocking. Polling
// is free: the protocol thread deposits completion records into the
// user-visible queue as part of acknowledgement processing, and reading
// them needs no kernel crossing.
func (c *Conn) PollCQ() (Completion, bool) {
	if c.queues == nil {
		return Completion{}, false
	}
	comp, ok := c.queues.cq.TryRecv()
	if ok {
		c.ep.noteCQDepth(-1)
	}
	return comp, ok
}

// WaitCQ blocks the process until a completion is available and returns
// it. A blocked waiter is woken by the protocol CPU at UserWake cost,
// like a handle Wait.
func (c *Conn) WaitCQ(p *sim.Proc) Completion {
	comp := c.queueGroup().cq.Recv(p)
	c.ep.noteCQDepth(-1)
	return comp
}

// pushCompletion deposits one completion record. The CPU cost of the
// store is part of the acknowledgement processing already charged; a
// wakeup is paid only if a process is blocked in WaitCQ (mirrors handle
// and notification delivery), and ONE wake covers every record
// deposited while it is in flight — a cumulative acknowledgement that
// completes a whole batch wakes the waiter once, and the waiter reads
// the rest of the queue without further kernel involvement.
func (c *Conn) pushCompletion(comp Completion) {
	ep, q := c.ep, c.queueGroup()
	ep.noteCQDepth(1)
	if !q.cq.HasWaiters() && !q.flush {
		q.cq.Send(ep.env, comp)
		return
	}
	q.stage = append(q.stage, comp)
	if q.flush {
		return
	}
	q.flush = true
	ep.cpus.Proto.Submit(ep.env, ep.costs.UserWake, q.flushFn)
}
