package core

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"

	"multiedge/internal/frame"
	"multiedge/internal/hostmodel"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// Endpoint is one node's instance of the MultiEdge protocol layer: the
// kernel character device of IPPS'07 §2.1, owning the node's NICs, its
// remotely accessible memory, and all connections.
type Endpoint struct {
	env   *sim.Env
	node  int
	cfg   Config
	costs hostmodel.Costs
	cpus  hostmodel.CPUs
	nics  []*phys.NIC

	mem        []byte          // MemBytes from mapMem; nil once released
	memCleanup runtime.Cleanup // releases mem if the endpoint is dropped unreleased
	memBrk     uint64
	snapFree   [][][]byte // idle snapshots by size class (see snapBuf)

	conns      map[uint32]*Conn  // by local connection id
	connOrder  []*Conn           // stable iteration order for fairness
	byPeer     map[peerKey]*Conn // handshake dedupe
	nextConnID uint32
	acceptAll  bool
	accepted   sim.Mailbox[*Conn]

	threadActive bool
	txRR         int // round-robin cursor over connections for send work
	rxPrefer     int // NIC to poll first (the one that interrupted, NAPI-style)

	// User wakes, built once: their argument does not reach ep.
	fireSigFn func(any)                 // arg *sim.Signal: user wake (handle/CQ completion)
	noteFn    func(any)                 // arg *sim.Mailbox[Notification]: delivers the head of notes there
	rx        rxJob                     // the frame pollRx took, dispatched by rxStepFn
	notes     sim.Mailbox[Notification] // notifications behind their UserWake charge, in charge order

	// Scratch and freelists shared by the endpoint's conns (DESIGN.md
	// §13). The protocol thread serializes them: nothing here is held
	// across a park, except by RingOn, which takes its slices off the
	// endpoint for the walk and hands them back after it.
	nackSeqs    []uint32      // the list of the NACK being handled, decoded in place of a fresh slice
	nackScratch []byte        // the payload of the NACK being sent (see sendCtrl)
	free        freelists     // recycled records, and the simulation's frame pool
	sqScratch   []Op          // spare submission-queue backing (see RingOn)
	ringData    [][]byte      // RingOn's write snapshots
	subScratch  []frame.SubOp // enqueueMulti's encode input

	qosDispatchCls int // class of the in-flight sendStepFn dispatch

	// Connection scheduler (Config.SchedQueue): per-class FIFO queues of
	// connections with pending control or data work, plus the DWFQ
	// cursors and the classes' quota state (see qos.go). Config.QoS
	// configures the classes; without it the scheduler serves one
	// implicit weight-1 class, which is plain FIFO round-robin. nil when
	// SchedQueue is off and threadStep scans connOrder instead.
	qos        []qosClass
	qosCtrlCur int        // weighted-round-robin cursor over class ctrl queues
	qosSendCur int        // DWFQ cursor over class send queues
	qosServing int        // class picked by the last qosPopSend, for the charge
	qosPace    *sim.Timer // wire-pacing wake (two or more classes)

	regions []memRegion // registered memory (EnforceRegistration)
	routes  []memRegion // notification regions (NotifyRegion)

	engine *sim.Resource // NIC protocol engine (Config.Offload)

	rec *obs.Recorder // optional event recorder (nil = off)

	obs          *obs.Registry  // optional metrics/span registry (nil = off)
	holdHist     *obs.Histogram // receive-side hold duration, µs
	sqDepth      *obs.Gauge     // posted-but-unrung descriptors, all conns
	cqDepth      *obs.Gauge     // unpolled completions, all conns
	doorbellHist *obs.Histogram // descriptors issued per doorbell
	coalesceHist *obs.Histogram // sub-ops packed per MultiData frame
	rtoHist      *obs.Histogram // adaptive RTO estimate at each update, µs
	backoffHist  *obs.Histogram // consecutive-expiry depth at each RTO firing
	reconnHist   *obs.Histogram // outage duration per completed reconnect, µs
	redialHist   *obs.Histogram // dialer redial attempts per completed reconnect

	Stats Stats
}

// memRegion is one registered local buffer, or one notification
// region and its mailbox.
type memRegion struct {
	addr uint64
	size int
	q    *sim.Mailbox[Notification]
}

// rxJob carries one decoded frame from the protocol-CPU charge to its
// dispatch. The thread loop is strictly serialized, so at most one is in
// flight and Endpoint.rx holds it; the frame (and therefore the payload,
// which aliases fr.Buf) is released by rxStepFn after dispatchFrame
// returns, so any code that buffers a payload past dispatch must copy it
// first (see the hold paths in conn.go).
type rxJob struct {
	fr      *phys.Frame
	src     frame.Addr
	h       frame.Header
	payload []byte
	link    int
	ecn     bool // congestion-experienced mark carried out of band by fr
}

type peerKey struct {
	node   int
	connID uint32
}

// NewEndpoint creates the protocol layer for a node. The endpoint
// installs itself as the interrupt host of every NIC, and draws its
// frames and buffers from pool, which every endpoint of one simulation
// shares and no other simulation may.
func NewEndpoint(env *sim.Env, node int, cfg Config, costs hostmodel.Costs, cpus hostmodel.CPUs, nics []*phys.NIC, pool *phys.Pool) *Endpoint {
	if cfg.Window <= 0 || cfg.AckEvery <= 0 || cfg.MemBytes <= 0 {
		panic("core: invalid Config")
	}
	ep := &Endpoint{
		env: env, node: node, cfg: cfg, costs: costs, cpus: cpus, nics: nics,
		mem:        mapMem(cfg.MemBytes),
		conns:      make(map[uint32]*Conn),
		byPeer:     make(map[peerKey]*Conn),
		nextConnID: 1,
		acceptAll:  true,
		free:       freelists{pool: pool},
	}
	liveMem.Add(int64(cfg.MemBytes))
	ep.memCleanup = runtime.AddCleanup(ep, releaseMem, ep.mem)
	ep.fireSigFn = func(x any) { x.(*sim.Signal).Fire(ep.env) }
	env.OnStop(func() { ep.snapFree = nil }) // see snapBuf
	// The protocol CPU's lane runs charges in the order they were made,
	// so each delivery pops the notification its charge was made for.
	ep.noteFn = func(q any) {
		n, _ := ep.notes.TryRecv()
		q.(*sim.Mailbox[Notification]).Send(ep.env, n)
	}
	if len(cfg.QoS) > 0 && !cfg.SchedQueue {
		panic("core: Config.QoS requires Config.SchedQueue")
	}
	if cfg.SchedQueue {
		ep.initQoS()
	}
	if cfg.CongestionControl.Enable && !cfg.SchedQueue {
		// The congestion window gates transmissions between the scheduler
		// and the wire; without the scheduler queue there is no per-conn
		// service loop to park a window-blocked conn on.
		panic("core: Config.CongestionControl requires Config.SchedQueue")
	}
	for _, n := range nics {
		n.SetHost(ep)
	}
	if cfg.Offload {
		// A pipelined NIC engine at host parity: per-frame work costs
		// there what it costs on the host protocol CPU.
		ep.engine = sim.NewResource("n" + strconv.Itoa(node) + "/nic-engine").On(env)
	}
	return ep
}

// protoRes returns the resource protocol work runs on: the host
// protocol CPU, or the NIC engine in offload mode.
func (ep *Endpoint) protoRes() *sim.Resource {
	if ep.engine != nil {
		return ep.engine
	}
	return ep.cpus.Proto
}

// Engine exposes the NIC protocol engine (nil unless offloading), for
// utilization reporting.
func (ep *Endpoint) Engine() *sim.Resource { return ep.engine }

// kickConn notes that c may have gained control or data work and makes
// sure the protocol thread will look at it: under Config.SchedQueue the
// connection enqueues itself on its class's queues (at most once per
// queue; entries are re-validated on pop, so a conn whose work
// evaporated costs one skip instead of an O(conns) rescan), otherwise
// the thread's scan will find it. Every conn-side state change that can
// create work funnels through here via Conn.kick.
func (ep *Endpoint) kickConn(c *Conn) {
	if ep.qos != nil {
		q := &ep.qos[c.classIdx()]
		if !c.inCtrlQ && c.ctrlPending() {
			c.inCtrlQ = true
			q.ctrlQ.Send(ep.env, c)
			ep.emit(c.localID, obs.EvSched, 0, int64(q.ctrlQ.Len()))
		}
		if !c.inSendQ && c.sendable() {
			c.inSendQ = true
			q.sendQ.Send(ep.env, c)
			ep.emit(c.localID, obs.EvSched, 1, int64(q.sendQ.Len()))
		}
	}
	ep.wakeThread()
}

// removeConn unlinks a torn-down connection from the endpoint: demux
// table, fairness order and handshake dedupe. Only Conn.teardown calls
// it. Scheduler queue entries are left to lazy invalidation (closed
// conns fail the pop re-check). Idempotent; frames that arrive for a
// removed connection are dropped at dispatch, except retransmitted
// ConnClose frames, which get a stateless acknowledgement so the peer's
// close handshake still terminates.
func (ep *Endpoint) removeConn(c *Conn) {
	if _, ok := ep.conns[c.localID]; !ok {
		return
	}
	delete(ep.conns, c.localID)
	for i, cc := range ep.connOrder {
		if cc == c {
			ep.connOrder = append(ep.connOrder[:i], ep.connOrder[i+1:]...)
			break
		}
	}
	k := peerKey{node: int(c.remoteNode), connID: c.remoteID}
	if ep.byPeer[k] == c {
		delete(ep.byPeer, k)
	}
}

// ActiveConns returns how many connections the endpoint currently
// carries (closed and failed conns are removed from the table).
func (ep *Endpoint) ActiveConns() int { return len(ep.conns) }

// SetRecorder attaches an event recorder (nil disables): the flight
// recorder (obs.FlightKinds) or the frame-level traffic view
// (obs.TrafficKinds). Recording is a nil-checked store into a
// preallocated ring — no allocation, no RNG, no scheduled events — so
// the recorder observes without perturbing the simulation and stress
// harnesses leave it on unconditionally.
func (ep *Endpoint) SetRecorder(r *obs.Recorder) { ep.rec = r }

// Recorder returns the attached recorder (nil when off).
func (ep *Endpoint) Recorder() *obs.Recorder { return ep.rec }

// spanOf names the operation spans an event belongs to: a send-side op's
// — its own span or each coalesced sub-op's — for a frame on rail link
// (-1 for none), or one receive-side span.
type spanOf struct {
	op   *txOp
	link int
	rx   *obs.Span
}

// emit reports one protocol occurrence; every site in this package makes
// exactly this one call per occurrence, so the event vocabulary is
// obs.Kind and nothing else. The attached recorder keeps the event if
// it was built for k, and with spans on the event is appended to the
// spans named by in (at most one spanOf). With neither a recorder nor a
// registry attached it inlines to two nil checks.
func (ep *Endpoint) emit(conn uint32, k obs.Kind, a, b int64, in ...spanOf) {
	if ep.rec != nil || ep.obs != nil {
		ep.deliver(conn, k, a, b, in)
	}
}

// deliver is emit's out-of-line half.
func (ep *Endpoint) deliver(conn uint32, k obs.Kind, a, b int64, in []spanOf) {
	now := ep.env.Now()
	if ep.rec.Takes(k) {
		ep.rec.Record(now, conn, k, a, b)
	}
	if len(in) == 0 || !ep.obs.SpansEnabled() {
		return
	}
	if s := in[0]; s.op == nil {
		s.rx.Event(now, k, ep.node, -1, uint32(a), int(b))
	} else {
		s.op.span.Event(now, k, ep.node, s.link, uint32(a), int(b))
		for i := range s.op.subs {
			s.op.subs[i].span.Event(now, k, ep.node, s.link, uint32(a), int(b))
		}
	}
}

// SetObs attaches the observability registry (nil disables). Metrics
// are mirrored from Stats by a collector at gather time (see
// Stats.Collector), so the per-frame hot path pays only nil checks;
// span recording additionally requires Registry.EnableSpans.
func (ep *Endpoint) SetObs(r *obs.Registry) {
	ep.obs = r
	ep.holdHist = r.Histogram("core_hold_us", nil, obs.NodeLabel(ep.node))
	ep.sqDepth = r.Gauge("core_sq_depth", obs.NodeLabel(ep.node))
	ep.cqDepth = r.Gauge("core_cq_depth", obs.NodeLabel(ep.node))
	ep.doorbellHist = r.Histogram("core_doorbell_batch_ops", nil, obs.NodeLabel(ep.node))
	ep.coalesceHist = r.Histogram("core_coalesce_subops", nil, obs.NodeLabel(ep.node))
	ep.rtoHist = r.Histogram("core_rto_us", nil, obs.NodeLabel(ep.node))
	ep.backoffHist = r.Histogram("core_rto_backoff", nil, obs.NodeLabel(ep.node))
	ep.reconnHist = r.Histogram("core_reconnect_outage_us", nil, obs.NodeLabel(ep.node))
	ep.redialHist = r.Histogram("core_reconnect_attempts", nil, obs.NodeLabel(ep.node))
	r.AddCollector(ep.Stats.Collector(ep.node))
	// Scaling gauges are sampled at gather time straight from the live
	// structures, so the hot path (kick/pop/arm) pays nothing for them.
	nl := obs.NodeLabel(ep.node)
	r.AddCollector(func(emit func(obs.Sample)) {
		g := func(name string, v float64) {
			emit(obs.Sample{Name: name, Labels: []obs.Label{nl}, Value: v, Type: obs.TypeGauge})
		}
		g("core_active_conns", float64(len(ep.conns)))
		ctrl, send := ep.qosSchedDepth()
		g("core_sched_queue_depth", float64(ctrl+send))
	})
	if ep.qosOn() {
		r.AddCollector(ep.qosCollector())
	}
}

// noteSQDepth tracks the node-wide submission-queue depth gauge (nil-safe
// when observability is off).
func (ep *Endpoint) noteSQDepth(d int) {
	if ep.sqDepth != nil {
		ep.sqDepth.Add(float64(d))
	}
}

// noteCQDepth tracks the node-wide completion-queue depth gauge.
func (ep *Endpoint) noteCQDepth(d int) {
	if ep.cqDepth != nil {
		ep.cqDepth.Add(float64(d))
	}
}

// Obs returns the attached registry (nil when observability is off).
func (ep *Endpoint) Obs() *obs.Registry { return ep.obs }

// Node returns the node id this endpoint runs on.
func (ep *Endpoint) Node() int { return ep.node }

// Env returns the simulation environment.
func (ep *Endpoint) Env() *sim.Env { return ep.env }

// CPUs returns the node's modelled processors.
func (ep *Endpoint) CPUs() hostmodel.CPUs { return ep.cpus }

// NICs returns the node's network interfaces.
func (ep *Endpoint) NICs() []*phys.NIC { return ep.nics }

// Config returns the protocol configuration.
func (ep *Endpoint) Config() Config { return ep.cfg }

// Mem exposes the endpoint's remotely accessible address space. The
// local application reads and writes it directly (it is the process'
// own memory); remote nodes access it through RDMA operations.
//
// The slice is valid while the endpoint is reachable and its memory not
// released (ReleaseMem, which cluster.Cluster.Close calls); afterwards
// Mem returns nil. Holding the slice does not keep the endpoint
// reachable: the memory is a kernel mapping, not Go heap, so read it
// through a live endpoint or cluster, never after dropping them.
func (ep *Endpoint) Mem() []byte { return ep.mem }

// ReleaseMem hands the endpoint's memory back to the kernel; Mem returns
// nil afterwards. Calling it again does nothing. An endpoint dropped without it is
// released by the collector instead, so each mapping is released exactly
// once either way.
func (ep *Endpoint) ReleaseMem() {
	if ep.mem == nil {
		return
	}
	ep.memCleanup.Stop()
	releaseMem(ep.mem)
	ep.mem = nil
}

// liveMem is the endpoint memory mapped and not yet released, process
// wide.
var liveMem atomic.Int64

// LiveMemBytes returns the endpoint memory the process holds: the
// MemBytes of every endpoint whose memory is not yet released. It counts
// reserved bytes, not the pages a run has touched.
func LiveMemBytes() int64 { return liveMem.Load() }

// releaseMem returns one endpoint's memory to the kernel. It is the
// endpoint's cleanup too, so it must not reach the endpoint.
func releaseMem(b []byte) {
	unmapMem(b)
	liveMem.Add(-int64(len(b)))
}

// RegisterMemory registers [addr, addr+size) as a valid local buffer
// for operation initiation — the paper's registration primitive. Only
// consulted when Config.EnforceRegistration is set; receive buffers
// never need registration (data is delivered directly into the virtual
// address space, IPPS'07 §2.2).
func (ep *Endpoint) RegisterMemory(addr uint64, size int) {
	if size <= 0 || !within(addr, size, uint64(len(ep.mem))) {
		panic("core: RegisterMemory: region outside address space")
	}
	ep.regions = append(ep.regions, memRegion{addr: addr, size: size})
}

// DeregisterMemory removes a previously registered region (exact match).
func (ep *Endpoint) DeregisterMemory(addr uint64) {
	if i := slices.IndexFunc(ep.regions, func(r memRegion) bool { return r.addr == addr }); i >= 0 {
		ep.regions = slices.Delete(ep.regions, i, i+1)
	}
}

// regionOf returns the region of rs that holds [addr, addr+size), or nil.
func regionOf(rs []memRegion, addr uint64, size int) *memRegion {
	for i, r := range rs {
		if addr >= r.addr && within(addr-r.addr, size, uint64(r.size)) {
			return &rs[i]
		}
	}
	return nil
}

// Alloc reserves size bytes in the address space and returns the base
// address. Allocations are 64-byte aligned and never freed (arena
// style); it panics when the address space is exhausted.
func (ep *Endpoint) Alloc(size int) uint64 {
	const align = 64
	base := (ep.memBrk + align - 1) &^ (align - 1)
	if base+uint64(size) > uint64(len(ep.mem)) {
		panic(fmt.Sprintf("core: node %d out of memory: need %d at %d of %d",
			ep.node, size, base, len(ep.mem)))
	}
	ep.memBrk = base + uint64(size)
	return base
}

// ---------------------------------------------------------------------
// Interrupts and the protocol kernel thread (IPPS'07 §2.6).
//
// The interrupt handler masks the NIC and wakes the protocol thread.
// The thread polls every NIC for received frames and transmit
// completions, performs all per-frame work on the protocol CPU, and
// re-enables interrupts only when no work remains.
// ---------------------------------------------------------------------

// Interrupt implements phys.Host.
func (ep *Endpoint) Interrupt(n *phys.NIC) {
	n.Mask()
	for i, nn := range ep.nics {
		if nn == n {
			ep.rxPrefer = i // service the interrupting NIC first
			break
		}
	}
	intr := ep.costs.Interrupt
	if ep.engine != nil {
		// On-NIC event dispatch, not a host interrupt.
		intr = 100 * sim.Nanosecond
	}
	ep.protoRes().Submit(ep.env, intr, nil, nil)
	ep.wakeThread()
}

// wakeThread starts the protocol thread if it is idle. It also serves as
// the doorbell rung by operation initiation.
func (ep *Endpoint) wakeThread() {
	if ep.threadActive {
		return
	}
	ep.threadActive = true
	wake := ep.costs.Wakeup
	if ep.engine != nil {
		// The NIC engine polls; no kernel-thread wakeup is paid.
		wake = 100 * sim.Nanosecond
	}
	ep.protoRes().Submit(ep.env, wake, threadStepFn, ep)
}

// The thread's continuations, and qosWakeFn, its pacing and refill
// wake, take the endpoint or the conn. On the scan path kickConn in the
// transmit ones returns at once: the thread is already running.
func threadStepFn(x any) { x.(*Endpoint).threadStep() }
func qosWakeFn(x any)    { x.(*Endpoint).wakeThread() }

func rxStepFn(x any) {
	ep := x.(*Endpoint)
	j := ep.rx
	ep.rx = rxJob{}
	ep.dispatchFrame(j.src, j.h, j.payload, j.link, j.ecn)
	j.fr.Release()
	ep.threadStep()
}

func ctrlStepFn(x any) {
	c := x.(*Conn)
	c.sendCtrl()
	c.ep.kickConn(c)
	c.ep.threadStep()
}

func sendStepFn(x any) {
	c := x.(*Conn)
	n := c.sendNextDataFrame()
	if c.ep.qos != nil {
		c.ep.qosChargeSend(c.ep.qosDispatchCls, n)
	}
	c.ep.kickConn(c)
	c.ep.threadStep()
}

// threadStep performs one unit of protocol work and reschedules itself
// until no work remains, then unmasks interrupts and sleeps.
func (ep *Endpoint) threadStep() {
	// 1. Retire transmit completions (cheap, batched).
	var txDone int
	for _, n := range ep.nics {
		txDone += n.TakeTxDone()
	}
	if txDone > 0 {
		ep.protoRes().Submit(ep.env, sim.Time(txDone)*ep.costs.TxDone, threadStepFn, ep)
		return
	}
	// 2. Receive one frame, starting with the NIC that interrupted and
	// sticking with it until its ring drains (NAPI-style).
	if ep.pollRx() {
		return
	}
	// 3+4. Send pending control frames (ACK/NACK), then one data frame
	// from a connection with window space.
	if ep.qos == nil {
		// Scan every connection per step from the round-robin cursor: fine
		// for a handful of conns, and the order the paper goldens pin.
		for i := 0; i < len(ep.connOrder); i++ {
			c := ep.connOrder[(ep.txRR+i)%len(ep.connOrder)]
			if c.ctrlPending() {
				ep.txRR = (ep.txRR + i + 1) % len(ep.connOrder)
				ep.protoRes().Submit(ep.env, ep.costs.AckProc, ctrlStepFn, c)
				return
			}
		}
		for i := 0; i < len(ep.connOrder); i++ {
			c := ep.connOrder[(ep.txRR+i)%len(ep.connOrder)]
			if c.sendable() {
				ep.txRR = (ep.txRR + i + 1) % len(ep.connOrder)
				ep.protoRes().Submit(ep.env, ep.costs.FrameTx, sendStepFn, c)
				return
			}
		}
	} else {
		// Class scheduler: weighted-fair O(1) pops across the class
		// queues; a connection with more work re-enqueues at the tail.
		if c := ep.qosPopCtrl(); c != nil {
			ep.protoRes().Submit(ep.env, ep.costs.AckProc, ctrlStepFn, c)
			return
		}
		if ep.qosPaced() {
			// Wire-pacing: with every NIC's transmit queue at the bound,
			// dispatching now would just bury frames in the NIC FIFO where
			// DWFQ no longer decides their order. Hold them in the class
			// queues and come back when the head frame clears the wire.
			ep.qosArmPace()
		} else if c := ep.qosPopSend(); c != nil {
			// Each transmitted data frame is charged back to the class it
			// was served for (deficit and token bucket). The thread loop is
			// strictly serialized (each dispatched branch calls threadStep
			// again when it finishes), so at most one data dispatch is in
			// flight and a single field carries the served class to the
			// charge.
			ep.qosDispatchCls = ep.qosServing
			ep.protoRes().Submit(ep.env, ep.costs.FrameTx, sendStepFn, c)
			return
		}
	}
	// No work: sleep and unmask (re-raises if anything slipped in).
	ep.threadActive = false
	for _, n := range ep.nics {
		n.Unmask()
	}
}

// pollRx takes one frame from the NIC rings (the paper's §2.6 loop: poll
// every NIC, one frame per step) and schedules its dispatch behind the
// per-frame protocol-CPU charge. It reports whether a frame was taken;
// the caller returns and the scheduled continuation resumes the thread.
func (ep *Endpoint) pollRx() bool {
	for i := 0; i < len(ep.nics); i++ {
		idx := (ep.rxPrefer + i) % len(ep.nics)
		fr := ep.nics[idx].PollRxOne()
		if fr == nil {
			continue
		}
		ep.rxPrefer = idx
		_, src, h, payload, err := frame.Decode(fr.Buf)
		if err != nil {
			// Damaged frame past the FCS model: treated as loss, buffer
			// dies here, decode cost still charged.
			fr.Release()
			ep.protoRes().Submit(ep.env, ep.costs.FrameRx, threadStepFn, ep)
			return true
		}
		var cost sim.Time
		switch h.Type {
		case frame.TypeData, frame.TypeReadReq, frame.TypeMultiData:
			cost = ep.costs.FrameRx
			if ep.engine == nil {
				// Host path pays the kernel->user copy; an offloading NIC
				// DMAs payload directly into user memory.
				cost += ep.costs.Copy(len(payload))
			}
		default:
			cost = ep.costs.AckProc
		}
		ep.rx = rxJob{fr: fr, src: src, h: h, payload: payload, link: idx, ecn: fr.Ecn}
		ep.protoRes().Submit(ep.env, cost, rxStepFn, ep)
		return true
	}
	return false
}

// dispatchFrame routes a decoded frame to connection handling. ecn is
// the frame's out-of-band congestion-experienced mark (phys.Frame.Ecn),
// observed here because the mark belongs to the wire frame, not to the
// CRC-covered header the switches cannot rewrite.
func (ep *Endpoint) dispatchFrame(src frame.Addr, h frame.Header, payload []byte, link int, ecn bool) {
	switch h.Type {
	case frame.TypeConnReq:
		ep.handleConnReq(src, h)
		return
	case frame.TypeConnAck:
		ep.handleConnAck(src, h)
		return
	}
	c, ok := ep.conns[h.ConnID]
	if !ok {
		if h.Type == frame.TypeConnClose {
			// A retransmitted close for a connection we already tore
			// down and removed: re-acknowledge statelessly (the reply
			// is built purely from the incoming header, echoing its
			// incarnation) so the peer's handshake terminates instead
			// of retrying into silence.
			ep.sendControl(0, src, &frame.Header{Type: frame.TypeConnCloseAck, ConnID: uint32(h.OpID),
				Incarnation: h.Incarnation})
		}
		return // stale frame for a connection we do not know
	}
	// Epoch fence: a frame from a dead incarnation — duplicated, delayed
	// in a deep queue, or replayed across a rail restore — must never
	// touch live connection state. While the conn is reconnecting its own
	// epoch is condemned too, so matching-incarnation frames are equally
	// stale.
	if ep.cfg.Reconnect && (h.Incarnation != c.incarnation || c.state == reconnecting) {
		ep.Stats.StaleEpochDrops++
		ep.emit(c.localID, obs.EvStaleDrop, int64(h.Incarnation), int64(c.incarnation))
		return
	}
	switch h.Type {
	case frame.TypeConnClose:
		// Peer-initiated close: acknowledge (idempotently — the close may
		// be retransmitted) and tear the conn down; what it still owes
		// its callers ends with ErrClosed. In a simultaneous close our own
		// handshake completes here too: the peer has committed to
		// teardown, and its side answers our retransmitted ConnClose
		// statelessly even after it forgets the conn.
		ep.emit(c.localID, obs.EvClosed, 1, 0)
		ep.sendControl(0, src, &frame.Header{Type: frame.TypeConnCloseAck, ConnID: uint32(h.OpID),
			Incarnation: h.Incarnation})
		c.teardown(fmt.Errorf("core: connection to node %d closed by peer: %w", c.remoteNode, ErrClosed))
		return
	case frame.TypeConnCloseAck:
		if c.state == closing {
			c.teardown(c.endErr)
		}
		return
	case frame.TypeReset:
		// The peer abandoned the connection (its failure detector fired).
		// Fail our side too — without echoing a Reset back, which would
		// ping-pong between two live endpoints after a healed partition.
		// A dialing conn ends here as well, and its Dial returns.
		if c.state == live || c.state == dialing {
			ep.Stats.CtrlRecv++
			ep.Stats.ResetsRecv++
			c.peerLost(fmt.Errorf("core: connection to node %d reset by peer: %w", c.remoteNode, ErrPeerDead), false)
		}
		return
	}
	if c.state != live {
		return // only a live conn exchanges data: late frames for a closing conn, early ones for a dialing one
	}
	c.lastHeard = ep.env.Now()
	if ecn {
		// A switch queue along the path marked this frame: remember it so
		// the next ack-bearing frame echoes congestion to the sender.
		ep.Stats.EcnMarksSeen++
		c.ccEcnRx++
	}
	if h.EcnEcho {
		// The peer echoed marks our own data picked up in the fabric.
		c.ccOnEcnEcho()
	}
	if h.Type == frame.TypeData || h.Type == frame.TypeReadReq || h.Type == frame.TypeMultiData {
		c.handleData(h, payload, link)
		return
	}
	// Every other frame that reaches here is a control frame carrying the
	// cumulative acknowledgement.
	ep.Stats.CtrlRecv++
	c.handleAck(h.Ack)
	switch h.Type {
	case frame.TypeNack:
		var err error
		if ep.nackSeqs, err = frame.AppendNackSeqs(ep.nackSeqs[:0], payload); err == nil {
			// Selective repeat: the go-back-N baseline never receives NACKs.
			c.noteRepairs(c.queueRepairs(ep.nackSeqs...), obs.EvNackRepair)
			c.kick()
		}
	case frame.TypeHeartbeat:
		ep.Stats.HeartbeatsRecv++
	case frame.TypeRailProbe:
		// Answer on the arrival NIC: rails are symmetric (NIC i peers
		// with NIC i through switch i), so the echo retraces the probed
		// rail and the round trip measures that rail alone.
		eh := frame.Header{Type: frame.TypeRailProbeEcho, ConnID: c.remoteID,
			Ack: c.rcvNxt, HasAck: true, Seq: h.Seq, OpID: h.OpID}
		c.sendFrameOn(&eh, nil, link)
	case frame.TypeRailProbeEcho:
		if li := int(h.Seq); li < len(c.rails) {
			c.rails[li].rtt.sample(ep.env.Now() - sim.Time(h.OpID))
		}
	}
}

// NotifyRegion returns the mailbox of the notifications whose write
// lands at an address in [base, base+size), from any peer
// (Notification.From names it). A notification outside every region
// goes to its connection's WaitNotify queue. Regions may not overlap.
func (ep *Endpoint) NotifyRegion(base uint64, size int) *sim.Mailbox[Notification] {
	if size < 0 || !within(base, size, uint64(len(ep.mem))) {
		panic("core: NotifyRegion: region outside address space")
	}
	for _, r := range ep.routes {
		if base < r.addr+uint64(r.size) && r.addr < base+uint64(size) {
			panic("core: NotifyRegion: regions overlap")
		}
	}
	q := &sim.Mailbox[Notification]{}
	ep.routes = append(ep.routes, memRegion{addr: base, size: size, q: q})
	return q
}
