// Package phys models the physical communication substrate of the
// evaluation clusters in IPPS'07 §3: full-duplex Ethernet links,
// store-and-forward switches with finite output queues, and NICs with
// DMA engines, receive rings and maskable interrupts.
//
// The models stand in for the paper's Broadcom Tigon 3 / Myricom 10G
// NICs and D-Link / HP ProCurve switches (see DESIGN.md). Every
// protocol-visible phenomenon — serialization delay, congestion loss at
// switch queues, random bit-error loss, interrupt coalescing — is
// produced explicitly so the protocol layer above runs unmodified.
package phys

import (
	"bytes"

	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// Frame is a frame in flight: the encoded buffer plus cached addressing
// so switches forward without re-parsing the whole header.
//
// Frames come in two flavors. A literal &Frame{...} owns a plain heap
// buffer and is garbage-collected; Release is a no-op on it, so tests
// and cold control paths need no lifecycle discipline. A pooled frame
// (Pool.NewFrame, NewPooledFrame) owns a frame.Buf and MUST be
// released at exactly one death point: the drop that loses it, or the
// end of receive dispatch (see DESIGN.md §13). The phys layer releases
// frames it kills (drop-tail, link loss, failed links, misaddressing,
// unknown switch destinations); delivery transfers ownership to the
// receiver.
type Frame struct {
	Buf []byte
	Dst frame.Addr
	Src frame.Addr

	// Ecn is the congestion-experienced mark: set by a congested output
	// queue the frame traverses (see OutPort.SetEcnThreshold) and read by
	// the receiving protocol layer. It travels out of band — alongside
	// the buffer rather than inside it — because the protocol header is
	// CRC-covered end to end; real switches rewrite the ECN field and fix
	// up checksums, which this models without giving switches write
	// access to protocol bytes. Zero unless a port marks it, so runs
	// without ECN thresholds are untouched.
	Ecn bool

	pb   *frame.Buf // pooled buffer this frame owns (nil if Buf is plain)
	pool *Pool      // where Release returns the record and pb (nil if literal)
}

// Len returns the stored frame length in bytes.
func (f *Frame) Len() int { return len(f.Buf) }

// Pool is one simulation's freelist of pooled frames: the frame.Pool of
// their buffers (held payloads draw from it too) and the idle frame
// records. Its simulation's goroutine serializes it, so two simulations
// running at once must not share one. The zero value is ready.
type Pool struct {
	frame.Pool
	frames frame.Freelist[Frame]
}

// Trim lets every idle buffer and frame record go (frame.Freelist.Trim).
func (p *Pool) Trim() {
	p.Pool.Trim()
	p.frames.Trim()
}

// NewFrame builds a frame around a pooled buffer: buf must alias pb's
// storage (typically frame.EncodeInto(pb.Bytes(), ...)). The returned
// frame owns both the Frame record and the buffer until Release, which
// hands them back to p.
func (p *Pool) NewFrame(pb *frame.Buf, buf []byte, dst, src frame.Addr) *Frame {
	f := p.frames.Get()
	*f = Frame{Buf: buf, Dst: dst, Src: src, pb: pb, pool: p}
	return f
}

// NewPooledFrame is NewFrame on a pool of its own, for a buffer from
// frame.GetBuf: Release poisons the buffer and drops both.
func NewPooledFrame(pb *frame.Buf, buf []byte, dst, src frame.Addr) *Frame {
	return new(Pool).NewFrame(pb, buf, dst, src)
}

// Release returns a pooled frame's buffer and record to its pool. It is
// a no-op on frames built as plain literals, so every death point can
// call it unconditionally.
func (f *Frame) Release() {
	if f == nil || f.pool == nil {
		return
	}
	p, pb := f.pool, f.pb
	*f = Frame{}
	p.Put(pb)
	p.frames.Put(f)
}

// clone copies a frame: a pooled one into a fresh frame from its pool,
// a literal one into a literal. The corrupt and duplicate fault paths
// use it so no two in-flight deliveries ever alias one buffer.
func (f *Frame) clone() *Frame {
	if f.pool == nil {
		return &Frame{Buf: bytes.Clone(f.Buf), Dst: f.Dst, Src: f.Src, Ecn: f.Ecn}
	}
	pb := f.pool.Get()
	c := f.pool.NewFrame(pb, pb.Bytes()[:copy(pb.Bytes(), f.Buf)], f.Dst, f.Src)
	c.Ecn = f.Ecn
	return c
}

// Receiver is anything that can accept a frame arriving off a link: a NIC
// or a switch port. DeliverFrame runs in scheduler context at the
// frame's arrival time (after the last bit is received — store and
// forward).
type Receiver interface {
	DeliverFrame(f *Frame)
}

// LinkParams describes one physical link technology.
type LinkParams struct {
	// PsPerByte is the serialization time in picoseconds per byte:
	// 8000 for 1-GBit/s Ethernet, 800 for 10-GBit/s.
	PsPerByte int64
	// Delay is the one-way propagation plus PHY latency.
	Delay sim.Time
	// LossProb is the probability a frame is lost to a transient error
	// (bit error, ...) on one traversal of the link. Lost frames are
	// those that would fail the receiver's FCS check, so they are
	// counted and discarded before delivery (as real NICs do).
	LossProb float64
	// DupProb is the probability a frame is delivered twice (e.g. a
	// PHY-level retransmission artifact): adversarial-testing knob.
	DupProb float64
	// CorruptProb is the probability a frame is delivered with a
	// flipped byte that the link-level FCS fails to catch, exercising
	// the protocol header checksum. Real Ethernet lets roughly one in
	// 4 billion errored frames through the FCS; tests dial this up.
	CorruptProb float64
}

// Gigabit returns parameters for 1-GBit/s Ethernet.
func Gigabit() LinkParams { return LinkParams{PsPerByte: 8000, Delay: 300 * sim.Nanosecond} }

// TenGigabit returns parameters for 10-GBit/s Ethernet.
func TenGigabit() LinkParams { return LinkParams{PsPerByte: 800, Delay: 300 * sim.Nanosecond} }

// BytesPerSec returns the raw link rate in bytes per second.
func (lp LinkParams) BytesPerSec() float64 { return 1e12 / float64(lp.PsPerByte) }

// wireTime returns how long a frame of stored length n occupies the wire,
// including preamble, FCS and inter-frame gap.
func (lp LinkParams) wireTime(n int) sim.Time {
	return sim.Time(int64(frame.WireLen(n)) * lp.PsPerByte / 1000)
}

// OutPort is the transmit side of one link direction: a FIFO of frames
// serialized onto the wire at the link rate. A finite Capacity makes it a
// drop-tail switch output queue; Capacity 0 means unbounded (a NIC
// transmit ring whose occupancy the protocol layer already bounds with
// its flow-control window).
type OutPort struct {
	env      *sim.Env
	name     string
	params   LinkParams
	peer     Receiver
	capacity int

	queued    int      // frames accepted but not yet fully transmitted
	ecnThresh int      // queue depth at which accepted frames are ECN-marked (0 = off)
	avail     sim.Time // when the wire becomes free
	onTx      func(f *Frame)
	failed    bool // hard link failure: everything transmitted is lost
	condemned int  // frames queued while failed: lost even if Restore precedes their tx
	drop      func(f *Frame) bool
	mangler   Mangler
	txFn      func(any) // long-lived tx-completion callback (arg: *Frame)
	deliverFn func(any) // long-lived delivery callback (arg: *Frame)
	// Both completions are FIFO by construction — avail is monotone and
	// Delay constant — so they wait in lanes; a mangler delay or a
	// duplicate that would land before its predecessor falls back to
	// the heap inside the lane.
	txLane *sim.Lane
	wire   *sim.Lane

	// Counters.
	TxFrames    uint64
	TxBytes     uint64
	DropsFull   uint64 // drop-tail losses (congestion)
	EcnMarks    uint64 // frames ECN-marked by this queue (SetEcnThreshold)
	DropsErr    uint64 // transient-error losses
	DropsFailed uint64 // frames lost to a hard link failure
	Duplicated  uint64 // adversarial duplications injected
	Corrupted   uint64 // adversarial corruptions injected
	MaxQueue    int
}

// NewOutPort creates a transmit port feeding peer. capacity is the
// drop-tail queue limit in frames (0 = unbounded).
func NewOutPort(env *sim.Env, name string, params LinkParams, peer Receiver, capacity int) *OutPort {
	o := &OutPort{env: env, name: name, params: params, peer: peer, capacity: capacity,
		txLane: env.NewLane(), wire: env.NewLane()}
	o.txFn = func(x any) { o.txComplete(x.(*Frame)) }
	o.deliverFn = func(x any) { o.peer.DeliverFrame(x.(*Frame)) }
	return o
}

// SetOnTx registers a callback invoked when a frame finishes leaving the
// wire (transmit completion, used by NICs to signal the host).
func (o *OutPort) SetOnTx(fn func(f *Frame)) { o.onTx = fn }

// SetEcnThreshold arms ECN-style congestion marking: every frame
// accepted while the queue (including the frame itself) holds at least
// n frames is marked congestion-experienced. Marking happens at
// enqueue — before drop-tail would fire at Capacity — so a threshold
// below the capacity lets the transport throttle before the queue
// overflows. 0 (the default) disables marking, leaving every existing
// run untouched.
func (o *OutPort) SetEcnThreshold(n int) { o.ecnThresh = n }

// Queued returns the number of frames accepted but not yet transmitted.
func (o *OutPort) Queued() int { return o.queued }

// Backlog returns how long the wire will stay busy with already-queued
// frames: the serialization backlog. Adaptive striping uses it to steer
// frames to the rail that will drain first, which is what makes
// heterogeneous rails (1-GbE next to 10-GbE) usable at their combined
// rate instead of the slowest rail's.
func (o *OutPort) Backlog() sim.Time {
	now := o.env.Now()
	if o.avail <= now {
		return 0
	}
	return o.avail - now
}

// Fail hard-fails the port: every frame that reaches the head of its
// queue from now on is lost (a dead cable, a wedged switch port). The
// upper layers see it as 100% loss in this direction until Restore.
//
// Frames queued when Fail is called — and any accepted while the port
// stays failed — are condemned: they count in DropsFailed even if
// Restore runs before they finish serializing, so failure accounting is
// a deterministic function of the fault timeline and not of how Restore
// races the serialization backlog.
func (o *OutPort) Fail() {
	o.failed = true
	o.condemned = o.queued
}

// Restore clears a hard failure injected with Fail.
func (o *OutPort) Restore() { o.failed = false }

// SetDropFilter installs a deterministic loss injector: every frame for
// which fn returns true is lost on this port (counted in DropsErr, like
// a transient error). Unlike LossProb this is exact, so tests can kill
// one specific frame — the k-th data frame, the first NACK, a probe —
// and assert the protocol repairs precisely that situation. nil removes
// the filter. The filter runs when the frame finishes serializing.
func (o *OutPort) SetDropFilter(fn func(f *Frame) bool) { o.drop = fn }

// Mangle is the fate a fault injector assigns one frame. The zero value
// delivers the frame untouched.
type Mangle struct {
	// Drop loses the frame (counted in DropsErr, like a transient
	// error).
	Drop bool
	// Corrupt flips one byte of the delivered copy, exercising the
	// protocol checksum (counted in Corrupted).
	Corrupt bool
	// Dup delivers the frame a second time one wire-time later
	// (counted in Duplicated).
	Dup bool
	// Delay adds extra one-way latency before delivery. Frames given
	// different delays may reorder.
	Delay sim.Time
}

// Mangler decides per frame what the fault injector does to it. It runs
// when the frame finishes serializing, before the port's probabilistic
// loss/corrupt/dup draws, so a scripted fault timeline composes with the
// link's own error model. A nil mangler adds no work and — critically
// for reproducibility — no random-number draws, so installing faults
// only in chaos runs leaves every clean run bit-identical.
type Mangler func(f *Frame) Mangle

// SetMangler installs (or with nil removes) the port's fault injector.
func (o *OutPort) SetMangler(fn Mangler) { o.mangler = fn }

// Send queues a frame for transmission. It reports false if the queue is
// full, in which case the frame is dropped (congestion loss) and — as at
// every death point — a pooled frame is released.
func (o *OutPort) Send(f *Frame) bool {
	if o.capacity > 0 && o.queued >= o.capacity {
		o.DropsFull++
		f.Release()
		return false
	}
	o.queued++
	if o.queued > o.MaxQueue {
		o.MaxQueue = o.queued
	}
	if o.ecnThresh > 0 && o.queued >= o.ecnThresh && !f.Ecn {
		f.Ecn = true
		o.EcnMarks++
	}
	if o.failed {
		o.condemned++
	}
	e := o.env
	start := e.Now()
	if o.avail > start {
		start = o.avail
	}
	txDone := start + o.params.wireTime(f.Len())
	o.avail = txDone
	o.txLane.SchedAtArg(txDone, o.txFn, f)
	return true
}

// txComplete runs when f finishes serializing onto the wire: fault
// injection, probabilistic loss/corrupt/dup draws, then delivery. Every
// branch that loses the frame releases it; delivery hands ownership to
// the receiver.
func (o *OutPort) txComplete(f *Frame) {
	e := o.env
	o.queued--
	o.TxFrames++
	o.TxBytes += uint64(f.Len())
	if o.onTx != nil {
		o.onTx(f)
	}
	if o.condemned > 0 {
		// Serialization completes in FIFO order, so the first
		// `condemned` completions after Fail are exactly the frames
		// that were queued when the failure hit.
		o.condemned--
		o.DropsFailed++
		f.Release()
		return
	}
	if o.failed {
		o.DropsFailed++
		f.Release()
		return
	}
	if o.drop != nil && o.drop(f) {
		o.DropsErr++
		f.Release()
		return
	}
	var m Mangle
	if o.mangler != nil {
		m = o.mangler(f)
	}
	if m.Drop {
		o.DropsErr++
		f.Release()
		return
	}
	if o.params.LossProb > 0 && e.Rand().Float64() < o.params.LossProb {
		o.DropsErr++
		f.Release()
		return
	}
	deliver := f
	corrupt := m.Corrupt
	if o.params.CorruptProb > 0 && e.Rand().Float64() < o.params.CorruptProb {
		corrupt = true
	}
	if corrupt {
		// Flip one byte in a copy, leaving the original bytes intact
		// for the duplicate path below.
		deliver = f.clone()
		deliver.Buf[e.Rand().Intn(len(deliver.Buf))] ^= 1 << uint(e.Rand().Intn(8))
		o.Corrupted++
	}
	arrive := o.params.Delay + m.Delay
	o.wire.SchedAtArg(e.Now()+arrive, o.deliverFn, deliver)
	dup := m.Dup
	if o.params.DupProb > 0 && e.Rand().Float64() < o.params.DupProb {
		dup = true
	}
	if dup {
		// Deliver a clone, never the same *Frame twice: two in-flight
		// deliveries aliasing one buffer would double-release it.
		o.Duplicated++
		o.wire.SchedAtArg(e.Now()+arrive+o.params.wireTime(f.Len()), o.deliverFn, f.clone())
	}
	if corrupt {
		// The corrupted copy travelled instead of f; f dies here.
		f.Release()
	}
}

// Switch is a store-and-forward Ethernet switch with a static forwarding
// table and drop-tail output queues.
type Switch struct {
	env     *sim.Env
	name    string
	latency sim.Time
	jitter  sim.Time
	table   map[frame.Addr]*OutPort
	defRt   *OutPort // route for addresses not in the table (uplink)

	// Counters.
	Forwarded   uint64
	DropUnknown uint64
}

// SwitchParams configures a switch model.
type SwitchParams struct {
	// Latency is the internal forwarding latency from full frame
	// reception to the head of the output queue.
	Latency sim.Time
	// Jitter is the per-frame forwarding-latency variation (uniform in
	// [0, Jitter)): fabric arbitration, lookup contention, scheduling.
	// Frames from the same input port never reorder (per-flow FIFO is
	// preserved, as in real switches), but independent switches jitter
	// independently — which is what makes frames striped over two
	// switches arrive out of order (IPPS'07 §4 measures 45-50%).
	Jitter sim.Time
	// QueueCap is the per-output-port queue capacity in frames; frames
	// arriving at a full queue are dropped (congestion).
	QueueCap int
}

// DefaultSwitchParams models a commodity store-and-forward switch of the
// paper's era (D-Link DGS-1024T class): ~1.1 us forwarding latency with
// ~1 us variation and a modest per-port packet buffer.
func DefaultSwitchParams() SwitchParams {
	return SwitchParams{Latency: 1100 * sim.Nanosecond, Jitter: 1000 * sim.Nanosecond, QueueCap: 160}
}

// NewSwitch creates an empty switch; attach stations with AttachStation.
func NewSwitch(env *sim.Env, name string, params SwitchParams) *Switch {
	return &Switch{env: env, name: name, latency: params.Latency, jitter: params.Jitter,
		table: make(map[frame.Addr]*OutPort)}
}

// swInPort is one switch input port; it receives frames from a station's
// transmit side and forwards them. lastFwd enforces per-input-port FIFO
// despite jitter.
type swInPort struct {
	sw      *Switch
	lastFwd sim.Time
	fwdFn   func(any) // long-lived forwarding callback (arg: *Frame)
	fwd     *sim.Lane // lastFwd is monotone
}

func newSwInPort(sw *Switch) *swInPort {
	p := &swInPort{sw: sw, fwd: sw.env.NewLane()}
	p.fwdFn = func(x any) { p.forward(x.(*Frame)) }
	return p
}

func (p *swInPort) DeliverFrame(f *Frame) {
	sw := p.sw
	d := sw.latency
	if sw.jitter > 0 {
		d += sim.Time(sw.env.Rand().Int63n(int64(sw.jitter)))
	}
	at := sw.env.Now() + d
	if at < p.lastFwd {
		at = p.lastFwd // never reorder frames from the same input port
	}
	p.lastFwd = at
	p.fwd.SchedAtArg(at, p.fwdFn, f)
}

func (p *swInPort) forward(f *Frame) {
	sw := p.sw
	out, ok := sw.table[f.Dst]
	if !ok {
		if sw.defRt == nil {
			sw.DropUnknown++
			f.Release()
			return
		}
		out = sw.defRt
	}
	sw.Forwarded++
	out.Send(f) // drop counted (and the frame released) inside OutPort if queue full
}

// AttachStation connects a station (NIC) with the given address to the
// switch over a link with the given parameters and the switch's queue
// policy, returning the transmit port the station must send into.
func (sw *Switch) AttachStation(addr frame.Addr, station Receiver, lp LinkParams, queueCap int) *OutPort {
	// Downlink: switch -> station, with the switch's drop-tail queue.
	down := NewOutPort(sw.env, sw.name+"->"+addr.String(), lp, station, queueCap)
	sw.table[addr] = down
	// Uplink: station -> switch. The station's own ring bounds it.
	up := NewOutPort(sw.env, addr.String()+"->"+sw.name, lp, newSwInPort(sw), 0)
	return up
}

// OutPortFor exposes the switch's downlink port toward addr (for tests
// and stats collection).
func (sw *Switch) OutPortFor(addr frame.Addr) *OutPort { return sw.table[addr] }

// SetDefaultRoute installs the port frames with unknown destinations
// take — the uplink of an edge switch in a hierarchical fabric
// (IPPS'07 §6 future work: "communication paths that consist of
// multiple switches").
func (sw *Switch) SetDefaultRoute(o *OutPort) { sw.defRt = o }

// ConnectSwitch wires a trunk from sw toward peer (one direction): a
// transmit port on sw whose frames arrive at peer's forwarding logic.
// Call once per direction. lp describes the trunk; a link-aggregated
// trunk of k links is modelled as one link of k times the rate.
func (sw *Switch) ConnectSwitch(peer *Switch, lp LinkParams, queueCap int) *OutPort {
	return NewOutPort(sw.env, sw.name+"->"+peer.name, lp, newSwInPort(peer), queueCap)
}

// Route installs an explicit table entry: frames for addr leave through
// port o.
func (sw *Switch) Route(addr frame.Addr, o *OutPort) { sw.table[addr] = o }

// Host is the protocol layer's view from a NIC: interrupts delivered in
// scheduler context. The host then polls the NIC (PollRxOne, TakeTxDone).
type Host interface {
	Interrupt(n *NIC)
}

// NICParams configures a NIC model.
type NICParams struct {
	// RxDMAPerFrame and TxDMAPerFrame are fixed per-frame DMA engine
	// setup costs; DMAPsPerByte is the data movement rate over the I/O
	// bus (PCI-X / PCIe of the era: well above link rate so the wire,
	// not the bus, is the bottleneck).
	RxDMAPerFrame sim.Time
	TxDMAPerFrame sim.Time
	DMAPsPerByte  int64
	// IntrDelay is the latency from the NIC deciding to interrupt to
	// the host's handler running.
	IntrDelay sim.Time
	// TxIntrUnmaskable models the paper's 10-GBit/s NIC, which does not
	// allow send-path (transmit-completion) interrupts to be disabled
	// even while the protocol layer is polling (IPPS'07 §4).
	TxIntrUnmaskable bool
	// RxIntrUnmaskable disables the paper's §2.6 interrupt-avoidance
	// scheme entirely: receive interrupts fire even while the protocol
	// thread is polling. The ablation baseline for what masking buys.
	RxIntrUnmaskable bool
	// TxIntrCoalesce raises at most one transmit-completion interrupt
	// per this many completions (hardware moderation).
	TxIntrCoalesce int
}

// DefaultNICParams models a Tigon3-class 1-GBit/s NIC.
func DefaultNICParams() NICParams {
	return NICParams{
		RxDMAPerFrame:  600 * sim.Nanosecond,
		TxDMAPerFrame:  600 * sim.Nanosecond,
		DMAPsPerByte:   400, // 2.5 GByte/s I/O path
		IntrDelay:      900 * sim.Nanosecond,
		TxIntrCoalesce: 8,
	}
}

// Myri10GNICParams models the Myricom 10G-PCIE-8A-C: faster DMA, but
// transmit-completion interrupts cannot be masked (IPPS'07 §4) and
// coalesce poorly, which is the paper's explanation for the 10-GBit/s
// sender-side throughput ceiling (~88% of nominal).
func Myri10GNICParams() NICParams {
	p := DefaultNICParams()
	p.RxDMAPerFrame = 350 * sim.Nanosecond
	p.TxDMAPerFrame = 350 * sim.Nanosecond
	p.DMAPsPerByte = 200 // 5 GByte/s I/O path
	p.TxIntrUnmaskable = true
	p.TxIntrCoalesce = 3
	return p
}

// NIC models one Ethernet interface: a transmit path (DMA then wire) and
// a receive path (DMA into host buffers, then a maskable interrupt). The
// host drains received frames with PollRxOne and transmit completions with
// TakeTxDone, mirroring the paper's interrupt-avoidance scheme: the
// interrupt handler masks the NIC, a kernel thread polls until no events
// remain, then unmasks.
type NIC struct {
	env    *sim.Env
	name   string
	addr   frame.Addr
	params NICParams
	out    *OutPort
	dma    *sim.Resource
	host   Host

	rxRing      []*Frame // live entries are rxRing[rxHead:]; resets on drain
	rxHead      int      // so steady-state poll churn reuses one backing array
	txDone      int
	txSinceIntr int
	masked      bool
	pending     bool
	txDmaFn     func(any) // long-lived tx-DMA completion (arg: *Frame)
	rxDmaFn     func(any) // long-lived rx-DMA completion (arg: *Frame)
	intrFn      func()    // long-lived interrupt-delivery callback

	// Counters.
	RxFrames   uint64
	RxBytes    uint64
	TxFrames   uint64
	TxBytes    uint64
	Interrupts uint64 // interrupts actually delivered to the host
	RxIntr     uint64
	TxIntr     uint64
	Misaddr    uint64
}

// NewNIC creates a NIC with the given link-layer address.
func NewNIC(env *sim.Env, name string, addr frame.Addr, params NICParams) *NIC {
	if params.TxIntrCoalesce <= 0 {
		params.TxIntrCoalesce = 1
	}
	n := &NIC{
		env: env, name: name, addr: addr, params: params,
		dma: sim.NewResource(name + "/dma").On(env),
	}
	n.txDmaFn = func(x any) {
		f := x.(*Frame)
		n.TxFrames++
		n.TxBytes += uint64(f.Len())
		n.out.Send(f)
	}
	n.rxDmaFn = func(x any) {
		f := x.(*Frame)
		n.RxFrames++
		n.RxBytes += uint64(f.Len())
		n.rxRing = append(n.rxRing, f)
		n.raise(false)
	}
	n.intrFn = func() {
		n.pending = false
		n.Interrupts++
		if n.host != nil {
			n.host.Interrupt(n)
		}
	}
	return n
}

// Addr returns the NIC's link-layer address.
func (n *NIC) Addr() frame.Addr { return n.addr }

// Name returns the NIC name.
func (n *NIC) Name() string { return n.name }

// SetHost installs the protocol layer that receives this NIC's
// interrupts.
func (n *NIC) SetHost(h Host) { n.host = h }

// AttachUplink installs the transmit port toward the switch and registers
// transmit-completion reporting.
func (n *NIC) AttachUplink(up *OutPort) {
	n.out = up
	up.SetOnTx(func(f *Frame) { n.txCompleted(f) })
}

// Transmit hands a frame to the NIC: the DMA engine fetches it from host
// memory, then it queues for the wire. Called by the protocol layer after
// its per-frame send work.
func (n *NIC) Transmit(f *Frame) {
	work := n.params.TxDMAPerFrame + sim.Time(int64(f.Len())*n.params.DMAPsPerByte/1000)
	n.dma.SubmitArg(n.env, work, n.txDmaFn, f)
}

func (n *NIC) txCompleted(_ *Frame) {
	n.txDone++
	n.txSinceIntr++
	if n.txSinceIntr >= n.params.TxIntrCoalesce {
		n.txSinceIntr = 0
		n.raise(true)
	}
}

// DeliverFrame implements Receiver: a frame arrives off the wire, is
// address-filtered, DMA'd into a host buffer, and then an interrupt is
// raised (if unmasked).
func (n *NIC) DeliverFrame(f *Frame) {
	if f.Dst != n.addr && f.Dst != frame.Broadcast {
		n.Misaddr++
		f.Release()
		return
	}
	work := n.params.RxDMAPerFrame + sim.Time(int64(f.Len())*n.params.DMAPsPerByte/1000)
	n.dma.SubmitArg(n.env, work, n.rxDmaFn, f)
}

// raise requests an interrupt. Masked interrupts are suppressed (the
// paper's polling optimization) unless this is a transmit completion on a
// NIC whose send-path interrupts cannot be masked.
func (n *NIC) raise(isTx bool) {
	if n.pending {
		return
	}
	if n.masked {
		if isTx && !n.params.TxIntrUnmaskable {
			return
		}
		if !isTx && !n.params.RxIntrUnmaskable {
			return
		}
	}
	n.pending = true
	if isTx {
		n.TxIntr++
	} else {
		n.RxIntr++
	}
	n.env.SchedAfter(n.params.IntrDelay, n.intrFn)
}

// Mask disables interrupt generation (called by the interrupt handler
// before handing off to the polling protocol thread).
func (n *NIC) Mask() { n.masked = true }

// Unmask re-enables interrupts; if events arrived while masked, an
// interrupt is raised immediately so nothing is lost.
func (n *NIC) Unmask() {
	n.masked = false
	if n.RxPending() || n.txDone > 0 {
		n.raise(false)
	}
}

// PollRxOne removes and returns the oldest frame in the host receive
// buffers, or nil when none is pending.
func (n *NIC) PollRxOne() *Frame {
	if n.rxHead == len(n.rxRing) {
		return nil
	}
	f := n.rxRing[n.rxHead]
	n.rxRing[n.rxHead] = nil
	n.rxHead++
	if n.rxHead == len(n.rxRing) {
		n.rxRing, n.rxHead = n.rxRing[:0], 0
	}
	return f
}

// RxPending reports whether received frames await the host.
func (n *NIC) RxPending() bool { return len(n.rxRing) > n.rxHead }

// TakeTxDone returns and clears the count of transmit completions since
// the last call.
func (n *NIC) TakeTxDone() int {
	c := n.txDone
	n.txDone = 0
	return c
}

// TxQueueLen reports frames queued at the NIC's transmit port.
func (n *NIC) TxQueueLen() int { return n.out.Queued() }

// OutPort exposes the NIC's uplink port (stats, tests).
func (n *NIC) OutPort() *OutPort { return n.out }
