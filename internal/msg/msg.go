// Package msg is an MPI-style message-passing library over MultiEdge —
// the second application domain of the paper's thesis (IPPS'07 §1:
// edge-based protocols should serve "different application domains" on
// one physical interconnect; §5 compares against MPI-over-VIA work).
//
// Transport mapping:
//
//   - Small messages go EAGER: one remote write into a per-sender ring
//     slot at the receiver, flagged FenceBefore|Notify. The backward
//     fence gives pairwise FIFO message order even over striped,
//     out-of-order links; the notification drives the receiver's
//     matching engine.
//   - Large messages go RENDEZVOUS: the sender stages the payload and
//     sends a ready-to-send (RTS) record; when a matching receive is
//     posted, the receiver pulls the payload with a single remote READ
//     straight into its buffer and returns a FIN. Zero intermediate
//     copies of the bulk data. A sender that finds every staging buffer
//     taken sends its RTS unstaged and pushes the payload once matched,
//     so no send holds a bounded resource while it waits for its match.
//   - Ring slots are flow-controlled with credits returned in batches.
//
// Collectives (Barrier, Bcast, Reduce, Allreduce, Alltoall) are built
// from the point-to-point layer with classic logarithmic algorithms.
package msg

import (
	"encoding/binary"
	"fmt"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

const (
	// SlotBytes is one eager ring slot (header + payload).
	SlotBytes = 8 << 10
	// RingSlots is the per-sender ring depth at each receiver.
	RingSlots = 16
	// EagerMax is the largest payload sent eagerly.
	EagerMax = SlotBytes - slotHdr
	// stagingBufs x stagingBytes bound concurrent rendezvous sends.
	stagingBufs  = 4
	stagingBytes = 1 << 20
	// MaxMessage is the largest supported message.
	MaxMessage = stagingBytes

	slotHdr = 24 // kind u8, pad, tag i32(4), size u32, seq u32, addr u64

	kindEager  = 1
	kindRTS    = 2
	kindFIN    = 3
	kindCredit = 4
	kindPushed = 5 // an unstaged payload is in the receiver's pull window

	unstaged = ^uint64(0) // the source address of an RTS sent without a buffer
)

// AnyTag matches any tag in Recv.
const AnyTag = -1

// Comm is one node's communicator.
type Comm struct {
	node  int
	n     int
	ep    *core.Endpoint
	conns []*core.Conn
	env   *sim.Env

	notify *sim.Mailbox[core.Notification] // writes into the rings and credit words

	ringBase    uint64 // my inbound rings, one per peer
	creditBase  uint64 // my inbound credit counters, one per peer
	outSlot     uint64 // staging for outgoing slot writes
	outCredit   uint64 // staging for credit returns
	bounce      uint64 // inbound rendezvous pull window
	bounceToken sim.Mailbox[struct{}]
	pushed      *sim.Signal // the unstaged claim holding the pull window waits on it
	staging     []uint64
	stageFree   sim.Mailbox[int] // indices of free staging buffers

	// Sender-side per peer: next ring slot and remaining credits.
	txSlot    []int
	txCredits []int
	txWaiters []*sim.Signal // senders blocked on credits (any peer), in arrival order

	// Receiver-side per peer: slots consumed since last credit return.
	rxConsumed []int

	// Matching engine.
	unexpected []*inMsg
	posted     []*postedRecv
	pendingFin map[uint32]*sim.Signal // rendezvous seq -> sender completion
	nextSeq    uint32

	Stats Stats
}

// Stats counts message-layer events.
type Stats struct {
	EagerSent, EagerRecv  uint64
	RndvSent, RndvRecv    uint64
	BytesSent, BytesRecv  uint64
	CreditsReturned       uint64
	UnexpectedMax, Posted int
	CollectiveOps         uint64
	SendStalls            uint64 // times a sender blocked on credits
}

// inMsg is a received-but-unclaimed message.
type inMsg struct {
	from, tag int
	kind      int
	data      []byte // eager payload (copied out of the ring)
	srcAddr   uint64 // rendezvous source
	size      int
	seq       uint32
}

// postedRecv is a receive waiting for a match.
type postedRecv struct {
	from, tag int
	done      sim.Signal
	result    []byte
}

// New builds one communicator per node over an established full mesh.
func New(cl *cluster.Cluster, conns [][]*core.Conn) []*Comm {
	n := cl.Cfg.Nodes
	comms := make([]*Comm, n)
	for i := 0; i < n; i++ {
		ep := cl.Nodes[i].EP
		c := &Comm{
			node: i, n: n, ep: ep, conns: conns[i], env: ep.Env(),
			txSlot: make([]int, n), txCredits: make([]int, n),
			rxConsumed: make([]int, n),
			pendingFin: make(map[uint32]*sim.Signal),
		}
		peers := max(n-1, 1)
		c.ringBase = ep.Alloc(peers * RingSlots * SlotBytes)
		c.creditBase = ep.Alloc(peers * 8) // right after the rings: one region holds both
		c.notify = ep.NotifyRegion(c.ringBase, int(c.creditBase-c.ringBase)+peers*8)
		c.outSlot = ep.Alloc(SlotBytes)
		c.outCredit = ep.Alloc(8)
		c.bounce = ep.Alloc(stagingBytes)
		c.bounceToken.Send(ep.Env(), struct{}{})
		for b := 0; b < stagingBufs; b++ {
			c.staging = append(c.staging, ep.Alloc(stagingBytes))
			c.stageFree.Send(ep.Env(), b)
		}
		for p := 0; p < n; p++ {
			c.txCredits[p] = RingSlots
		}
		comms[i] = c
	}
	for _, c := range comms {
		c.env.Go(fmt.Sprintf("msg-svc-%d", c.node), func(p *sim.Proc) { c.serve(p) })
		c.registerObs()
	}
	return comms
}

// registerObs mirrors the communicator's Stats into the cluster's obs
// registry (no-op when observability is off).
func (c *Comm) registerObs() {
	r := c.ep.Obs()
	if r == nil {
		return
	}
	nl := obs.NodeLabel(c.node)
	r.AddCollector(func(emit func(obs.Sample)) {
		cnt := func(name string, v uint64) {
			emit(obs.Sample{Name: name, Labels: []obs.Label{nl}, Value: float64(v), Type: obs.TypeCounter})
		}
		cnt("msg_eager_sent_total", c.Stats.EagerSent)
		cnt("msg_eager_recv_total", c.Stats.EagerRecv)
		cnt("msg_rndv_sent_total", c.Stats.RndvSent)
		cnt("msg_rndv_recv_total", c.Stats.RndvRecv)
		cnt("msg_bytes_sent_total", c.Stats.BytesSent)
		cnt("msg_bytes_recv_total", c.Stats.BytesRecv)
		cnt("msg_credits_returned_total", c.Stats.CreditsReturned)
		cnt("msg_collective_ops_total", c.Stats.CollectiveOps)
		cnt("msg_send_stalls_total", c.Stats.SendStalls)
		emit(obs.Sample{Name: "msg_unexpected_max", Labels: []obs.Label{nl},
			Value: float64(c.Stats.UnexpectedMax), Type: obs.TypeGauge})
		emit(obs.Sample{Name: "msg_posted", Labels: []obs.Label{nl},
			Value: float64(c.Stats.Posted), Type: obs.TypeGauge})
	})
}

// Rank returns this communicator's node id.
func (c *Comm) Rank() int { return c.node }

// Size returns the number of nodes.
func (c *Comm) Size() int { return c.n }

func peerIndex(me, peer int) int {
	if peer < me {
		return peer
	}
	return peer - 1
}

// slotAddr returns the address of sender's slot s in receiver's ring
// (layout identical on every node).
func (c *Comm) slotAddr(sender, receiver, s int) uint64 {
	return c.ringBase + uint64((peerIndex(receiver, sender)*RingSlots+s)*SlotBytes)
}

func (c *Comm) creditAddr(sender, receiver int) uint64 {
	return c.creditBase + uint64(peerIndex(receiver, sender)*8)
}

// ---------------------------------------------------------------------
// Point-to-point.
// ---------------------------------------------------------------------

// Send delivers data to node `to` under `tag`, blocking until the
// message is safely accepted (eager: acknowledged end-to-end;
// rendezvous: pulled by the receiver). Message order between a pair of
// nodes is preserved.
func (c *Comm) Send(p *sim.Proc, to, tag int, data []byte) {
	if to == c.node {
		panic("msg: send to self")
	}
	if len(data) > MaxMessage {
		panic(fmt.Sprintf("msg: message %d exceeds MaxMessage %d", len(data), MaxMessage))
	}
	if len(data) <= EagerMax {
		sp := c.ep.Obs().StartLayerSpan(c.node, "msg", "send-eager", len(data))
		c.sendEager(p, to, tag, data)
		sp.EndAt(c.env.Now())
		return
	}
	sp := c.ep.Obs().StartLayerSpan(c.node, "msg", "send-rndv", len(data))
	c.sendRendezvous(p, to, tag, data)
	sp.EndAt(c.env.Now())
}

// takeSlot blocks until a ring credit for `to` is available and claims
// the next slot.
func (c *Comm) takeSlot(p *sim.Proc, to int) int {
	for c.txCredits[to] == 0 {
		c.Stats.SendStalls++
		sig := &sim.Signal{}
		c.txWaiters = append(c.txWaiters, sig)
		p.Wait(sig)
	}
	c.txCredits[to]--
	s := c.txSlot[to]
	c.txSlot[to] = (s + 1) % RingSlots
	return s
}

// wakeWaiters resumes every sender blocked in takeSlot, in the order
// they blocked.
func (c *Comm) wakeWaiters() {
	for _, sig := range c.txWaiters {
		sig.Fire(c.env)
	}
	c.txWaiters = nil
}

// writeSlot stages a slot record and writes it into the receiver's
// ring with FenceBefore|Notify (pairwise FIFO + notification).
func (c *Comm) writeSlot(p *sim.Proc, to, s int, kind int, tag int, size int, seq uint32, addr uint64, payload []byte) {
	mem := c.ep.Mem()
	b := mem[c.outSlot : c.outSlot+SlotBytes]
	b[0] = byte(kind)
	binary.LittleEndian.PutUint32(b[4:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(b[8:], uint32(size))
	binary.LittleEndian.PutUint32(b[12:], seq)
	binary.LittleEndian.PutUint64(b[16:], addr)
	copy(b[slotHdr:], payload)
	c.write(p, to, core.Op{
		Remote: c.slotAddr(c.node, to, s), Local: c.outSlot,
		Size: slotHdr + len(payload), Kind: frame.OpWrite,
		Flags: frame.FenceBefore | frame.Notify,
	})
}

// write issues op to rank `to` without waiting for it.
func (c *Comm) write(p *sim.Proc, to int, op core.Op) {
	if _, err := c.conns[to].Do(p, op); err != nil {
		failStop("write to", to, err)
	}
}

// failStop is msg's one fail-stop: msg has no recovery of its own, so
// an operation with rank peer that fails ends the run, naming the
// operation, the peer and the error.
func failStop(what string, peer int, err error) {
	panic(fmt.Sprintf("msg: %s rank %d failed: %v", what, peer, err))
}

func (c *Comm) sendEager(p *sim.Proc, to, tag int, data []byte) {
	s := c.takeSlot(p, to)
	c.writeSlot(p, to, s, kindEager, tag, len(data), 0, 0, data)
	c.Stats.EagerSent++
	c.Stats.BytesSent += uint64(len(data))
}

func (c *Comm) sendRendezvous(p *sim.Proc, to, tag int, data []byte) {
	buf, staged := c.stageFree.TryRecv() // bound concurrent rendezvous
	addr := unstaged
	if staged {
		addr = c.staging[buf]
		copy(c.ep.Mem()[addr:addr+uint64(len(data))], data)
	}
	seq := c.nextSeq
	c.nextSeq++
	fin := &sim.Signal{}
	c.pendingFin[seq] = fin
	s := c.takeSlot(p, to)
	c.writeSlot(p, to, s, kindRTS, tag, len(data), seq, addr, nil)
	c.Stats.RndvSent++
	c.Stats.BytesSent += uint64(len(data))
	p.Wait(fin) // receiver pulled the data, or claimed the unstaged message
	if staged {
		c.stageFree.Send(c.env, buf)
		return
	}
	// Push the payload into the claiming receiver's pull window (at the
	// same address on every node) a slot at a time through outSlot;
	// kindPushed's backward fence orders it after the writes.
	for off := 0; off < len(data); off += SlotBytes {
		n := copy(c.ep.Mem()[c.outSlot:c.outSlot+SlotBytes], data[off:])
		c.write(p, to, core.Op{Remote: c.bounce + uint64(off), Local: c.outSlot, Size: n, Kind: frame.OpWrite})
	}
	c.sendCtl(p, to, kindPushed, 0, 0, 0, 0)
}

// Recv blocks until a message from `from` (which must be a concrete
// rank) with the given tag (or AnyTag) arrives, and returns its
// payload.
func (c *Comm) Recv(p *sim.Proc, from, tag int) []byte {
	if m := c.takeUnexpected(from, tag); m != nil {
		return c.claim(p, m)
	}
	pr := &postedRecv{from: from, tag: tag}
	c.posted = append(c.posted, pr)
	c.Stats.Posted = max(c.Stats.Posted, len(c.posted))
	p.Wait(&pr.done)
	return pr.result
}

// takeUnexpected removes and returns the oldest matching queued message.
func (c *Comm) takeUnexpected(from, tag int) *inMsg {
	for i, m := range c.unexpected {
		if m.from == from && (tag == AnyTag || m.tag == tag) {
			c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
			return m
		}
	}
	return nil
}

// claim finishes delivery of a matched message in the receiver's
// context: eager data is already copied out; rendezvous data is pulled
// with a remote read here.
func (c *Comm) claim(p *sim.Proc, m *inMsg) []byte {
	if m.kind == kindEager {
		return m.data
	}
	// Rendezvous: pull the staged payload (at most MaxMessage, the
	// window's size) from the sender into the bounce window (serialized
	// by a token: concurrent pulls share it). An unstaged one is pushed
	// into the window by its sender, whom a FIN asks for it.
	c.bounceToken.Recv(p)
	if m.srcAddr == unstaged {
		c.pushed = &sim.Signal{}
		c.sendCtl(p, m.from, kindFIN, 0, 0, m.seq, 0)
		p.Wait(c.pushed)
	} else if err := c.conns[m.from].Run(p, core.Op{Remote: m.srcAddr, Local: c.bounce, Size: m.size, Kind: frame.OpRead}); err != nil {
		failStop("rendezvous pull from", m.from, err)
	}
	out := make([]byte, m.size)
	copy(out, c.ep.Mem()[c.bounce:c.bounce+uint64(m.size)])
	c.bounceToken.Send(c.env, struct{}{})
	c.Stats.RndvRecv++
	c.Stats.BytesRecv += uint64(m.size)
	if m.srcAddr != unstaged {
		// FIN: tell the sender its staging buffer is free.
		c.sendCtl(p, m.from, kindFIN, 0, 0, m.seq, 0)
	}
	return out
}

// sendCtl sends a control record (FIN/credit) through the ring. It
// takes a slot, and so a ring credit, like any eager message: control
// records are small and self-limiting (at most one FIN per staging
// buffer, credits batched), so they can wait for credits like data.
func (c *Comm) sendCtl(p *sim.Proc, to, kind, tag, size int, seq uint32, addr uint64) {
	s := c.takeSlot(p, to)
	c.writeSlot(p, to, s, kind, tag, size, seq, addr, nil)
}

// ---------------------------------------------------------------------
// Service process: notification demultiplexing and matching.
// ---------------------------------------------------------------------

func (c *Comm) serve(p *sim.Proc) {
	for {
		c.handle(p, c.notify.Recv(p))
	}
}

func (c *Comm) handle(p *sim.Proc, n core.Notification) {
	mem := c.ep.Mem()
	kind := int(mem[n.Addr])
	from := n.From
	if kind == kindCredit {
		// Credit records are 8 bytes at the credit word, not a ring slot.
		c.txCredits[from] += int(binary.LittleEndian.Uint32(mem[n.Addr+4:]))
		c.wakeWaiters()
		return
	}
	b := mem[n.Addr : n.Addr+uint64(slotHdr)]
	tag := int(int32(binary.LittleEndian.Uint32(b[4:])))
	size := int(binary.LittleEndian.Uint32(b[8:]))
	seq := binary.LittleEndian.Uint32(b[12:])
	addr := binary.LittleEndian.Uint64(b[16:])
	switch kind {
	case kindFIN:
		if sig, ok := c.pendingFin[seq]; ok {
			delete(c.pendingFin, seq)
			sig.Fire(c.env)
		}
		c.creditSlot(p, from)
		return
	case kindPushed:
		c.pushed.Fire(c.env)
		c.creditSlot(p, from)
		return
	}
	m := &inMsg{from: from, tag: tag, kind: kind, size: size, seq: seq, srcAddr: addr}
	if kind == kindEager {
		data := make([]byte, size)
		copy(data, mem[n.Addr+uint64(slotHdr):n.Addr+uint64(slotHdr+size)])
		m.data = data
		c.Stats.EagerRecv++
		c.Stats.BytesRecv += uint64(size)
	}
	c.creditSlot(p, from)
	// Match against posted receives.
	for i, pr := range c.posted {
		if pr.from == from && (pr.tag == AnyTag || pr.tag == m.tag) {
			c.posted = append(c.posted[:i], c.posted[i+1:]...)
			c.deliver(pr, m)
			return
		}
	}
	c.unexpected = append(c.unexpected, m)
	c.Stats.UnexpectedMax = max(c.Stats.UnexpectedMax, len(c.unexpected))
}

// deliver completes a posted receive. Rendezvous pulls run in their own
// process so the service loop stays responsive.
func (c *Comm) deliver(pr *postedRecv, m *inMsg) {
	if m.kind == kindEager {
		pr.result = m.data
		pr.done.Fire(c.env)
		return
	}
	c.env.Go(fmt.Sprintf("msg-pull-%d", c.node), func(p2 *sim.Proc) {
		pr.result = c.claim(p2, m)
		pr.done.Fire(c.env)
	})
}

// creditSlot accounts one consumed ring slot and returns credits in
// batches of RingSlots/2.
func (c *Comm) creditSlot(p *sim.Proc, from int) {
	c.rxConsumed[from]++
	if c.rxConsumed[from] < RingSlots/2 {
		return
	}
	batch := c.rxConsumed[from]
	c.rxConsumed[from] = 0
	c.Stats.CreditsReturned += uint64(batch)
	mem := c.ep.Mem()
	b := mem[c.outCredit : c.outCredit+8]
	b[0] = kindCredit
	binary.LittleEndian.PutUint32(b[4:], uint32(batch))
	// Credits bypass the ring: a plain fenced+notifying write into the
	// sender's credit word.
	c.write(p, from, core.Op{
		Remote: c.creditAddr(c.node, from), Local: c.outCredit, Size: 8,
		Kind: frame.OpWrite, Flags: frame.FenceBefore | frame.Notify, Handler: true,
	})
}
