package core

import (
	"fmt"
	"slices"

	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// orderer is a connection's fence and ordering delivery (IPPS'07 §2.5):
// the receive-side operation records, the completion frontier, and the
// one reorder buffer. held keeps the frames the ordering predicate
// (canApply) does not admit yet, whether a fence or Config.Strict is
// what holds them back.
type orderer struct {
	rxOps    map[uint64]*rxOp
	frontier uint64   // all receive ops with id < frontier are complete
	fenced   fenceSet // incomplete forward-fenced ops
	held     []heldFrame
	applyNxt uint32 // Config.Strict: next sequence number to apply
}

// rxOp tracks one operation at the receive side for ordering, fences,
// completion and notification.
type rxOp struct {
	id       uint64
	opType   frame.OpType
	flags    frame.OpFlags
	total    uint32
	applied  uint32
	endSeq   uint32 // 1 + the highest sequence number among the op's frames
	remote   uint64 // destination address of the operation
	local    uint64 // ReadReply: the requester's read operation id
	complete bool
	isFenced bool
}

// heldFrame is a frame buffered at the receiver awaiting ordering.
type heldFrame struct {
	h       frame.Header
	payload []byte
	buf     *frame.Buf // pooled storage of payload, released once performed
	heldAt  sim.Time   // when buffering began (hold-duration histogram)
}

// fenceSet is the ids of the forward-fenced operations still open,
// ascending: on the send side those not yet fully acknowledged, on the
// receive side those not yet performed. Nothing after the first may
// proceed.
type fenceSet []uint64

func (f *fenceSet) add(id uint64) {
	i, _ := slices.BinarySearch(*f, id)
	*f = slices.Insert(*f, i, id)
}

func (f *fenceSet) remove(id uint64) {
	if i, ok := slices.BinarySearch(*f, id); ok {
		*f = slices.Delete(*f, i, i+1)
	}
}

// blocks reports whether an open fence comes before operation id.
func (f fenceSet) blocks(id uint64) bool { return len(f) > 0 && f[0] < id }

// restart clears the delivery state of an epoch that ends, for a rebirth
// or a teardown: the held frames' buffers go back to fl's pool, and the
// partially received ops are deleted, while completed ones stay.
func (o *orderer) restart(fl *freelists) {
	for _, hf := range o.held {
		fl.pool.Put(hf.buf)
	}
	for id, op := range o.rxOps {
		if !op.complete {
			delete(o.rxOps, id)
		}
	}
	*o = orderer{rxOps: o.rxOps, frontier: o.frontier}
}

// getRxOp finds or creates the receive-side operation record for a
// frame, taking new records from fl.
func (o *orderer) getRxOp(h frame.Header, fl *freelists) *rxOp {
	op, ok := o.rxOps[h.OpID]
	if !ok {
		if h.OpID < o.frontier {
			// The op was performed and its record collected, but its ACK
			// was lost, so the sender replays it after a reconnect (the
			// ARQ restarted, nothing dedupes it). The answer is a
			// completed record for this frame alone: one in the table
			// would sit below the frontier, where nothing collects it.
			return &rxOp{id: h.OpID, opType: h.OpType, flags: h.OpFlags, local: h.Local, complete: true}
		}
		op = fl.rx.Get()
		*op = rxOp{
			id: h.OpID, opType: h.OpType, flags: h.OpFlags,
			total: h.Total, remote: h.Remote, local: h.Local,
			endSeq: h.Seq + 1,
		}
		if o.rxOps == nil {
			o.rxOps = make(map[uint64]*rxOp)
		}
		o.rxOps[h.OpID] = op
		if op.flags&frame.FenceAfter != 0 {
			op.isFenced = true
			o.fenced.add(op.id)
		}
	}
	return op
}

// canApply is the ordering predicate. By default it is the fence
// semantics of §2.5: a frame may be performed unless an earlier
// forward-fenced operation is incomplete, or its own operation carries a
// backward fence and any earlier operation is incomplete. A coalesced
// frame never gets a container rxOp (its id is the last sub-op's id):
// it is always admitted, and applyFrame runs each sub-op through these
// rules as its own single-frame write. Under Config.Strict the predicate
// degenerates to exact sequence order, which subsumes the fences (the
// 2L-1G configuration); a coalesced frame is then held and applied
// whole.
func (o *orderer) canApply(h frame.Header, strict bool, fl *freelists) bool {
	if strict {
		return h.Seq == o.applyNxt
	}
	if h.Type == frame.TypeMultiData {
		return true
	}
	op := o.getRxOp(h, fl)
	return !o.fenced.blocks(op.id) && (op.flags&frame.FenceBefore == 0 || o.frontier >= op.id)
}

// tryApply performs one unit of the ARQ's output — an arriving frame or
// a held one, held since heldAt — through perform if the ordering
// engine admits it now.
func (o *orderer) tryApply(h frame.Header, payload []byte, heldAt sim.Time, strict bool, fl *freelists, perform func(frame.Header, []byte, sim.Time)) bool {
	if !o.canApply(h, strict, fl) {
		return false
	}
	perform(h, payload, heldAt)
	if strict {
		o.applyNxt++
	}
	return true
}

// accept hands the orderer a frame the ARQ accepted at now: perform
// runs it and what it unblocks, unless canApply holds it (held).
func (o *orderer) accept(h frame.Header, payload []byte, now sim.Time, strict bool, fl *freelists, perform func(frame.Header, []byte, sim.Time)) (held bool) {
	if o.tryApply(h, payload, 0, strict, fl, perform) {
		o.drain(strict, fl, perform)
		return false
	}
	o.hold(h, payload, now, fl)
	return true
}

// hold buffers frame h at now. The arrival frame's wire buffer is
// released when dispatch returns, so a held payload (at most one MTU)
// is copied into a buffer of its own from the pool; immediate applies
// stay copy-free.
func (o *orderer) hold(h frame.Header, payload []byte, now sim.Time, fl *freelists) {
	hf := heldFrame{h: h, heldAt: now}
	if len(payload) > 0 {
		hf.buf = fl.pool.Get()
		hf.payload = hf.buf.Bytes()[:copy(hf.buf.Bytes(), payload)]
	}
	o.held = append(o.held, hf)
}

// drain re-examines held frames until no more become applicable.
func (o *orderer) drain(strict bool, fl *freelists, perform func(frame.Header, []byte, sim.Time)) {
	for {
		progressed := false
		kept := o.held[:0]
		for _, hf := range o.held {
			if o.tryApply(hf.h, hf.payload, hf.heldAt, strict, fl, perform) {
				fl.pool.Put(hf.buf)
				progressed = true
			} else {
				kept = append(kept, hf)
			}
		}
		// Applied frames' buffers must not stay reachable in the slots
		// past the new length.
		clear(o.held[len(kept):])
		o.held = kept
		if !progressed {
			return
		}
	}
}

// performed books frame h's n payload bytes against its op and reports
// whether that completed it; a replayed op (getRxOp) books nothing.
func (o *orderer) performed(h frame.Header, n int, fl *freelists) (op *rxOp, done bool) {
	op = o.getRxOp(h, fl)
	if int32(h.Seq+1-op.endSeq) > 0 {
		op.endSeq = h.Seq + 1
	}
	if op.complete {
		return op, false
	}
	op.applied += uint32(n)
	return op, op.applied >= op.total
}

// complete marks op performed: its forward fence lifts and the frontier
// advances over every complete op, whose records go back to fl —
// except op's own, which the caller still reads: collected says the
// caller must recycle it when done.
func (o *orderer) complete(op *rxOp, fl *freelists) (collected bool) {
	op.complete = true
	if op.isFenced {
		o.fenced.remove(op.id)
	}
	for {
		f, ok := o.rxOps[o.frontier]
		if !ok || !f.complete {
			return collected
		}
		delete(o.rxOps, o.frontier)
		o.frontier++
		if f == op {
			collected = true
		} else {
			fl.rx.Put(f)
		}
	}
}

// acceptData hands an ARQ-accepted frame to the ordering engine: it is
// performed on arrival unless canApply holds it back, and whatever it
// unblocks follows.
func (c *Conn) acceptData(h frame.Header, payload []byte) {
	ep := c.ep
	ep.Stats.DataFramesRecv++
	ep.Stats.DataBytesRecv += uint64(len(payload))
	ep.emit(c.localID, obs.EvRxData, int64(h.Seq), int64(len(payload)))
	if c.accept(h, payload, ep.env.Now(), ep.cfg.Strict, &ep.free, c.perform) {
		c.noteHeld(h, payload)
	}
}

// perform applies a frame the orderer admitted; heldAt is when it was
// held (0 for one performed on arrival).
func (c *Conn) perform(h frame.Header, payload []byte, heldAt sim.Time) {
	c.applyFrame(h, payload)
	if c.ep.holdHist != nil && heldAt > 0 {
		c.ep.holdHist.Observe(float64(c.ep.env.Now()-heldAt) / 1000)
	}
}

// noteHeld counts and reports a frame the orderer just held.
func (c *Conn) noteHeld(h frame.Header, payload []byte) {
	ep := c.ep
	ep.Stats.HeldFrames++
	ep.emit(c.localID, obs.EvRxHold, int64(h.Seq), int64(len(payload)), spanOf{rx: c.frameSpan(h.OpType, h.OpID, h.Local)})
	if n := len(c.held); n > ep.Stats.HoldMax {
		ep.Stats.HoldMax = n
	}
}

// applyMulti performs a MultiData frame: each sub-op, read in place from
// the payload, becomes a synthetic single-frame Data write that flows
// through the ordinary ordering, fence and completion machinery, in
// issue order. Under Strict the sub-ops share the sequence number
// canApply just admitted, so all of them apply back to back. The payload
// was encoded by our own sender and arrived through the reliable ARQ, so
// a decode failure is a protocol bug.
func (c *Conn) applyMulti(h frame.Header, payload []byte) {
	r, err := frame.ReadMultiPayload(payload)
	for err == nil && r.Len() > 0 {
		var s frame.SubOp
		if s, err = r.Next(); err != nil {
			break
		}
		sh := frame.Header{
			Type: frame.TypeData, ConnID: h.ConnID, Seq: h.Seq,
			OpID: s.OpID, OpType: frame.OpWrite, OpFlags: s.Flags,
			Remote: s.Remote, Offset: 0, Total: uint32(len(s.Data)),
		}
		if c.canApply(sh, c.ep.cfg.Strict, &c.ep.free) {
			c.applyFrame(sh, s.Data)
		} else {
			c.hold(sh, s.Data, c.ep.env.Now(), &c.ep.free)
			c.noteHeld(sh, s.Data)
		}
	}
	if err != nil {
		panic(fmt.Sprintf("core: node %d bad MultiData payload: %v", c.ep.node, err))
	}
}

// applyFrame performs one frame: copies write/reply payload into memory
// or services a read request, then advances operation completion.
func (c *Conn) applyFrame(h frame.Header, payload []byte) {
	if h.Type == frame.TypeMultiData {
		c.applyMulti(h, payload)
		return
	}
	ep := c.ep
	op, done := c.performed(h, len(payload), &ep.free)
	ep.emit(c.localID, obs.EvRxApply, int64(h.Seq), int64(len(payload)), spanOf{rx: c.frameSpan(h.OpType, h.OpID, h.Local)})
	switch h.Type {
	case frame.TypeReadReq:
		c.serveRead(h)
		c.completeRxOp(op)
		return
	case frame.TypeData:
		if op.complete {
			// A replay of an op performed before a reconnect (see
			// getRxOp): its payload must never be re-applied over newer
			// data, but its last frame still earns a Solicit op the prompt
			// ACK its first performance sent (completeRxOp) and lost.
			if len(payload) > 0 {
				ep.Stats.DupFramesDropped++
			}
			if op.flags&frame.Solicit != 0 && h.Offset+uint32(len(payload)) >= h.Total {
				c.promptAck(h.Seq + 1)
			}
			return
		}
		if len(payload) > 0 {
			end := h.Remote + uint64(h.Offset) + uint64(len(payload))
			if end > uint64(len(ep.mem)) {
				panic(fmt.Sprintf("core: node %d remote write [%d,%d) outside memory",
					ep.node, h.Remote+uint64(h.Offset), end))
			}
			copy(ep.mem[h.Remote+uint64(h.Offset):end], payload)
		}
		if done {
			c.completeRxOp(op)
		}
	}
}

// completeRxOp marks a receive-side operation performed: fences lift,
// the frontier advances, notifications fire, read replies complete their
// read handles.
func (c *Conn) completeRxOp(op *rxOp) {
	if op.complete {
		return
	}
	ep := c.ep
	sp := c.frameSpan(op.opType, op.id, op.local)
	ep.emit(c.localID, obs.EvRxComplete, 0, int64(op.applied), spanOf{rx: sp})
	if op.opType == frame.OpReadReply {
		// The requester's read is done when the reply data has landed.
		sp.EndAt(ep.env.Now())
	}
	// A frontier-collected op is still read below: it is recycled at the
	// end (only a later dispatch's getRxOp pulls from the freelist).
	collected := c.complete(op, &ep.free)
	if op.flags&frame.Solicit != 0 {
		// Solicited: bypass the delayed-ACK policy so the initiator's
		// completion takes a round trip, not an AckDelay. If earlier frames
		// are missing, a second prompt ACK follows when the cumulative
		// point passes the op's own last frame (not maxSeenPlus1: later
		// losses are not this op's business).
		c.promptAck(op.endSeq)
	}
	if op.flags&frame.Notify != 0 && op.opType == frame.OpWrite {
		ep.Stats.Notifies++
		n := Notification{From: c.remoteNode, OpID: op.id, Addr: op.remote, Len: int(op.total)}
		var q *sim.Mailbox[Notification]
		if r := regionOf(ep.routes, op.remote, 1); r != nil {
			q = r.q
		} else {
			q = c.notifyGroup()
		}
		ep.notes.Send(ep.env, n)
		ep.cpus.Proto.SubmitArg(ep.env, ep.costs.UserWake, ep.noteFn, q)
	}
	if op.opType == frame.OpReadReply {
		if t, ok := c.pendingReads[op.local]; ok {
			if t.h != nil {
				t.h.acked = op.applied
			}
			c.finish(t, nil)
			ep.free.recycle(t)
		}
	}
	if collected {
		ep.free.rx.Put(op)
	}
}

// serveRead services a remote read request: snapshot the requested
// memory and send it back as a ReadReply operation whose Remote is the
// requester's destination address and whose Local carries the
// requester's read operation id (IPPS'07 §2.2-2.3).
func (c *Conn) serveRead(h frame.Header) {
	ep := c.ep
	end := h.Remote + uint64(h.Total)
	if end > uint64(len(ep.mem)) {
		panic(fmt.Sprintf("core: node %d read source [%d,%d) outside memory", ep.node, h.Remote, end))
	}
	ep.Stats.ReadsServed++
	data := ep.snapshot(h.Remote, int(h.Total))
	t := ep.free.ops.Get()
	*t = txOp{
		Op: Op{Kind: frame.OpReadReply, Remote: h.Local, Local: h.OpID, Size: int(h.Total)},
		id: c.nextOpID, data: data, total: h.Total, subs: t.subs,
	}
	// The reply txOp continues the requester's read span: its frame
	// transmissions, retransmits and ACKs all belong to that read.
	t.span = c.frameSpan(h.OpType, h.OpID, h.Local)
	ep.emit(c.localID, obs.EvReadServe, int64(h.Seq), int64(h.Total), spanOf{rx: t.span})
	c.nextOpID++
	ep.Stats.OpsStarted++
	c.issue(t)
}
