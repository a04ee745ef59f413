package core

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"multiedge/internal/frame"
	"multiedge/internal/phys"
	"multiedge/internal/race"
	"multiedge/internal/sim"
)

// The data-path explorer (DESIGN.md "Data-path explorer") runs the
// bare components of two connection ends against each other over a
// scripted wire and walks every schedule within small bounds. The
// sender is arqTx, railSet and ccState; the receiver is arqRx, orderer
// and railSet, with a byte array for memory. Each rail is a FIFO queue
// each way: data frames go one way, ACKs and NACKs the other. The
// sender puts on the wire whatever arqTx.next gives it, after every
// step; the receiver acknowledges and scans for gaps only when a step
// says so, and time moves only at a NACK scan.

// dpPay is the payload of every full frame: small, so the receiver's
// memory is a few bytes and every frame of an op is distinct.
const dpPay = 2

// Budgets of one schedule, beyond the ones the test cases choose.
const (
	dpDrops = 2 // frames dropped, either way
	dpDups  = 1 // data frames duplicated: a control frame's copy is a stale ACK or a second NACK
	dpRTOs  = 2 // retransmission timeouts fired
	dpNACKs = 2 // NACK frames sent
)

// dpOp is one write of a program: its flags and how many frames it has.
type dpOp struct {
	flags  frame.OpFlags
	frames int
}

// dpCase is everything but the schedule.
type dpCase struct {
	prog    []dpOp
	window  int
	links   int
	goBackN bool
	strict  bool
	isn     uint32 // initial sequence number, both ends
}

func (k dpCase) String() string {
	var ops []string
	for _, o := range k.prog {
		ops = append(ops, fmt.Sprintf("%d%s", o.frames, dpFlagNames(o.flags)))
	}
	mode := "SR"
	if k.goBackN {
		mode = "GBN"
	}
	return fmt.Sprintf("[%s] window %d, %d rail(s), %s, strict %v, isn %#x",
		strings.Join(ops, " "), k.window, k.links, mode, k.strict, k.isn)
}

func dpFlagNames(f frame.OpFlags) string {
	s := ""
	for _, n := range []struct {
		f frame.OpFlags
		s string
	}{{frame.FenceBefore, "B"}, {frame.FenceAfter, "A"}, {frame.Solicit, "S"}} {
		if f&n.f != 0 {
			s += n.s
		}
	}
	return s
}

// dpMsg is one frame on the wire, queued on rail li, data going
// forward (fwd) or control coming back: a cumulative ACK, carrying the
// list of a NACK when nack is set. Headers and lists are never written
// once sent, so copies of a state share them.
type dpMsg struct {
	li      int
	fwd     bool
	h       *frame.Header
	payload []byte
	ack     uint32
	nack    []uint32
}

// dpFrame is the receiver's record of one frame, by index (seq - isn).
type dpFrame struct {
	applied  uint8 // times its payload was written to memory
	accepted bool  // the ARQ took it
	dropped  bool  // the wire dropped a copy
}

// dpState is one explored state: both ends, the wire, the budgets spent
// and the bookkeeping the properties need. Its slices live in arrays of
// the struct where they fit, so copying a state is one allocation.
type dpState struct {
	k   *dpCase
	cfg *Config
	ref refOrder

	tx      arqTx
	txRails railSet
	cc      ccState
	ops     []*txOp // by op id
	done    []bool  // the sender ended the op: every frame acknowledged
	free    freelists

	rx      arqRx
	ord     orderer
	rxRails railSet
	mem     []byte
	frames  []dpFrame

	wire    []dpMsg // every rail's queues, each in order
	now     sim.Time
	lastAck uint32 // the last cumulative ACK the receiver sent
	drops   int
	dups    int
	rtos    int
	nacks   int

	bad   string     // the first property violated, with its detail
	cover dpCoverage // what this step reached

	b dpBufs
}

// dpBufs backs a state's slices (see own).
type dpBufs struct {
	ops      [3]txOp
	opPtrs   [3]*txOp
	txOps    [3]*txOp
	tfs      [4]txFrame
	retrans  [seqRingMin]seqSlot[*txFrame]
	retransQ [8]uint32
	txFenced [3]uint64
	txRails  [2]rail
	done     [3]bool
	rcv      [seqRingMin]seqSlot[rcvSlot]
	rxOps    [3]rxOp
	fenced   [3]uint64
	held     [6]heldFrame
	rxRails  [2]rail
	mem      [6 * dpPay]byte
	frames   [6]dpFrame
	wire     [12]dpMsg
	refDone  [6]bool
	begun    [3]int
	refOpsOK [3]int
	pending  [6]uint32
}

// own copies src into buf, or into fresh memory if it does not fit; a
// nil src stays nil (a seqRing with no slots is one never built).
func own[T any](buf []T, src []T) []T {
	if src == nil {
		return nil
	}
	if len(src) > len(buf) {
		return slices.Clone(src)
	}
	return buf[:copy(buf, src)]
}

// dpCoverage is what the coverage targets count.
type dpCoverage struct {
	wrap, nackRepair, rtoRepair, fenceRelease, dupDropped int
	held                                                  int
}

func (c *dpCoverage) add(o dpCoverage) {
	c.wrap += o.wrap
	c.nackRepair += o.nackRepair
	c.rtoRepair += o.rtoRepair
	c.fenceRelease += o.fenceRelease
	c.dupDropped += o.dupDropped
	c.held += o.held
}

func newDPState(k *dpCase) *dpState {
	cfg := DefaultConfig()
	cfg.Window, cfg.GoBackN, cfg.Strict = k.window, k.goBackN, k.strict
	cfg.DeadInterval, cfg.MaxRetries = 0, 0 // an explorer clock never declares death
	s := &dpState{k: k, cfg: &cfg, now: 1}  // a held frame's heldAt is never 0
	s.free.pool = &phys.Pool{}              // the case's states share it, never a buffer
	sizes := make([]int, len(k.prog))
	flags := make([]frame.OpFlags, len(k.prog))
	remote := uint64(0)
	for id, o := range k.prog {
		sizes[id], flags[id] = o.frames, o.flags
		data := make([]byte, o.frames*dpPay)
		for j := range data {
			data[j] = byte(16*(id+1) + j)
		}
		s.b.ops[id] = txOp{Op: Op{Kind: frame.OpWrite, Flags: o.flags, Remote: remote}, id: uint64(id), data: data, total: uint32(len(data))}
		remote += uint64(len(data))
		s.ops = append(s.ops, &s.b.ops[id])
		s.tx.nextOpID++
		s.tx.enqueue(s.ops[id])
	}
	s.ref = *newRefOrder(buildProgram(flags, sizes), k.strict)
	s.tx.sndUna, s.tx.sndNxt = k.isn, k.isn
	s.txRails.rails = make([]rail, k.links)
	s.done = make([]bool, len(k.prog))
	s.rx.rcvNxt, s.rx.maxSeenPlus1, s.lastAck = k.isn, k.isn, k.isn
	s.ord.applyNxt = k.isn
	s.rxRails.rails = make([]rail, k.links)
	for li := range s.rxRails.rails {
		s.rxRails.rails[li].high = k.isn
	}
	s.mem = make([]byte, remote)
	s.frames = make([]dpFrame, len(s.ref.performed))
	s.pump()
	return s.clone() // every slice into its own array
}

// clone copies the state deeply, remapping the sender's op and frame
// records onto the copy's, and giving each held payload a buffer of its
// own. Freelists start empty: they only reuse memory.
func (s *dpState) clone() *dpState {
	c := new(dpState)
	*c = *s
	b := &c.b
	c.ops = b.opPtrs[:0]
	for i, t := range s.ops {
		b.ops[i] = *t
		c.ops = append(c.ops, &b.ops[i])
	}
	c.tx.txOps = own(b.txOps[:], s.tx.txOps)
	for i, t := range c.tx.txOps {
		c.tx.txOps[i] = c.ops[t.id]
	}
	c.tx.retrans.slots = own(b.retrans[:], s.tx.retrans.slots)
	n := 0
	for i := range c.tx.retrans.slots {
		if sl := &c.tx.retrans.slots[i]; sl.full {
			tf := &txFrame{}
			if n < len(b.tfs) {
				tf = &b.tfs[n]
			}
			*tf = *sl.val
			tf.op = c.ops[tf.op.id]
			sl.val = tf
			n++
		}
	}
	c.tx.retransQ = own(b.retransQ[:], s.tx.retransQ)
	c.tx.txFenced = own(b.txFenced[:], s.tx.txFenced)
	c.txRails.rails = own(b.txRails[:], s.txRails.rails)
	c.done = own(b.done[:], s.done)
	c.free = freelists{pool: s.free.pool}

	c.rx.rcv.slots = own(b.rcv[:], s.rx.rcv.slots)
	c.ord.rxOps = nil
	if len(s.ord.rxOps) > 0 {
		c.ord.rxOps = make(map[uint64]*rxOp, len(s.ord.rxOps))
		n := 0
		for id, o := range s.ord.rxOps {
			no := &rxOp{}
			if n < len(b.rxOps) {
				no = &b.rxOps[n]
			}
			*no = *o
			c.ord.rxOps[id] = no
			n++
		}
	}
	c.ord.fenced = own(b.fenced[:], s.ord.fenced)
	c.ord.held = own(b.held[:], s.ord.held)
	for i := range c.ord.held {
		if hf := &c.ord.held[i]; hf.buf != nil {
			hf.buf = c.free.pool.Get()
			hf.payload = hf.buf.Bytes()[:copy(hf.buf.Bytes(), hf.payload)]
		}
	}
	c.rxRails.rails = own(b.rxRails[:], s.rxRails.rails)
	c.mem = own(b.mem[:], s.mem)
	c.frames = own(b.frames[:], s.frames)
	c.wire = own(b.wire[:], s.wire)
	c.ref.performed = own(b.refDone[:], s.ref.performed)
	c.ref.begun = own(b.begun[:], s.ref.begun)
	c.ref.done = own(b.refOpsOK[:], s.ref.done)
	c.ref.pending = own(b.pending[:], s.ref.pending)
	c.cover = dpCoverage{}
	return c
}

func (s *dpState) fail(format string, args ...any) {
	if s.bad == "" {
		s.bad = fmt.Sprintf(format, args...)
	}
}

// pump puts on the wire every frame the sender has to give.
func (s *dpState) pump() {
	for {
		tf, repair := s.tx.next(&s.free, s.cc.ccRetxOK(s.cfg), s.cc.effWindow(s.cfg), dpPay, s.cfg.AckEvery)
		if tf == nil {
			return
		}
		tf.retx = tf.retx || repair
		tf.link = s.txRails.pickLink(nil, false, false, 0)
		tf.txAt = s.now
		h := dataHeader(tf, 0, 0)
		s.wire = append(s.wire, dpMsg{li: tf.link, fwd: true, h: &h, payload: tf.payload})
	}
}

// head is the index in wire of the head of rail li's queue going
// forward (fwd) or back, -1 if the queue is empty.
func (s *dpState) head(li int, fwd bool) int {
	for i, m := range s.wire {
		if m.li == li && m.fwd == fwd {
			return i
		}
	}
	return -1
}

// deliver hands the head of rail li's queue, data (fwd) or control
// (!fwd), to its end.
func (s *dpState) deliver(li int, fwd bool) {
	i := s.head(li, fwd)
	m := s.wire[i]
	s.wire = slices.Delete(s.wire, i, i+1)
	if fwd {
		s.receive(li, m)
		return
	}
	if int32(m.ack-s.tx.sndNxt) > 0 {
		s.fail("an ACK covers %d, beyond what was sent (%d)", m.ack, s.tx.sndNxt)
	}
	una := s.tx.sndUna
	if n, _ := s.tx.ack(m.ack, s.now, &s.free, func(tf *txFrame, done bool) {
		if done {
			s.done[tf.op.id] = true
		}
	}); n > 0 && s.tx.sndUna < una {
		s.cover.wrap++
	}
	if m.nack != nil && len(s.tx.queueRepairs(m.nack...)) > 0 {
		s.cover.nackRepair++
	}
	s.pump()
}

// receive is the receiver's side of a data frame's arrival on rail li.
func (s *dpState) receive(li int, m dpMsg) {
	seq := m.h.Seq
	k := seq - s.k.isn
	s.rxRails.arrived(li, seq, s.now)
	switch s.rx.arrive(seq, s.now, s.k.goBackN, func(uint32) {}) {
	case duplicate:
		s.cover.dupDropped++
		return
	case discarded:
		if int32(seq-s.rx.rcvNxt) < 0 {
			s.cover.dupDropped++
		}
		return
	}
	if s.frames[k].accepted {
		s.fail("exactly once: the ARQ accepted frame %d a second time", k)
		return
	}
	s.frames[k].accepted = true
	s.ref.arrive(k)
	if s.ord.accept(*m.h, m.payload, s.now, s.k.strict, &s.free, s.perform) {
		s.cover.held++
	}
	for i, p := range s.ref.performed {
		if p != (s.frames[i].applied > 0) {
			s.fail("order: after frame %d arrived, frame %d performed %v; refOrder says %v", k, i, s.frames[i].applied > 0, p)
			return
		}
	}
}

// perform applies a frame the orderer admitted to the receiver's memory.
func (s *dpState) perform(h frame.Header, payload []byte, heldAt sim.Time) {
	op, done := s.ord.performed(h, len(payload), &s.free)
	if op.complete {
		return // a replay of an op performed before a reconnect
	}
	f := &s.frames[h.Seq-s.k.isn]
	if f.applied++; f.applied > 1 {
		s.fail("exactly once: frame %d applied %d times", h.Seq-s.k.isn, f.applied)
	}
	if heldAt != 0 && !s.k.strict {
		s.cover.fenceRelease++
	}
	copy(s.mem[h.Remote+uint64(h.Offset):], payload)
	if done && s.ord.complete(op, &s.free) {
		s.free.rx.Put(op)
	}
}

// dpStep is one move of a schedule.
type dpStep struct {
	act string // deliver, drop, dup, rto, ack, nack
	li  int
	fwd bool
}

func (st dpStep) String() string {
	if st.act == "rto" || st.act == "ack" || st.act == "nack" {
		return st.act
	}
	dir := "ctl"
	if st.fwd {
		dir = "data"
	}
	return fmt.Sprintf("%s %s@%d", st.act, dir, st.li)
}

// steps appends the moves enabled in s to out.
func (s *dpState) steps(out []dpStep) []dpStep {
	for li := range s.k.links {
		for _, fwd := range []bool{true, false} {
			if s.head(li, fwd) < 0 {
				continue
			}
			out = append(out, dpStep{"deliver", li, fwd})
			if s.drops < dpDrops {
				out = append(out, dpStep{"drop", li, fwd})
			}
			if fwd && s.dups < dpDups {
				out = append(out, dpStep{"dup", li, fwd})
			}
		}
	}
	if s.rtos < dpRTOs && s.tx.inflight() > 0 {
		out = append(out, dpStep{act: "rto"})
	}
	if s.ackable() {
		out = append(out, dpStep{act: "ack"})
	}
	if s.nacks < dpNACKs && s.rx.gaps > 0 {
		out = append(out, dpStep{act: "nack"})
	}
	return out
}

// ackable says whether an ACK now tells the sender something: the
// cumulative point moved since the last ACK, or every ACK in flight
// was lost and the sender is behind.
func (s *dpState) ackable() bool {
	if s.rx.rcvNxt != s.lastAck {
		return true
	}
	for _, m := range s.wire {
		if !m.fwd {
			return false
		}
	}
	return s.tx.sndUna != s.rx.rcvNxt
}

func (s *dpState) sendCtl(m dpMsg) {
	m.li = s.rxRails.pickLink(nil, false, false, 0)
	s.wire = append(s.wire, m)
	s.lastAck = m.ack
}

func (s *dpState) apply(st dpStep) {
	switch st.act {
	case "deliver":
		s.deliver(st.li, st.fwd)
	case "drop":
		i := s.head(st.li, st.fwd)
		if st.fwd {
			s.frames[s.wire[i].h.Seq-s.k.isn].dropped = true
		}
		s.wire = slices.Delete(s.wire, i, i+1)
		s.drops++
	case "dup":
		i := s.head(st.li, st.fwd)
		s.wire = slices.Insert(s.wire, i+1, s.wire[i])
		s.dups++
	case "rto":
		s.rtos++
		s.fireRTO()
	case "ack":
		s.sendCtl(dpMsg{ack: s.rx.rcvNxt})
	case "nack":
		if s.scan(true) {
			s.nacks++
		}
	}
}

func (s *dpState) fireRTO() {
	if s.tx.expire(s.now, s.cfg) {
		s.fail("an RTO declared the peer dead")
	}
	if len(s.tx.rtoRepairs(s.k.goBackN)) > 0 {
		s.cover.rtoRepair++
	}
	s.pump()
}

// scan moves the clock past every gap's NACK age and repair round trip
// and runs the receiver's loss scan; a NACK goes out if it names
// anything. checked holds the list to the frames the wire dropped.
func (s *dpState) scan(checked bool) bool {
	s.now += s.cfg.NackDelay
	missing := s.rx.scanMissing(s.now, s.cfg.nackAge(), s.cfg, s.rxRails.rails, nil, func(uint32) {})
	if len(missing) == 0 {
		return false
	}
	for _, seq := range missing {
		if checked && s.now < s.cfg.LinkStaleAge && !s.frames[seq-s.k.isn].dropped {
			s.fail("a NACK names frame %d, which the wire never dropped", seq-s.k.isn)
		}
	}
	s.sendCtl(dpMsg{ack: s.rx.rcvNxt, nack: missing})
	return true
}

// check holds the properties every state must meet, except liveness.
func (s *dpState) check() {
	if fl := int32(s.tx.sndNxt - s.tx.sndUna); fl < 0 || int(fl) > s.k.window {
		s.fail("window: sndUna %d, sndNxt %d, window %d", s.tx.sndUna, s.tx.sndNxt, s.k.window)
	}
	for i := uint32(0); int32(i) < int32(s.lastAck-s.k.isn); i++ {
		if !s.frames[i].accepted {
			s.fail("an ACK covers frame %d, which the receiver has not accepted", i)
		}
	}
	for id, t := range s.ops {
		if s.done[id] && string(s.mem[t.Remote:t.Remote+uint64(t.total)]) != string(t.data) {
			s.fail("op %d complete at the sender, but receiver memory holds %v, not %v",
				id, s.mem[t.Remote:t.Remote+uint64(t.total)], t.data)
		}
	}
}

// finish runs the loss-free fair continuation: deliver everything in
// flight, acknowledge, scan for gaps, and fire the RTO if still stuck.
// It reports whether every op completed with every frame applied once.
func (s *dpState) finish() bool {
	for round := 0; round < 200 && s.bad == ""; round++ {
		for len(s.wire) > 0 {
			s.deliver(s.wire[0].li, s.wire[0].fwd)
		}
		if !slices.Contains(s.done, false) {
			for i, f := range s.frames {
				if f.applied != 1 {
					s.fail("exactly once: with every op complete, frame %d applied %d times", i, f.applied)
				}
			}
			return len(s.ord.held) == 0
		}
		switch {
		case s.ackable():
			s.sendCtl(dpMsg{ack: s.rx.rcvNxt})
		case s.rx.gaps > 0 && s.scan(false):
		case s.tx.inflight() > 0:
			s.fireRTO()
		default:
			return false
		}
	}
	return false
}

// key appends to b what decides the state's future and hashes it.
// Clocks are left out, because every NACK scan moves time past every
// age the scan compares. The budgets spent and the frames the wire has
// dropped are left out too, and returned apart as a dpSpent: a state
// that spent no less of any budget and saw no fewer frames dropped than
// one already visited with the same key has nothing left to show.
func (s *dpState) key(b []byte) (dpKey, dpSpent, []byte) {
	b = b[:0]
	u := func(v ...uint32) {
		for _, x := range v {
			b = binary.LittleEndian.AppendUint32(b, x)
		}
	}
	u(s.tx.sndUna, s.tx.sndNxt, uint32(len(s.tx.txOps)), uint32(s.txRails.rr), uint32(s.rxRails.rr))
	u(s.tx.retransQ...)
	u(^uint32(0))
	for _, id := range s.tx.txFenced {
		u(uint32(id))
	}
	u(^uint32(0))
	for seq := s.tx.sndUna; seq != s.tx.sndNxt; seq++ {
		tf, ok := s.tx.retrans.get(seq)
		u(bit(ok), bit(ok && tf.inQ), bit(ok && tf.ackReq))
	}
	for i, t := range s.ops {
		u(t.sent, uint32(t.unacked), bit(t.sentAll), bit(s.done[i]))
	}
	u(s.rx.rcvNxt, s.rx.maxSeenPlus1, uint32(s.rx.gaps), bit(s.rx.untracked), s.lastAck)
	for seq := s.rx.rcvNxt; int32(s.rx.maxSeenPlus1-seq) > 0; seq++ { // go-back-N keeps no maxSeenPlus1
		r, ok := s.rx.rcv.get(seq)
		u(bit(ok), bit(r.accepted))
	}
	for _, r := range s.rxRails.rails {
		u(r.high)
	}
	u(uint32(s.ord.frontier), s.ord.applyNxt)
	for _, hf := range s.ord.held {
		u(hf.h.Seq, hf.h.Offset)
	}
	u(^uint32(0))
	for id := range s.ops {
		if o, ok := s.ord.rxOps[uint64(id)]; ok {
			u(o.applied, bit(o.complete), o.endSeq)
		} else {
			u(^uint32(0))
		}
	}
	for _, f := range s.frames {
		u(uint32(f.applied), bit(f.accepted))
	}
	for li := range s.k.links {
		for _, fwd := range []bool{true, false} {
			for _, m := range s.wire {
				if m.li == li && m.fwd == fwd {
					if fwd {
						u(m.h.Seq)
					} else {
						u(m.ack, uint32(len(m.nack)))
						u(m.nack...)
					}
				}
			}
			u(^uint32(0))
		}
	}
	sp := dpSpent{uint8(s.drops), uint8(s.dups), uint8(s.rtos), uint8(s.nacks), 0}
	for i, f := range s.frames {
		if f.dropped {
			sp.dropped |= 1 << i
		}
	}
	return dpKey{maphash.Bytes(dpSeeds[0], b), maphash.Bytes(dpSeeds[1], b)}, sp, b
}

// dpKey is a state's 128-bit hash.
type dpKey [2]uint64

// dpSpent is what a state has spent of each budget, and the frames the
// wire has dropped (by index), which only weaken the NACK property.
type dpSpent struct{ drops, dups, rtos, nacks, dropped uint8 }

// covers reports whether a state that spent o can do all that one that
// spent n can: no more of any budget spent, no frame dropped that n's
// wire has not dropped.
func (o dpSpent) covers(n dpSpent) bool {
	return o.drops <= n.drops && o.dups <= n.dups && o.rtos <= n.rtos && o.nacks <= n.nacks && o.dropped&^n.dropped == 0
}

var dpSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// dpExplorer walks every schedule of one case from its start, depth
// first, visiting each state once, and none another visited state
// covers (dpSpent.covers).
type dpExplorer struct {
	seen   map[dpKey][]dpSpent
	states int // visited
	buf    []byte
	path   []dpStep // the steps to the state being visited
	steps  int      // transitions taken
	cover  dpCoverage
	failed string
}

func (e *dpExplorer) visit(s *dpState) {
	if e.failed != "" {
		return
	}
	k, sp, buf := s.key(e.buf)
	e.buf = buf
	for _, o := range e.seen[k] {
		if o.covers(sp) {
			return
		}
	}
	e.seen[k] = append(e.seen[k], sp)
	e.states++
	// The continuation's first move from a state with a frame in flight
	// or an ACK to send is one of the state's own steps, so the child it
	// leads to answers for it: only the other states run it.
	if s.check(); s.bad == "" && len(s.wire) == 0 && !s.ackable() {
		c := s.clone()
		switch ok := c.finish(); {
		case c.bad != "":
			s.bad = c.bad + " (in the loss-free continuation)"
		case !ok:
			s.bad = fmt.Sprintf("liveness: the loss-free continuation ends with ops done %v and %d frames held", c.done, len(c.ord.held))
		}
	}
	if s.bad != "" {
		e.fail(s.bad)
		return
	}
	for _, st := range s.steps(nil) {
		c := s.clone()
		e.path = append(e.path, st)
		c.apply(st)
		e.steps++
		e.cover.add(c.cover)
		if c.bad != "" {
			e.fail(c.bad)
			return
		}
		e.visit(c)
		e.path = e.path[:len(e.path)-1]
	}
}

func (e *dpExplorer) fail(why string) {
	var steps []string
	for _, st := range e.path {
		steps = append(steps, st.String())
	}
	e.failed = fmt.Sprintf("%s\nafter steps: %s", why, strings.Join(steps, ", "))
}

// dpPrograms are the op programs: up to three writes, up to six frames,
// the flags drawn from FenceBefore, FenceAfter and Solicit.
var dpPrograms = [][]dpOp{
	{{0, 3}},
	{{0, 2}, {frame.FenceBefore, 1}},
	{{frame.FenceAfter, 2}, {0, 1}},
	{{frame.Solicit, 1}, {frame.FenceBefore | frame.FenceAfter, 1}, {0, 1}},
	{{0, 1}, {frame.FenceAfter | frame.Solicit, 2}, {frame.FenceBefore, 3}},
}

// dpCases is every case of the full run: each program at Window 2-4
// over one or two rails, selective repeat and go-back-N, Strict off and
// on, from sequence number 0 and from three short of the wrap. short
// keeps the two programs with a fence, over two rails at Window 2 with
// Strict off.
func dpCases(short bool) []*dpCase {
	var out []*dpCase
	for pi, prog := range dpPrograms {
		for _, links := range []int{1, 2} {
			for window := 2; window <= 4; window++ {
				for _, goBackN := range []bool{false, true} {
					for _, strict := range []bool{false, true} {
						for _, isn := range []uint32{0, 1<<32 - 3} {
							if short && (pi < 1 || pi > 2 || links != 2 || window != 2 || strict) {
								continue
							}
							out = append(out, &dpCase{prog: prog, window: window, links: links, goBackN: goBackN, strict: strict, isn: isn})
						}
					}
				}
			}
		}
	}
	return out
}

// TestDataPathExplorer walks every schedule of every case within the
// bounds (DESIGN.md "Data-path explorer") and checks the data path's
// properties in every state it reaches: each frame applied exactly
// once, in an order refOrder allows; a sender-complete op's bytes in
// receiver memory; the window within bounds; no ACK beyond what the
// receiver accepted or the sender sent; a NACK naming only frames the
// wire dropped; and completion by a loss-free fair continuation. Under
// -short or -race (the harness is one goroutine per case, so the race
// detector adds nothing) it runs a subset. Cases run on one worker per
// CPU, four at most.
func TestDataPathExplorer(t *testing.T) {
	start := time.Now()
	cases := dpCases(testing.Short() || race.Enabled)
	// Every state is a fresh copy and most die at once: trade memory the
	// seen sets already dwarf for fewer collections.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	var (
		mu            sync.Mutex
		cover         = map[bool]*dpCoverage{false: {}, true: {}} // by goBackN
		states, steps int
		failed        []string
	)
	work := make(chan *dpCase)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), 4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				e := &dpExplorer{seen: map[dpKey][]dpSpent{}}
				e.visit(newDPState(k))
				mu.Lock()
				if e.failed != "" {
					failed = append(failed, fmt.Sprintf("%v: %s", k, e.failed))
				}
				cover[k.goBackN].add(e.cover)
				states += e.states
				steps += e.steps
				mu.Unlock()
			}
		}()
	}
	for _, k := range cases {
		mu.Lock()
		stop := len(failed) > 0
		mu.Unlock()
		if stop {
			break
		}
		work <- k
	}
	close(work)
	wg.Wait()
	if len(failed) > 0 {
		t.Fatal(failed[0])
	}
	t.Logf("%d cases, %d states, %d steps in %v", len(cases), states, steps, time.Since(start).Round(time.Millisecond))
	for _, gbn := range []bool{false, true} {
		c, mode := cover[gbn], map[bool]string{false: "selective repeat", true: "go-back-N"}[gbn]
		t.Logf("%s: %+v", mode, *c)
		for _, target := range []struct {
			name string
			n    int
		}{{"a cumulative ACK across the wrap", c.wrap}, {"an RTO repair", c.rtoRepair}, {"a duplicate dropped", c.dupDropped}} {
			if target.n == 0 {
				t.Errorf("%s: no schedule reached %s", mode, target.name)
			}
		}
	}
	if c := cover[false]; c.nackRepair == 0 || c.fenceRelease == 0 {
		t.Errorf("selective repeat: %d NACK repairs, %d frames released by a fence; want both reached", c.nackRepair, c.fenceRelease)
	}
	// Go-back-N takes frames in sequence order only, so it tracks no gap
	// to NACK and the orderer never has a frame to hold.
	if c := cover[true]; c.nackRepair != 0 || c.held != 0 {
		t.Errorf("go-back-N: %d NACK repairs and %d held frames; both must be impossible", c.nackRepair, c.held)
	}
}
