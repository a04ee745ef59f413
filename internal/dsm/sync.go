package dsm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// Control message classes. Each (sender, receiver, class) has a
// dedicated slot in the receiver's memory; the request/response
// discipline below guarantees a slot is never overwritten before it is
// consumed:
//
//	LockReq  -> LockGrant     (requester waits for the grant)
//	Release  -> ReleaseAck    (releaser waits for the ack)
//	Arrive   -> Go            (arriver waits for the barrier release)
//
// Grant, Release, Arrive and Go carry write-notice arrays in a separate
// per-(sender,class) notice buffer; the control message is written with
// a backward fence so the receiver observes the notices first.
const (
	msgLockReq = iota + 1
	msgLockGrant
	msgRelease
	msgReleaseAck
	msgArrive
	msgGo
	msgDiff // lock field = page count in the sender's staging buffer
	msgDiffAck
)

// noticeIdx maps notice-carrying classes to their buffer index.
func noticeIdx(class int) int {
	switch class {
	case msgLockGrant:
		return 0
	case msgRelease:
		return 1
	case msgArrive:
		return 2
	case msgGo:
		return 3
	}
	return -1
}

// peerIndex returns the index of peer in node's inbox layout (peers are
// the n-1 other nodes, in node-id order).
func peerIndex(node, peer int) int {
	if peer < node {
		return peer
	}
	return peer - 1
}

// slotAddr returns the address of the (sender, class) control slot in
// the receiver's memory. The layout is identical on every node, so the
// sender can compute it locally.
func (in *Instance) slotAddr(receiverInbox uint64, sender, receiver, class int) uint64 {
	q := peerIndex(receiver, sender)
	return receiverInbox + uint64((q*numClasses+(class-1))*ctrlSlotBytes)
}

func (in *Instance) noticeAddr(receiverNotice uint64, sender, receiver, class int) uint64 {
	q := peerIndex(receiver, sender)
	return receiverNotice + uint64((q*numNoticeBufs+noticeIdx(class))*in.maxNotices*4)
}

// sendMsg writes a control message (and its notice array, if any) into
// the receiver's inbox. handler selects which CPU the initiation is
// charged to: application context or the service process standing in
// for a kernel-side handler.
func (in *Instance) sendMsg(p *sim.Proc, to, class, lock int, epoch uint32, notices []uint32, handler bool) {
	if to == in.self {
		panic("dsm: sendMsg to self")
	}
	cpu := in.node.CPUs.App
	if handler {
		cpu = in.node.CPUs.Proto
	}
	c := in.conns[to]
	mem := in.mem()
	if len(notices) > 0 {
		if len(notices) > in.maxNotices {
			panic("dsm: notice array overflow")
		}
		for i, e := range notices {
			binary.LittleEndian.PutUint32(mem[in.outNotice+uint64(4*i):], e)
		}
		c.MustDoOn(p, cpu, core.Op{
			Remote: in.noticeAddr(in.inboxNotice, in.self, to, class),
			Local:  in.outNotice, Size: 4 * len(notices), Kind: frame.OpWrite,
		})
	}
	b := mem[in.outCtrl : in.outCtrl+ctrlSlotBytes]
	b[0] = byte(class)
	binary.LittleEndian.PutUint32(b[1:], uint32(lock))
	binary.LittleEndian.PutUint32(b[5:], epoch)
	binary.LittleEndian.PutUint32(b[9:], uint32(len(notices)))
	// Backward fence: performed only after the notice write above (and
	// anything else outstanding on this connection) has been performed.
	c.MustDoOn(p, cpu, core.Op{
		Remote: in.slotAddr(in.inboxCtrl, in.self, to, class),
		Local:  in.outCtrl, Size: ctrlSlotBytes, Kind: frame.OpWrite,
		Flags: frame.FenceBefore | frame.Notify,
	})
	in.Stats.RemoteMsgs++
}

// readMsg parses the control slot a notification points at, plus its
// notice array.
func (in *Instance) readMsg(from int, addr uint64) (class, lock int, epoch uint32, notices []uint32) {
	mem := in.mem()
	b := mem[addr : addr+ctrlSlotBytes]
	class = int(b[0])
	lock = int(binary.LittleEndian.Uint32(b[1:]))
	epoch = binary.LittleEndian.Uint32(b[5:])
	nn := int(binary.LittleEndian.Uint32(b[9:]))
	if idx := noticeIdx(class); idx >= 0 && nn > 0 {
		na := in.noticeAddr(in.inboxNotice, from, in.self, class)
		notices = make([]uint32, nn)
		for i := range notices {
			notices[i] = binary.LittleEndian.Uint32(mem[na+uint64(4*i):])
		}
	}
	return class, lock, epoch, notices
}

// serve is the per-node service process: GeNIMA's protocol handler. It
// consumes every notification the endpoint delivers and dispatches on
// the message class.
func (in *Instance) serve(p *sim.Proc) {
	for {
		n := in.notify.Recv(p)
		class, lock, epoch, notices := in.readMsg(n.From, n.Addr)
		switch class {
		case msgLockReq:
			in.handleLockReq(p, lock, n.From)
		case msgLockGrant:
			in.applyNotices(notices)
			in.grantMb.Send(in.env, struct{}{})
		case msgRelease:
			in.handleRelease(p, lock, n.From, notices)
		case msgReleaseAck:
			in.ackMb.Send(in.env, struct{}{})
		case msgArrive:
			in.handleArrive(p, epoch, notices, true)
		case msgGo:
			in.applyNotices(notices)
			in.barMb.Send(in.env, struct{}{})
		case msgDiff:
			in.handleDiff(p, n.From, lock)
		case msgDiffAck:
			in.diffAckMb.Send(in.env, struct{}{})
		default:
			panic(fmt.Sprintf("dsm: node %d: bad message class %d from %d", in.self, class, n.From))
		}
	}
}

// ---------------------------------------------------------------------
// Locks: distributed managers, one home per lock id, FIFO queueing,
// write notices carried on the grant (lazy invalidation).
// ---------------------------------------------------------------------

func (in *Instance) lockHome(lock int) int { return lock % in.n }

func (in *Instance) lockState(lock int) *lockState {
	ls, ok := in.locks[lock]
	if !ok {
		ls = &lockState{notices: make(map[uint32]uint64)}
		in.locks[lock] = ls
	}
	return ls
}

// mergeNotices folds raw notice entries (page<<8 | writer) into a
// page -> writer-bitmask map.
func mergeNotices(dst map[uint32]uint64, entries []uint32) {
	for _, e := range entries {
		dst[e>>8] |= 1 << (e & 0xff)
	}
}

// filterNotices returns, in deterministic order, one entry per page in
// the set that was written by anyone other than `recipient`. The writer
// byte carries the sentinel `otherWriter`: the filtering already
// guarantees the recipient must invalidate.
func filterNotices(set map[uint32]uint64, recipient int) []uint32 {
	out := make([]uint32, 0, len(set))
	for pg, mask := range set {
		if mask&^(1<<uint(recipient)) != 0 {
			out = append(out, pg<<8|otherWriter)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// grantTo hands the lock to node `to`, shipping the accumulated write
// notices so the new holder invalidates stale pages.
func (in *Instance) grantTo(p *sim.Proc, lock, to int, handler bool) {
	ls := in.lockState(lock)
	ls.held = true
	ls.holder = to
	if to == in.self {
		in.applyNotices(filterNotices(ls.notices, in.self))
		in.grantMb.Send(in.env, struct{}{})
		return
	}
	in.sendMsg(p, to, msgLockGrant, lock, 0, filterNotices(ls.notices, to), handler)
}

func (in *Instance) handleLockReq(p *sim.Proc, lock, from int) {
	ls := in.lockState(lock)
	if ls.held {
		ls.waiters = append(ls.waiters, from)
		return
	}
	in.grantTo(p, lock, from, true)
}

func (in *Instance) handleRelease(p *sim.Proc, lock, from int, notices []uint32) {
	ls := in.lockState(lock)
	mergeNotices(ls.notices, notices)
	in.sendMsg(p, from, msgReleaseAck, lock, 0, nil, true)
	in.releaseLock(p, lock, true)
}

// releaseLock marks the lock free and grants it to the next waiter.
func (in *Instance) releaseLock(p *sim.Proc, lock int, handler bool) {
	ls := in.lockState(lock)
	ls.held = false
	if len(ls.waiters) > 0 {
		next := ls.waiters[0]
		ls.waiters = ls.waiters[:copy(ls.waiters, ls.waiters[1:])]
		in.grantTo(p, lock, next, handler)
	}
}

// Acquire blocks until the lock is held by this node. Write notices
// accumulated under the lock are applied (stale pages invalidated)
// before it returns.
func (in *Instance) Acquire(p *sim.Proc, lock int) {
	t0 := in.env.Now()
	in.Stats.LockAcquires++
	home := in.lockHome(lock)
	if home == in.self {
		ls := in.lockState(lock)
		if !ls.held {
			in.grantTo(p, lock, in.self, false)
		} else {
			ls.waiters = append(ls.waiters, in.self)
		}
	} else {
		in.sendMsg(p, home, msgLockReq, lock, 0, nil, false)
	}
	in.grantMb.Recv(p)
	in.B.Lock += in.env.Now() - t0
}

// Release flushes this node's modifications to their homes, then hands
// the lock back to its manager along with the write notices.
func (in *Instance) Release(p *sim.Proc, lock int) {
	t0 := in.env.Now()
	notices := in.flushDiffs(p)
	home := in.lockHome(lock)
	if home == in.self {
		ls := in.lockState(lock)
		mergeNotices(ls.notices, notices)
		in.releaseLock(p, lock, false)
	} else {
		in.sendMsg(p, home, msgRelease, lock, 0, notices, false)
		in.ackMb.Recv(p)
	}
	in.B.Lock += in.env.Now() - t0
}

// ---------------------------------------------------------------------
// Barrier: flat master (node 0) collecting arrivals and write notices,
// broadcasting the union on release.
// ---------------------------------------------------------------------

// Barrier flushes dirty pages, waits until every node has arrived, and
// applies the union of all nodes' write notices before returning.
func (in *Instance) Barrier(p *sim.Proc) {
	t0 := in.env.Now()
	in.Stats.Barriers++
	in.flushDiffs(p)
	// Advertise everything dirtied since the last barrier (including
	// pages already flushed at lock releases): see sinceBarrier.
	notices := make([]uint32, 0, len(in.sinceBarrier))
	for pg := range in.sinceBarrier {
		notices = append(notices, pg<<8|uint32(in.self))
	}
	sort.Slice(notices, func(i, j int) bool { return notices[i] < notices[j] })
	in.sinceBarrier = make(map[uint32]uint64)
	if in.self == 0 {
		in.handleArrive(p, in.barEpoch, notices, false)
	} else {
		in.sendMsg(p, 0, msgArrive, 0, in.barEpoch, notices, false)
	}
	in.barEpoch++
	in.barMb.Recv(p)
	in.B.Barrier += in.env.Now() - t0
}

// handleArrive runs at the master: collect arrivals; on the last one,
// broadcast the combined notices and release everyone.
func (in *Instance) handleArrive(p *sim.Proc, epoch uint32, notices []uint32, handler bool) {
	if in.self != 0 {
		panic("dsm: barrier arrival at non-master")
	}
	if epoch != in.barEpoch && epoch+1 != in.barEpoch {
		panic(fmt.Sprintf("dsm: barrier epoch skew: got %d at %d", epoch, in.barEpoch))
	}
	mergeNotices(in.barNotices, notices)
	in.barArrived++
	if in.barArrived < in.n {
		return
	}
	in.barArrived = 0
	set := in.barNotices
	in.barNotices = make(map[uint32]uint64)
	for peer := 0; peer < in.n; peer++ {
		if peer == in.self {
			continue
		}
		in.sendMsg(p, peer, msgGo, 0, epoch, filterNotices(set, peer), handler)
	}
	in.applyNotices(filterNotices(set, in.self))
	in.barMb.Send(in.env, struct{}{})
}
