package core

// seqRing is a sequence-number-indexed store backing the connection's
// two per-seq ARQ stores: the retransmit buffers (Conn.retrans) and the
// receive window (Conn.rcv: accepted-frame dedupe and gap tracking in
// one record per sequence number). The live key span of both is bounded
// by the ARQ window plus a handful of probe sequences, so a power-of-two
// slot array sized to the window serves every steady-state access with
// no hashing and no allocation; the previous map[uint32] backings
// churned a heap-allocated bucket chain per frame.
//
// Keys are sequence numbers compared in modular (serial-number)
// arithmetic. Should two live keys ever collide on a slot — possible
// only if the live span exceeds the ring size, which the window bound
// prevents — correctness is preserved by spilling the older entry to a
// lazily allocated overflow map, so the structure is a strict drop-in
// for the map it replaces rather than a lossy cache.
type seqRing[T any] struct {
	slots    []seqSlot[T]
	mask     uint32
	liveSlot int // occupied slots (excludes overflow entries)
	overflow map[uint32]T
}

type seqSlot[T any] struct {
	seq  uint32
	full bool
	val  T
}

// seqRingSlack covers sequence numbers assigned beyond the window
// proper: dead-link probes (sendProbe) advance sndNxt without consuming
// window space, so a conn repairing several dead rails can hold a live
// span slightly wider than Config.Window.
const seqRingSlack = 64

// newSeqRing sizes the ring to the next power of two covering the ARQ
// window plus probe slack.
func newSeqRing[T any](window int) *seqRing[T] {
	need := window + seqRingSlack
	size := 64
	for size < need {
		size *= 2
	}
	return &seqRing[T]{slots: make([]seqSlot[T], size), mask: uint32(size - 1)}
}

// get returns the value stored under s, if any.
func (r *seqRing[T]) get(s uint32) (T, bool) {
	sl := &r.slots[s&r.mask]
	if sl.full && sl.seq == s {
		return sl.val, true
	}
	if r.overflow != nil {
		v, ok := r.overflow[s]
		return v, ok
	}
	var zero T
	return zero, false
}

// has reports whether s is present (set-style use).
func (r *seqRing[T]) has(s uint32) bool {
	sl := &r.slots[s&r.mask]
	if sl.full && sl.seq == s {
		return true
	}
	if r.overflow != nil {
		_, ok := r.overflow[s]
		return ok
	}
	return false
}

// put stores v under s, overwriting any previous value. On a slot
// collision the newer sequence number keeps the slot (it will stay live
// longest) and the older spills to the overflow map.
func (r *seqRing[T]) put(s uint32, v T) {
	sl := &r.slots[s&r.mask]
	if !sl.full {
		sl.seq, sl.val, sl.full = s, v, true
		r.liveSlot++
		return
	}
	if sl.seq == s {
		sl.val = v
		return
	}
	if int32(s-sl.seq) > 0 {
		r.spill(sl.seq, sl.val)
		sl.seq, sl.val = s, v
		return
	}
	r.spill(s, v)
}

func (r *seqRing[T]) spill(s uint32, v T) {
	if r.overflow == nil {
		r.overflow = make(map[uint32]T)
	}
	r.overflow[s] = v
}

// del removes s if present.
func (r *seqRing[T]) del(s uint32) {
	sl := &r.slots[s&r.mask]
	if sl.full && sl.seq == s {
		var zero T
		sl.val = zero // drop references for GC
		sl.full = false
		r.liveSlot--
		return
	}
	if r.overflow != nil {
		delete(r.overflow, s)
	}
}

// size returns the number of live entries.
func (r *seqRing[T]) size() int { return r.liveSlot + len(r.overflow) }

// clear empties the ring in place, keeping the slot array.
func (r *seqRing[T]) clear() {
	if r.liveSlot > 0 {
		var zero T
		for i := range r.slots {
			if r.slots[i].full {
				r.slots[i].val = zero
				r.slots[i].full = false
			}
		}
		r.liveSlot = 0
	}
	r.overflow = nil
}

// overflowLen exposes the spill count (tests: it should stay zero in
// any run whose live span respects the window bound).
func (r *seqRing[T]) overflowLen() int { return len(r.overflow) }
