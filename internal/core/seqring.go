package core

// seqRing is a sequence-number-indexed store backing the connection's
// two per-seq ARQ stores: the retransmit buffers (Conn.retrans) and the
// receive window (Conn.rcv: accepted-frame dedupe and gap tracking in
// one record per sequence number). Live keys are consecutive or nearly
// so, so a power-of-two slot array indexed by the low bits serves every
// access with no hashing, and steady state allocates nothing; the
// previous map[uint32] backings churned a heap-allocated bucket chain
// per frame.
//
// Keys are sequence numbers compared in modular (serial-number)
// arithmetic. The ring is built for the flight a connection has, not
// the one it is allowed: the zero value is an empty ring with no slots,
// the first put makes seqRingMin of them, and it doubles when
// a put finds its slot held by another live key, so a conn whose
// congestion window stays at a handful of frames never pays for
// Config.Window, and a live span wider than any fixed bound (a peer
// configured with a larger Window, probe sequence numbers beyond it)
// is still never lost.
type seqRing[T any] struct {
	slots []seqSlot[T]
	mask  uint32
	live  int32 // occupied slots
}

type seqSlot[T any] struct {
	seq  uint32
	full bool
	val  T
}

const seqRingMin = 16

// get returns the value stored under s, if any. Every read and del is
// safe on a ring whose slots were never made: it is empty.
func (r *seqRing[T]) get(s uint32) (T, bool) {
	if r.live > 0 {
		if sl := &r.slots[s&r.mask]; sl.full && sl.seq == s {
			return sl.val, true
		}
	}
	var zero T
	return zero, false
}

// has reports whether s is present (set-style use).
func (r *seqRing[T]) has(s uint32) bool {
	if r.live == 0 {
		return false
	}
	sl := &r.slots[s&r.mask]
	return sl.full && sl.seq == s
}

// put stores v under s, overwriting any previous value.
func (r *seqRing[T]) put(s uint32, v T) {
	if r.slots == nil {
		r.slots, r.mask = make([]seqSlot[T], seqRingMin), seqRingMin-1
	}
	sl := &r.slots[s&r.mask]
	for sl.full && sl.seq != s {
		r.grow()
		sl = &r.slots[s&r.mask]
	}
	if !sl.full {
		sl.seq, sl.full = s, true
		r.live++
	}
	sl.val = v
}

// grow doubles the ring until the live keys sit on distinct slots,
// which distinct 32-bit keys do at the latest under a 32-bit mask.
func (r *seqRing[T]) grow() {
	old := r.slots
retry:
	for size := 2 * len(old); ; size *= 2 {
		slots, mask := make([]seqSlot[T], size), uint32(size-1)
		for i := range old {
			if !old[i].full {
				continue
			}
			sl := &slots[old[i].seq&mask]
			if sl.full {
				continue retry
			}
			*sl = old[i]
		}
		r.slots, r.mask = slots, mask
		return
	}
}

// del removes s if present.
func (r *seqRing[T]) del(s uint32) {
	if r.live == 0 {
		return
	}
	sl := &r.slots[s&r.mask]
	if sl.full && sl.seq == s {
		var zero T
		sl.val = zero // drop references for GC
		sl.full = false
		r.live--
	}
}

// size returns the number of live entries.
func (r *seqRing[T]) size() int { return int(r.live) }

// clear empties the ring in place, keeping the slot array.
func (r *seqRing[T]) clear() {
	if r.live > 0 {
		clear(r.slots)
		r.live = 0
	}
}
