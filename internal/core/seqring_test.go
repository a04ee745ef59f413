package core

import (
	"math/rand"
	"testing"

	"multiedge/internal/frame"
	"multiedge/internal/hostmodel"
	"multiedge/internal/sim"
)

// TestSeqRingBasics pins the map-equivalent semantics of the seqRing:
// get/put/del/size round-trips, overwrite, and growth for live spans
// wider than the ring.
func TestSeqRingBasics(t *testing.T) {
	r := newSeqRing[int]()
	if r.size() != 0 {
		t.Fatalf("fresh ring size %d", r.size())
	}
	r.put(5, 50)
	r.put(6, 60)
	r.put(5, 55) // overwrite
	if v, ok := r.get(5); !ok || v != 55 {
		t.Fatalf("get(5) = %v,%v", v, ok)
	}
	if r.size() != 2 {
		t.Fatalf("size %d, want 2", r.size())
	}
	r.del(5)
	if r.has(5) || r.size() != 1 {
		t.Fatalf("del(5) left has=%v size=%d", r.has(5), r.size())
	}
	r.del(5) // idempotent
	// Wrap-around keys behave like any other.
	r.put(0xFFFFFFFF, 1)
	r.put(0, 2)
	if !r.has(0xFFFFFFFF) || !r.has(0) {
		t.Fatal("wrap-adjacent keys lost")
	}
	r.clear()
	if r.size() != 0 || r.has(6) {
		t.Fatalf("clear left size=%d", r.size())
	}

	// Collision: two live keys one ring-size apart. The ring doubles and
	// keeps both — never drops one.
	n := uint32(len(r.slots))
	r.put(10, 100)
	r.put(10+n, 200)
	if v, ok := r.get(10); !ok || v != 100 {
		t.Fatalf("older colliding key lost: %v,%v", v, ok)
	}
	if v, ok := r.get(10 + n); !ok || v != 200 {
		t.Fatalf("newer colliding key lost: %v,%v", v, ok)
	}
	if len(r.slots) != int(2*n) || r.size() != 2 {
		t.Fatalf("slots=%d (want %d) size=%d", len(r.slots), 2*n, r.size())
	}
	// Older key arriving second, and a collision one doubling does not
	// resolve: the ring doubles until every live key has its own slot.
	r.put(20+4*n, 1)
	r.put(20, 2)
	if v, ok := r.get(20); !ok || v != 2 {
		t.Fatalf("older-second key lost: %v,%v", v, ok)
	}
	if v, ok := r.get(20 + 4*n); !ok || v != 1 {
		t.Fatalf("newer-first key lost: %v,%v", v, ok)
	}
	if len(r.slots) != int(8*n) || r.size() != 4 || !r.has(10) || !r.has(10+n) {
		t.Fatalf("slots=%d (want %d) size=%d", len(r.slots), 8*n, r.size())
	}
	r.del(10)
	r.del(10 + n)
	if r.has(10) || r.has(10+n) || r.size() != 2 {
		t.Fatal("colliding keys survived del")
	}
}

// arqEndpoint builds a minimal endpoint+conn pair for direct receive-path
// unit tests: frames are injected straight into handleData without a
// physical network, so a million-frame run stays fast. The clock never
// moves, so no gap ever ages into a NACK and no timer fires.
func arqEndpoint(t *testing.T, window int) (*Endpoint, *Conn) {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 16
	cfg.Window = window
	ep := NewEndpoint(env, 0, cfg, hostmodel.Default(), hostmodel.NewCPUs("n0"), nil)
	c := newConn(ep, 1, 1, 1)
	return ep, c
}

// refWindow is the map-based reference the receive window is checked
// against: the selective-repeat acceptance rules of handleData written
// the obvious way, one map per set.
type refWindow struct {
	rcvNxt, maxSeenPlus1 uint32
	accepted, gap        map[uint32]bool
}

func (r *refWindow) arrive(seq uint32) {
	if int32(seq-r.rcvNxt) < 0 || r.accepted[seq] {
		return // duplicate
	}
	r.accepted[seq] = true
	delete(r.gap, seq)
	if int32(seq-r.maxSeenPlus1) >= 0 {
		for s := r.maxSeenPlus1; s != seq; s++ {
			if len(r.gap) < maxTrackedGaps {
				r.gap[s] = true
			}
		}
		r.maxSeenPlus1 = seq + 1
	}
	for r.accepted[r.rcvNxt] {
		delete(r.accepted, r.rcvNxt)
		r.rcvNxt++
	}
}

// checkRcvWindow compares the conn's receive window with the reference
// over [lo, hi): same accepted set, same gap set, the gaps counter equal
// to the number of gap records and inside its cap, nothing kept below
// the cumulative point.
func checkRcvWindow(t *testing.T, c *Conn, ref *refWindow, lo, hi uint32) {
	t.Helper()
	if c.rcvNxt != ref.rcvNxt || c.maxSeenPlus1 != ref.maxSeenPlus1 {
		t.Fatalf("cursors (%d, %d), reference (%d, %d)", c.rcvNxt, c.maxSeenPlus1, ref.rcvNxt, ref.maxSeenPlus1)
	}
	gaps := 0
	for s := lo; s != hi; s++ {
		slot, ok := c.rcv.get(s)
		if ok && int32(s-c.rcvNxt) < 0 {
			t.Fatalf("seq %d: record survives below rcvNxt %d", s, c.rcvNxt)
		}
		if acc := ok && slot.accepted; acc != ref.accepted[s] {
			t.Fatalf("seq %d: accepted=%v, reference %v", s, acc, ref.accepted[s])
		}
		isGap := ok && !slot.accepted
		if isGap != ref.gap[s] {
			t.Fatalf("seq %d: gap=%v, reference %v", s, isGap, ref.gap[s])
		}
		if isGap {
			gaps++
		}
	}
	if c.gaps != gaps || c.gaps > maxTrackedGaps {
		t.Fatalf("gaps counter %d, %d gap records, cap %d", c.gaps, gaps, maxTrackedGaps)
	}
	if n := c.rcv.size(); n != gaps+len(ref.accepted) {
		t.Fatalf("ring holds %d records, want %d gaps + %d accepted", n, gaps, len(ref.accepted))
	}
}

// TestRcvWindowAgainstReference drives the one-ring receive window with
// what a lossy multi-rail fabric delivers and holds it to refWindow.
// "random": seeded flights as wide as a sender can make them (Window + 64
// sequence numbers of probe slack), each in a random order with drops repaired late and
// duplicates, across the sequence wrap, checked record by record after
// every arrival; at Window 512 a flight opens more gaps than
// maxTrackedGaps, so the cap is exercised too. "million": the
// bounded-growth regression — a million frames through a steady loss
// pattern never grow the ring beyond the window it was configured for.
func TestRcvWindowAgainstReference(t *testing.T) {
	deliver := func(c *Conn, seq uint32) {
		c.handleData(frame.Header{Type: frame.TypeData, ConnID: 1, Seq: seq,
			OpID: uint64(seq), OpType: frame.OpWrite}, nil, 0)
	}
	start := func(c *Conn, base uint32) *refWindow {
		c.rcvNxt, c.maxSeenPlus1 = base, base
		return &refWindow{rcvNxt: base, maxSeenPlus1: base, accepted: map[uint32]bool{}, gap: map[uint32]bool{}}
	}
	t.Run("random", func(t *testing.T) {
		capped := false
		for _, window := range []int{128, 512} {
			_, c := arqEndpoint(t, window)
			span := uint32(window + 64)
			ref := start(c, -(span * 5 / 2)) // the third flight straddles the wrap
			rng := rand.New(rand.NewSource(int64(window)))
			for flight := 0; flight < 20; flight++ {
				base := c.rcvNxt
				var order, late []uint32
				for i := uint32(0); i < span; i++ {
					switch rng.Intn(10) {
					case 0: // dropped: arrives only as a repair, after the rest
						late = append(late, base+i)
						continue
					case 1: // duplicated somewhere in the flight
						order = append(order, base+i)
					}
					order = append(order, base+i)
				}
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				rng.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
				for _, seq := range append(order, late...) {
					deliver(c, seq)
					ref.arrive(seq)
					checkRcvWindow(t, c, ref, base-span, base+span)
					capped = capped || c.gaps == maxTrackedGaps
				}
				if c.rcvNxt != base+span || c.rcv.size() != 0 {
					t.Fatalf("flight %d fully delivered: rcvNxt %d (want %d), %d records left",
						flight, c.rcvNxt, base+span, c.rcv.size())
				}
			}
		}
		if !capped {
			t.Error("no flight reached maxTrackedGaps: the cap went untested")
		}
	})
	t.Run("million", func(t *testing.T) {
		_, c := arqEndpoint(t, 128)
		ref := start(c, 0)
		const total = 1_000_000
		const lossEvery = 97 // drop every 97th first transmission...
		const repairLag = 40 // ...and deliver it this many frames later
		var pending []uint32 // lost frames awaiting their late delivery
		arrive := func(seq uint32) {
			deliver(c, seq)
			ref.arrive(seq)
			if c.gaps != len(ref.gap) || c.rcv.size() != len(ref.gap)+len(ref.accepted) ||
				len(c.rcv.slots) > 128 {
				t.Fatalf("seq %d: %d gaps (reference %d), %d of %d slots live (reference %d)", seq,
					c.gaps, len(ref.gap), c.rcv.size(), len(c.rcv.slots), len(ref.gap)+len(ref.accepted))
			}
		}
		for seq := uint32(0); seq < total; seq++ {
			if seq%lossEvery == 13 {
				pending = append(pending, seq)
			} else {
				arrive(seq)
			}
			if len(pending) > 0 && seq-pending[0] >= repairLag {
				arrive(pending[0])
				pending = pending[1:]
			}
		}
		for _, s := range pending {
			arrive(s)
		}
		checkRcvWindow(t, c, ref, total-1024, total+1024)
		if c.rcvNxt != total || c.rcv.size() != 0 {
			t.Fatalf("after full delivery: rcvNxt %d (want %d), %d records left", c.rcvNxt, total, c.rcv.size())
		}
	})
}

// TestStopTimersDropsGapState pins the stopTimers contract satellite:
// dropping the gap records and their in-flight repair timestamps
// wholesale on teardown is intentional — stopTimers runs only on exits
// from the live state, where the old sequence space is dead — and the
// drop must be total, so no stale-seq timestamp can re-arm the NACK
// machinery after close, failure or rebirth.
func TestStopTimersDropsGapState(t *testing.T) {
	_, c := arqEndpoint(t, 128)
	c.SeedGapForTest(7, 100)
	c.SeedGapForTest(9, 120)
	c.nackDue = []uint32{7, 9}
	c.ackDue = true
	if m, n := c.GapStateForTest(7); !m || !n {
		t.Fatal("seed did not take")
	}
	c.StopTimersForTest()
	for _, s := range []uint32{7, 9} {
		if m, n := c.GapStateForTest(s); m || n {
			t.Fatalf("seq %d gap state survived stopTimers (missing=%v nacked=%v)", s, m, n)
		}
	}
	if c.TrackedGapsForTest() != 0 {
		t.Fatalf("%d tracked gaps survived stopTimers", c.TrackedGapsForTest())
	}
	if ack, nacks := c.CtrlStateForTest(); ack || nacks != 0 {
		t.Fatalf("ctrl state survived stopTimers: ackDue=%v nacks=%d", ack, nacks)
	}
}
