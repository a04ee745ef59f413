package core

import (
	"math/rand"
	"testing"

	"multiedge/internal/frame"
	"multiedge/internal/hostmodel"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// TestSeqRingBasics pins the map-equivalent semantics of the seqRing:
// get/put/del/size round-trips, overwrite, and growth for live spans
// wider than the ring.
func TestSeqRingBasics(t *testing.T) {
	r := &seqRing[int]{}
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
	ep := NewEndpoint(env, 0, cfg, hostmodel.Default(), hostmodel.NewCPUs("n0"), nil, &phys.Pool{})
	c := ep.newConn(1, 1)
	c.to(live) // a white-box conn skips the handshake
	return ep, c
}

// refWindow is the map-based reference the receive window is checked
// against: the selective-repeat acceptance rules of handleData written
// the obvious way, one map per set.
type refWindow struct {
	rcvNxt, maxSeenPlus1 uint32
	accepted, gap        map[uint32]bool
}

// arrive applies one arrival and reports how handleData must have
// classified it: a duplicate, or accepted below the highest sequence
// number seen so far (out of order).
func (r *refWindow) arrive(seq uint32) (dup, ooo bool) {
	if int32(seq-r.rcvNxt) < 0 || r.accepted[seq] {
		return true, false
	}
	r.accepted[seq] = true
	delete(r.gap, seq)
	ooo = int32(seq-r.maxSeenPlus1) < 0
	if !ooo {
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
	return false, ooo
}

// deliverData injects one header-only data frame into handleData.
func deliverData(c *Conn, seq uint32) {
	c.handleData(frame.Header{Type: frame.TypeData, ConnID: 1, Seq: seq,
		OpID: uint64(seq), OpType: frame.OpWrite}, nil, 0)
}

// arriveBoth delivers seq to the conn and to the reference, holds the
// conn's duplicate / out-of-order / arrival counters and its ACK state
// to the reference's verdict, and reports whether the arrival was one
// the in-order path serves: at rcvNxt with nothing recorded.
func arriveBoth(t *testing.T, c *Conn, ref *refWindow, seq uint32) (fast bool) {
	t.Helper()
	fast = seq == c.rcvNxt && c.rcv.size() == 0
	st := c.ep.Stats
	c.ackDue = false
	deliverData(c, seq)
	dup, ooo := ref.arrive(seq)
	got := c.ep.Stats
	switch {
	case got.Duplicates-st.Duplicates != count(dup):
		t.Fatalf("seq %d: duplicate counted %d times, reference says %v", seq, got.Duplicates-st.Duplicates, dup)
	case got.Arrivals-st.Arrivals != count(!dup):
		t.Fatalf("seq %d: arrival counted %d times, reference duplicate=%v", seq, got.Arrivals-st.Arrivals, dup)
	case got.OOOArrivals-st.OOOArrivals != count(ooo):
		t.Fatalf("seq %d: out-of-order counted %d times, reference says %v", seq, got.OOOArrivals-st.OOOArrivals, ooo)
	case dup && !c.ackDue:
		t.Fatalf("seq %d: a duplicate was not re-acknowledged", seq)
	}
	return fast
}

// arriveRx delivers seq to the bare receive window x — arqRx's own
// arrival, no endpoint — and to the reference, holds arrive's verdict to
// the reference's, and reports whether the arrival took the in-order
// path.
func arriveRx(t *testing.T, x *arqRx, ref *refWindow, seq uint32) (fast bool) {
	t.Helper()
	fast = seq == x.rcvNxt && x.rcv.size() == 0
	got := x.arrive(seq, 0, false, func(uint32) {})
	want := inOrder
	switch dup, ooo := ref.arrive(seq); {
	case dup:
		want = duplicate
	case ooo:
		want = outOfOrder
	}
	if got != want {
		t.Fatalf("seq %d: verdict %d, reference %d", seq, got, want)
	}
	return fast
}

// count is 1 for true: how many times an event the reference predicts
// must have been counted.
func count(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// checkRcvWindow compares receive window c with the reference over
// [lo, hi): same accepted set, same gap set, the gaps counter equal to
// the number of gap records and inside its cap, nothing kept below the
// cumulative point.
func checkRcvWindow(t *testing.T, c *arqRx, ref *refWindow, lo, hi uint32) {
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

// startRef moves receive window x to base and returns a reference
// window at the same point.
func startRef(x *arqRx, base uint32) *refWindow {
	x.rcvNxt, x.maxSeenPlus1 = base, base
	return &refWindow{rcvNxt: base, maxSeenPlus1: base, accepted: map[uint32]bool{}, gap: map[uint32]bool{}}
}

// TestRcvWindowAgainstReference drives the receive window — the in-order
// path and the ring behind it — with what a lossy multi-rail fabric
// delivers and holds it to refWindow. "random": seeded flights as wide as
// a sender can make them (Window + 64 sequence numbers of probe slack),
// each in a random order or, one in three, in order, with drops repaired
// late and duplicates, across the sequence wrap, checked record by record
// and counter by counter after every arrival; at Window 512 a flight
// opens more gaps than maxTrackedGaps, so the cap is exercised too.
// "million": the bounded-growth regression — a million frames through a
// steady loss pattern never grow the ring beyond the window it was
// configured for. Both runs must take each path many times.
func TestRcvWindowAgainstReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		capped := false
		fast, ring := 0, 0
		for _, window := range []int{128, 512} {
			c := &arqRx{}
			span := uint32(window + 64)
			ref := startRef(c, -(span * 5 / 2)) // the third flight straddles the wrap
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
				if rng.Intn(3) > 0 {
					rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				}
				rng.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
				for _, seq := range append(order, late...) {
					if arriveRx(t, c, ref, seq) {
						fast++
					} else {
						ring++
					}
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
		t.Logf("%d in-order arrivals, %d through the ring", fast, ring)
		if fast < 20 || ring < 20 {
			t.Errorf("%d in-order and %d ring arrivals: a path went untested", fast, ring)
		}
	})
	t.Run("million", func(t *testing.T) {
		c := &arqRx{}
		ref := startRef(c, 0)
		const total = 1_000_000
		const lossEvery = 97 // drop every 97th first transmission...
		const repairLag = 40 // ...and deliver it this many frames later
		var pending []uint32 // lost frames awaiting their late delivery
		fast := 0
		arrive := func(seq uint32) {
			if arriveRx(t, c, ref, seq) {
				fast++
			}
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
		if fast < total/2 || fast > total-2*total/lossEvery {
			t.Errorf("%d of %d arrivals took the in-order path", fast, total)
		}
	})
}

// TestRcvInOrderCorners pins the in-order path where it meets the ring:
// it resumes once the last gap closes, it drops and re-ACKs a duplicate,
// it runs across the 32-bit wrap, it takes over from a window whose
// untracked flag outlives its gaps, and teardown and rebirth are safe on
// a conn that never built a ring. Every arrival is held to refWindow.
func TestRcvInOrderCorners(t *testing.T) {
	noRing := func(t *testing.T, c *Conn) {
		t.Helper()
		if c.rcv.slots != nil {
			t.Fatalf("the receive window was built (%d slots)", len(c.rcv.slots))
		}
	}
	run := func(t *testing.T, c *Conn, ref *refWindow, wantFast bool, seqs ...uint32) {
		t.Helper()
		for _, s := range seqs {
			if fast := arriveBoth(t, c, ref, s); fast != wantFast {
				t.Fatalf("seq %d: in-order path %v, want %v", s, fast, wantFast)
			}
			checkRcvWindow(t, &c.arqRx, ref, ref.rcvNxt-512, ref.rcvNxt+512)
		}
	}
	t.Run("resumes after the last gap closes", func(t *testing.T) {
		_, c := arqEndpoint(t, 128)
		ref := startRef(&c.arqRx, 0)
		run(t, c, ref, true, 0, 1)
		noRing(t, c)
		run(t, c, ref, false, 4, 3, 2) // two gaps open, then close
		if c.rcv.size() != 0 || c.rcvNxt != 5 {
			t.Fatalf("after the gaps closed: %d records, rcvNxt %d", c.rcv.size(), c.rcvNxt)
		}
		run(t, c, ref, true, 5, 6, 7)
	})
	t.Run("duplicate below rcvNxt", func(t *testing.T) {
		_, c := arqEndpoint(t, 128)
		ref := startRef(&c.arqRx, 100)
		run(t, c, ref, true, 100, 101, 102, 103)
		run(t, c, ref, false, 103, 100) // dropped, re-ACKed
		run(t, c, ref, true, 104)
		noRing(t, c)
	})
	t.Run("across the wrap", func(t *testing.T) {
		_, c := arqEndpoint(t, 128)
		ref := startRef(&c.arqRx, ^uint32(0)-7)
		var seqs []uint32
		for s := ^uint32(0) - 7; s != 9; s++ {
			seqs = append(seqs, s)
		}
		run(t, c, ref, true, seqs...)
		run(t, c, ref, false, ^uint32(0))
		noRing(t, c)
		if c.rcvNxt != 9 || c.maxSeenPlus1 != 9 {
			t.Fatalf("cursors (%d, %d) after the wrap, want (9, 9)", c.rcvNxt, c.maxSeenPlus1)
		}
	})
	t.Run("untracked gaps, empty ring", func(t *testing.T) {
		ep, c := arqEndpoint(t, 512)
		ref := startRef(&c.arqRx, 1000)
		run(t, c, ref, false, 1300) // 300 gaps, 44 past the cap
		if !c.untracked || c.gaps != maxTrackedGaps {
			t.Fatalf("untracked %v, %d gaps: the cap was not reached", c.untracked, c.gaps)
		}
		for s := uint32(1000); s < 1300; s++ {
			run(t, c, ref, false, s)
		}
		if c.rcv.size() != 0 || c.rcvNxt != 1301 || !c.untracked {
			t.Fatalf("%d records, rcvNxt %d, untracked %v: want an empty window with the flag still set",
				c.rcv.size(), c.rcvNxt, c.untracked)
		}
		if m := c.scanMissing(ep.env.Now(), 0, &ep.cfg, c.rails, nil, c.gapDropped); len(m) != 0 || c.rcv.size() != 0 {
			t.Fatalf("the scan of an empty window named %v and left %d records", m, c.rcv.size())
		}
		run(t, c, ref, true, 1301, 1302)
		run(t, c, ref, false, 1304, 1303)
		run(t, c, ref, true, 1305)
	})
	t.Run("stopTimers and rebirth without a ring", func(t *testing.T) {
		_, c := arqEndpoint(t, 128)
		ref := startRef(&c.arqRx, 0)
		run(t, c, ref, true, 0, 1, 2)
		c.park(0) // stopTimers, and the move to reconnecting that rebirth leaves
		noRing(t, c)
		c.rebirth(2)
		if c.rcvNxt != 0 || c.maxSeenPlus1 != 0 || c.gaps != 0 || c.untracked {
			t.Fatalf("rebirth left (%d, %d), %d gaps, untracked %v", c.rcvNxt, c.maxSeenPlus1, c.gaps, c.untracked)
		}
		ref = startRef(&c.arqRx, 0)
		run(t, c, ref, true, 0, 1)
		noRing(t, c)
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

// has reports whether s is present (set-style use).
func (r *seqRing[T]) has(s uint32) bool {
	_, ok := r.get(s)
	return ok
}
