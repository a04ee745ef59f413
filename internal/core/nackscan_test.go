package core

import (
	"math/rand"
	"slices"
	"testing"

	"multiedge/internal/sim"
)

// rxSide is a receiver's ARQ window and rails, driven at a clock the
// test owns with no endpoint: dropped counts the gaps the
// maxTrackedGaps cap left untracked.
type rxSide struct {
	arqRx
	railSet
	dropped uint64
}

func (x *rxSide) drop(uint32) { x.dropped++ }

// arrive is handleData's selective-repeat bookkeeping — the rail's
// arrival mark and arqRx's own arrival — without the scan, the
// acknowledgement or the apply.
func (x *rxSide) arrive(seq uint32, link int, now sim.Time) {
	x.arrived(link, seq, now)
	x.arqRx.arrive(seq, now, false, x.drop)
}

// refScanMissing is the loss scan as it was before it learnt where to
// stop: every sequence number of [rcvNxt, maxSeenPlus1) looked up, and
// every rail asked about every candidate. It is the oracle scanMissing
// is held to.
func refScanMissing(x *rxSide, cfg *Config, now, minAge sim.Time) []uint32 {
	var missing []uint32
	for s := x.rcvNxt; int32(x.maxSeenPlus1-s) > 0 && len(missing) < maxNack; s++ {
		gap, tracked := x.rcv.get(s)
		if gap.accepted {
			continue
		}
		if !tracked {
			x.trackGap(s, now, x.drop)
			continue
		}
		if now-gap.since < minAge {
			continue
		}
		if gap.nacked > 0 && now-gap.nacked < 4*cfg.nackAge() {
			continue
		}
		stale := cfg.LinkStaleAge
		passed := true
		for li := range x.rails {
			if r := &x.rails[li]; int32(r.high-s) <= 0 {
				if stale > 0 && now-r.last > stale {
					continue
				}
				passed = false
				break
			}
		}
		if passed {
			missing = append(missing, s)
			gap.nacked = now
			x.rcv.put(s, gap)
		}
	}
	return missing
}

// TestNackScanAgainstReference holds scanMissing to the per-sequence
// loop it replaced. Two conns receive the same arrivals: flights striped
// over 1-4 rails that each deliver in order but drift apart, lose
// frames singly and in bursts, fall silent past LinkStaleAge (or have no
// stale age at all) and repair late, some across the 32-bit wrap. After
// every arrival both are scanned at the same clock, one by scanMissing
// and one by the oracle, and the NACK lists, every record of the window
// (the NACK stamps included), the gap count and the dropped-gap counter
// must agree.
func TestNackScanAgainstReference(t *testing.T) {
	var scans, nacked, fullLists, capped, pickedUp, staleVeto, shortWalks, cleanNacks int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rails := 1 + rng.Intn(4)
		cfg := DefaultConfig()
		cfg.MemBytes = 1 << 16
		if rng.Intn(4) == 0 {
			cfg.LinkStaleAge = 0 // a silent rail keeps its veto for good
		}
		var pair [2]*rxSide
		base := uint32(0)
		if rng.Intn(2) == 0 {
			base = -uint32(rng.Intn(3000)) // the flights cross the wrap
		}
		for i := range pair {
			x := &rxSide{railSet: railSet{rails: make([]rail, rails)}}
			x.rcvNxt, x.maxSeenPlus1 = base, base
			for li := range x.rails {
				x.rails[li].high = base
			}
			pair[i] = x
		}
		got, want := pair[0], pair[1]
		age := cfg.nackAge()

		// One queue per rail, drained in order; which rail delivers next
		// is random and lopsided, so the rails' marks drift apart.
		queues := make([][]uint32, rails)
		var late []uint32 // lost first transmissions, repaired on any rail
		speed := make([]int, rails)
		for i := range speed {
			speed[i] = 1 + rng.Intn(8)
		}
		next, burst := base, 0
		mild := seed%2 == 0 // rare single losses, repaired soon: the gap cap is never hit
		lossOneIn, repairOneIn := 25, 20
		if mild {
			lossOneIn, repairOneIn = 60, 3
		}
		refill := func() {
			deadRail := -1
			if !mild && rng.Intn(3) == 0 {
				deadRail = rng.Intn(rails) // loses its whole share of this flight
			}
			for n := 200 + rng.Intn(1200); n > 0; n-- {
				s := next
				next++
				li := int(s) % rails
				if !mild && burst == 0 && rng.Intn(150) == 0 {
					burst = 20 + rng.Intn(120)
				}
				if burst > 0 || (li == deadRail && rails > 1) || rng.Intn(lossOneIn) == 0 {
					burst = max(burst-1, 0)
					late = append(late, s)
					continue
				}
				queues[li] = append(queues[li], s)
			}
		}
		now := sim.Time(1)
		for step := 0; step < 4000; step++ {
			if step%1500 == 0 {
				refill()
			}
			switch c := rng.Intn(100); {
			case c < 2:
				now += cfg.LinkStaleAge + sim.Time(rng.Int63n(int64(4*age))) // long enough for rails to go stale
			case c < 30:
				now += sim.Time(rng.Int63n(int64(age)))
			}
			var seq uint32
			var link int
			// A repair is for a loss the flight has gone past.
			overdue := slices.IndexFunc(late, func(s uint32) bool { return int32(s-got.maxSeenPlus1) < 0 })
			if overdue >= 0 && rng.Intn(repairOneIn) == 0 {
				seq, link = late[overdue], rng.Intn(rails)
				late = slices.Delete(late, overdue, overdue+1)
			} else {
				total := 0
				for li, q := range queues {
					if len(q) > 0 {
						total += speed[li]
					}
				}
				if total == 0 {
					continue
				}
				pick := rng.Intn(total)
				for li, q := range queues {
					if len(q) == 0 {
						continue
					}
					if pick -= speed[li]; pick < 0 {
						seq, link, queues[li] = q[0], li, q[1:]
						break
					}
				}
			}
			minAge := age
			if rng.Intn(3) == 0 {
				minAge = age / 2 // force
			}
			for _, x := range pair {
				x.arrive(seq, link, now)
			}
			span := int32(got.maxSeenPlus1 - got.rcvNxt)
			wasUntracked, hadDrops := got.untracked, got.dropped
			a, b := got.scanMissing(now, minAge, &cfg, got.rails, nil, got.drop), refScanMissing(want, &cfg, now, minAge)
			if !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d (%d rails, window [%d, %d)): scan NACKs %v, reference %v",
					seed, step, rails, got.rcvNxt, got.maxSeenPlus1, a, b)
			}
			if got.rcvNxt != want.rcvNxt || got.maxSeenPlus1 != want.maxSeenPlus1 || got.gaps != want.gaps ||
				got.dropped != want.dropped {
				t.Fatalf("seed %d step %d: cursors (%d, %d) gaps %d dropped %d, reference (%d, %d) %d %d", seed, step,
					got.rcvNxt, got.maxSeenPlus1, got.gaps, got.dropped,
					want.rcvNxt, want.maxSeenPlus1, want.gaps, want.dropped)
			}
			for k := int32(-8); k < span+8; k++ {
				s := got.rcvNxt + uint32(k)
				ga, oka := got.rcv.get(s)
				gb, okb := want.rcv.get(s)
				if ga != gb || oka != okb {
					t.Fatalf("seed %d step %d: seq %d holds %+v (%v), reference %+v (%v)", seed, step, s, ga, oka, gb, okb)
				}
			}
			scans++
			nacked += len(a)
			if len(a) == maxNack {
				fullLists++
			}
			if got.gaps == maxTrackedGaps {
				capped++
			}
			if wasUntracked && got.dropped == hadDrops && got.gaps > 0 {
				pickedUp++ // visited the dropped gaps and had room for them all
			}
			for li := range got.rails {
				if r := &got.rails[li]; cfg.LinkStaleAge > 0 && now-r.last > cfg.LinkStaleAge && int32(r.high-got.rcvNxt) < span && len(a) > 0 {
					staleVeto++ // NACKed past a rail that has gone silent
				}
			}
			if !wasUntracked && span > 32 && len(a) == 0 {
				shortWalks++
			}
			if !wasUntracked && len(a) > 0 {
				cleanNacks++
			}
		}
	}
	t.Logf("%d scans, %d sequence numbers NACKed", scans, nacked)
	for name, n := range map[string]int{
		"a full NACK list (maxNack)": fullLists, "the maxTrackedGaps cap": capped,
		"dropped gaps picked up later": pickedUp, "a stale rail overruled": staleVeto,
		"a wide window with nothing to report": shortWalks, "NACKs with every gap tracked": cleanNacks,
	} {
		if n < 20 {
			t.Errorf("corner case %q reached %d times", name, n)
		}
	}
}

// TestNackScanStampsOnlyWhatItNames: a gap is marked "repair in flight"
// only by a scan that puts it on the NACK list. With a NACK of 40
// sequence numbers still waiting to go out and 40 more gaps come of age,
// the scan has room for 24: those are named and stamped, and the other
// 16 stay eligible for the scan after the NACK has left — they used to be
// stamped too, then cut off the merged list, and so went unreported for
// 4 nackAge although no frame had named them.
func TestNackScanStampsOnlyWhatItNames(t *testing.T) {
	ep, c := arqEndpoint(t, 128)
	ep.threadActive = true // the protocol thread never runs: no NACK leaves by itself
	age := ep.cfg.nackAge()
	at := func(now sim.Time) {
		ep.env.SchedAt(now, func() {})
		ep.env.RunUntil(now)
	}
	stamped := func(lo, hi uint32, when sim.Time) (n int) {
		for s := lo; s < hi; s++ {
			if gap, _ := c.rcv.get(s); !gap.accepted && gap.nacked == when {
				n++
			}
		}
		return n
	}
	arriveOdd := func(lo, hi uint32, now sim.Time) {
		for s := lo + 1; s < hi; s += 2 {
			c.arrived(0, s, now)
			c.arrive(s, now, false, c.gapDropped)
		}
	}
	t0, t1, t2, t3 := sim.Time(1), 1+age, 1+2*age, 1+3*age
	arriveOdd(0, 80, t0) // gaps 0, 2 .. 78
	at(t1)
	c.queueNack(false)
	if len(c.nackDue) != 40 || stamped(0, 80, t1) != 40 {
		t.Fatalf("first scan: %d named, %d stamped, want 40 and 40", len(c.nackDue), stamped(0, 80, t1))
	}
	arriveOdd(80, 160, t1) // gaps 80, 82 .. 158
	at(t2)
	c.queueNack(false)
	if len(c.nackDue) != maxNack || !slices.IsSortedFunc(c.nackDue, seqCmp) {
		t.Fatalf("second scan: NACK list %v, want %d ascending", c.nackDue, maxNack)
	}
	if n := stamped(80, 160, t2); n != 24 || c.nackDue[maxNack-1] != 126 {
		t.Fatalf("second scan stamped %d of the new gaps and named up to %d; want 24 and 126", n, c.nackDue[maxNack-1])
	}
	c.nackDue = c.nackDue[:0] // as sendCtrl leaves it
	at(t3)
	c.queueNack(false)
	want := make([]uint32, 0, 16)
	for s := uint32(128); s < 160; s += 2 {
		want = append(want, s)
	}
	if !slices.Equal(c.nackDue, want) {
		t.Fatalf("third scan names %v, want the 16 gaps the second had no room for: %v", c.nackDue, want)
	}
}
