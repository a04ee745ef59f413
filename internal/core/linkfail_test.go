package core_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// failPair builds a 2-node, 2-link cluster and starts a bulk write of n
// bytes from node 0 to node 1, returning the cluster, the sending conn
// and a completion timestamp set by the sender process (zero while the
// transfer is incomplete).
func failPair(t *testing.T, n int, tweak func(*cluster.Config)) (*cluster.Cluster, *core.Conn, *sim.Time) {
	t.Helper()
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Core.MemBytes = 64 << 20
	if tweak != nil {
		tweak(&cfg)
	}
	cl := cluster.New(cfg)
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)
	fill(ep0.Mem()[src:src+uint64(n)], 11)
	doneAt := new(sim.Time)
	cl.Env.Go("sender", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		*doneAt = cl.Env.Now()
		if !bytes.Equal(ep1.Mem()[dst:dst+uint64(n)], ep0.Mem()[src:src+uint64(n)]) {
			t.Error("delivered data corrupted")
		}
	})
	return cl, c01, doneAt
}

// TestLinkFailureMidTransfer pulls one of two rails mid-transfer: the
// sender must detect the dead link, reroute everything to the survivor
// and complete the transfer with intact data.
func TestLinkFailureMidTransfer(t *testing.T) {
	const n = 4 << 20
	cl, _, doneAt := failPair(t, n, nil)
	cl.Env.At(5*sim.Millisecond, func() { cl.FailLink(0, 1) })
	cl.Env.RunUntil(2 * sim.Second)
	if *doneAt == 0 {
		t.Fatal("transfer did not complete after link failure")
	}
	st := cl.Nodes[0].EP.Stats
	if st.LinkDeadEvents == 0 {
		t.Error("sender never declared the failed link dead")
	}
	if st.LinkRestores != 0 {
		t.Errorf("link restored %d times while still failed", st.LinkRestores)
	}
	// After detection the survivor carries everything: the failed rail's
	// NIC must have stopped far short of its share of the transfer.
	deadTx := cl.Nodes[0].NICs[1].TxFrames
	liveTx := cl.Nodes[0].NICs[0].TxFrames
	if deadTx*4 > liveTx {
		t.Errorf("dead rail kept transmitting: dead=%d live=%d frames", deadTx, liveTx)
	}
}

// TestLinkFailureThroughput checks the performance contract: with
// detection enabled, losing one of two rails degrades a long transfer
// to roughly single-rail speed rather than RTO-paced collapse.
func TestLinkFailureThroughput(t *testing.T) {
	const n = 8 << 20
	cl, _, doneAt := failPair(t, n, nil)
	cl.FailLink(0, 1) // dead from the start
	start := cl.Env.Now()
	cl.Env.RunUntil(5 * sim.Second)
	if *doneAt == 0 {
		t.Fatal("transfer did not complete")
	}
	mbs := float64(n) / 1e6 / (*doneAt - start).Seconds()
	// One 1-GBit/s rail peaks at ~117 MB/s in this model; detection
	// should keep a half-dead dual-rail transfer above 80 MB/s. Without
	// it the transfer limps at a few MB/s (see the ablation bench).
	if mbs < 80 {
		t.Errorf("throughput with one dead rail = %.1f MB/s, want > 80", mbs)
	}
}

// TestLinkFailureDisabled verifies the knob: with DeadLinkThreshold 0
// the sender keeps striping onto the dead rail and only the receiver's
// stale-link NACK escape plus RTOs crawl the transfer forward.
func TestLinkFailureDisabled(t *testing.T) {
	const n = 256 << 10
	cl, _, doneAt := failPair(t, n, func(cfg *cluster.Config) {
		cfg.Core.DeadLinkThreshold = 0
	})
	cl.FailLink(0, 1)
	cl.Env.RunUntil(10 * sim.Second)
	if *doneAt == 0 {
		t.Fatal("transfer did not complete (repair must still converge)")
	}
	st := cl.Nodes[0].EP.Stats
	if st.LinkDeadEvents != 0 {
		t.Errorf("LinkDeadEvents = %d with detection disabled", st.LinkDeadEvents)
	}
	// Half of every window is still burned on the dead rail.
	if drops := cl.Collect().LinkFailDrops; drops < uint64(n/2/1444/2) {
		t.Errorf("expected sustained striping onto the dead rail, got %d failed-drops", drops)
	}
}

// TestLinkRestore repairs the cable mid-run: the sender must probe the
// dead rail, notice the repair and resume striping over both links.
func TestLinkRestore(t *testing.T) {
	const n = 24 << 20
	cl, _, doneAt := failPair(t, n, nil)
	cl.Env.At(2*sim.Millisecond, func() { cl.FailLink(0, 1) })
	cl.Env.At(60*sim.Millisecond, func() { cl.RestoreLink(0, 1) })
	cl.Env.RunUntil(5 * sim.Second)
	if *doneAt == 0 {
		t.Fatal("transfer did not complete")
	}
	st := cl.Nodes[0].EP.Stats
	if st.LinkDeadEvents == 0 {
		t.Fatal("link was never declared dead")
	}
	if st.LinkRestores == 0 {
		t.Fatal("repaired link was never re-admitted")
	}
	// Post-restore the rails share load again: rail 1 must have carried
	// a substantial fraction of the whole transfer despite its outage.
	tx0 := cl.Nodes[0].NICs[0].TxFrames
	tx1 := cl.Nodes[0].NICs[1].TxFrames
	if tx1*4 < tx0 {
		t.Errorf("restored rail underused: rail0=%d rail1=%d frames", tx0, tx1)
	}
}

// TestLinkFailureLastLink ensures the last surviving link can never be
// declared dead, even when it is the one failing: the sender must keep
// retransmitting on it so a repaired link resumes by itself.
func TestLinkFailureLastLink(t *testing.T) {
	const n = 64 << 10
	cl, _, doneAt := failPair(t, n, nil)
	cl.Env.At(1*sim.Millisecond, func() { cl.FailLink(0, 0); cl.FailLink(0, 1) })
	cl.Env.At(40*sim.Millisecond, func() { cl.RestoreLink(0, 0); cl.RestoreLink(0, 1) })
	cl.Env.RunUntil(10 * sim.Second)
	if *doneAt == 0 {
		t.Fatal("transfer did not complete after full outage and repair")
	}
	st := cl.Nodes[0].EP.Stats
	if st.LinkDeadEvents > 1 {
		t.Errorf("declared %d links dead; at most one of two may die", st.LinkDeadEvents)
	}
}

// TestStaleLinkNackEscape pins the receiver-side half of failure
// handling in isolation: with sender-side detection disabled, repair of
// frames lost on a dead rail must still be NACK-driven (fast) rather
// than purely RTO-driven, because the silent rail loses its veto after
// LinkStaleAge. One RTO-paced frame per 2ms would need ~2.9s for 64KiB;
// NACK-driven repair finishes in well under half a second.
func TestStaleLinkNackEscape(t *testing.T) {
	const n = 64 << 10
	cl, _, doneAt := failPair(t, n, func(cfg *cluster.Config) {
		cfg.Core.DeadLinkThreshold = 0
	})
	cl.FailLink(0, 1)
	cl.Env.RunUntil(500 * sim.Millisecond)
	if *doneAt == 0 {
		t.Fatal("NACK-driven repair too slow: stale-link escape not working")
	}
	if nacks := cl.Nodes[1].EP.Stats.CtrlNacksSent; nacks == 0 {
		t.Error("no NACKs sent; repair was not NACK-driven")
	}
}

// TestStaleLinkEscapeDisabled is the control for the escape, pinning
// the failure mode that motivates it (DESIGN.md §4): with LinkStaleAge
// 0 the absolute per-link FIFO veto applies, the receiver never NACKs
// the frames lost on the dead rail, and the sender's retransmit-last
// RTO rule keeps resending a frame the receiver already has — a
// livelock. With peer-death detection also disabled the transfer simply
// never completes (the legacy hang); under the default DeadInterval the
// same livelock is detected as lack of ack progress and surfaces as a
// loud ErrPeerDead within the detection bound instead.
func TestStaleLinkEscapeDisabled(t *testing.T) {
	t.Run("detection-off-livelocks", func(t *testing.T) {
		const n = 64 << 10
		cl, _, doneAt := failPair(t, n, func(cfg *cluster.Config) {
			cfg.Core.DeadLinkThreshold = 0
			cfg.Core.LinkStaleAge = 0
			cfg.Core.DeadInterval = 0 // legacy behaviour: livelock forever
		})
		cl.FailLink(0, 1)
		cl.Env.RunUntil(5 * sim.Second)
		if *doneAt != 0 {
			t.Fatal("transfer finished without the stale escape; control invalid")
		}
		st := cl.Nodes[0].EP.Stats
		if st.Retransmissions == 0 {
			t.Error("expected RTO-driven retransmissions during the livelock")
		}
		if cl.Nodes[1].EP.Stats.CtrlNacksSent != 0 {
			t.Error("receiver NACKed despite the absolute veto; control invalid")
		}
		if st.PeerDeadEvents != 0 {
			t.Error("peer declared dead with detection disabled")
		}
	})
	t.Run("default-fails-loudly", func(t *testing.T) {
		const n = 64 << 10
		cfg := cluster.TwoLinkUnordered1G(2)
		cfg.Core.MemBytes = 64 << 20
		cfg.Core.DeadLinkThreshold = 0
		cfg.Core.LinkStaleAge = 0
		cl := cluster.New(cfg)
		c01, _ := cl.Pair()
		ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
		src := ep0.Alloc(n)
		dst := ep1.Alloc(n)
		fill(ep0.Mem()[src:src+uint64(n)], 11)
		var opErr error
		var returnedAt sim.Time
		cl.Env.Go("sender", func(p *sim.Proc) {
			h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}))
			h.Wait(p)
			opErr = h.Err()
			returnedAt = cl.Env.Now()
		})
		cl.FailLink(0, 1)
		cl.Env.RunUntil(5 * sim.Second)
		if returnedAt == 0 {
			t.Fatal("Wait never returned: the livelock is no longer bounded")
		}
		if !errors.Is(opErr, core.ErrPeerDead) {
			t.Fatalf("op error = %v, want ErrPeerDead", opErr)
		}
		if c01.Err() == nil {
			t.Error("conn not marked Failed with a cause")
		}
		di := ep0.Config().DeadInterval
		if di <= 0 {
			t.Fatal("default DeadInterval disabled; test premise invalid")
		}
		if returnedAt > 2*di {
			t.Errorf("failure surfaced at %v, want within ~%v of the stall", returnedAt, di)
		}
		if ep0.Stats.PeerDeadEvents == 0 {
			t.Error("no PeerDeadEvents counted")
		}
	})
}

// TestFailLinkBothDirections verifies the cluster helper kills both
// directions: traffic from node 1 to node 0 over the failed rail is
// equally affected.
func TestFailLinkBothDirections(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(2)
	cl := cluster.New(cfg)
	_, c10 := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const n = 2 << 20
	src := ep1.Alloc(n)
	dst := ep0.Alloc(n)
	fill(ep1.Mem()[src:src+uint64(n)], 3)
	cl.FailLink(0, 1) // node 0's rail 1, both directions
	done := false
	cl.Env.Go("sender", func(p *sim.Proc) {
		must(c10.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		done = true
	})
	cl.Env.RunUntil(2 * sim.Second)
	if !done {
		t.Fatal("reverse-direction transfer did not complete")
	}
	if !bytes.Equal(ep0.Mem()[dst:dst+uint64(n)], ep1.Mem()[src:src+uint64(n)]) {
		t.Error("delivered data corrupted")
	}
	if cl.Nodes[1].EP.Stats.LinkDeadEvents == 0 {
		t.Error("node 1 never detected the dead downlink")
	}
}

// TestLinkFailureUnderLoss combines a hard failure with 1% random loss
// on the surviving rail: detection must not be confused by transient
// loss (which also causes repairs, but with ACK resets in between).
func TestLinkFailureUnderLoss(t *testing.T) {
	const n = 4 << 20
	cl, _, doneAt := failPair(t, n, func(cfg *cluster.Config) {
		cfg.Link.LossProb = 0.01
		cfg.Seed = 7
	})
	cl.Env.At(3*sim.Millisecond, func() { cl.FailLink(0, 0) })
	cl.Env.RunUntil(5 * sim.Second)
	if *doneAt == 0 {
		t.Fatal("transfer did not complete")
	}
	st := cl.Nodes[0].EP.Stats
	if st.LinkDeadEvents == 0 {
		t.Error("dead link not detected under background loss")
	}
	// The survivor must not be declared dead too: that would serialize
	// the two rails' outages and show up as a restore.
	if st.LinkDeadEvents > 1 && st.LinkRestores == 0 {
		t.Errorf("both rails marked dead without restore (events=%d)", st.LinkDeadEvents)
	}
}

// TestNoFalseDeadLinks runs a clean and a lossy dual-rail transfer and
// checks the detector's specificity: without a hard failure no link may
// ever be declared dead.
func TestNoFalseDeadLinks(t *testing.T) {
	for _, loss := range []float64{0, 0.02} {
		const n = 8 << 20
		cl, _, doneAt := failPair(t, n, func(cfg *cluster.Config) {
			cfg.Link.LossProb = loss
			cfg.Seed = 21
		})
		cl.Env.RunUntil(5 * sim.Second)
		if *doneAt == 0 {
			t.Fatalf("loss=%v: transfer did not complete", loss)
		}
		if ev := cl.Nodes[0].EP.Stats.LinkDeadEvents; ev != 0 {
			t.Errorf("loss=%v: %d false dead-link declarations", loss, ev)
		}
	}
}

// TestLinkFailureScheduleProperty is the failure-injection property
// test: under an arbitrary schedule of cable pulls and re-plugs on
// either rail (never both at once, so connectivity persists), a
// transfer must always complete and deliver byte-identical data.
func TestLinkFailureScheduleProperty(t *testing.T) {
	prop := func(seed int64, schedRaw []uint16) bool {
		const n = 1 << 20
		cfg := cluster.TwoLinkUnordered1G(2)
		cfg.Seed = seed%1000 + 1
		cl := cluster.New(cfg)
		c01, _ := cl.Pair()
		ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
		src := ep0.Alloc(n)
		dst := ep1.Alloc(n)
		fill(ep0.Mem()[src:src+uint64(n)], byte(seed))

		// Each schedule entry toggles one rail's state at a pseudo-random
		// time within the first 40 ms. Rail r is encoded in bit 0; the
		// toggle time in the remaining bits. Track desired state so a
		// rail is only failed when the other is up.
		if len(schedRaw) > 16 {
			schedRaw = schedRaw[:16]
		}
		failed := [2]bool{}
		for _, e := range schedRaw {
			r := int(e & 1)
			at := sim.Time(e>>1)%40*sim.Millisecond + sim.Millisecond
			if failed[r] {
				failed[r] = false
				cl.Env.At(at, func() { cl.RestoreLink(0, r) })
			} else if !failed[1-r] {
				failed[r] = true
				cl.Env.At(at, func() { cl.FailLink(0, r) })
			}
		}
		// Whatever the schedule left failed comes back at 60 ms so the
		// transfer can always finish at full speed.
		cl.Env.At(60*sim.Millisecond, func() {
			cl.RestoreLink(0, 0)
			cl.RestoreLink(0, 1)
		})

		var doneAt sim.Time
		cl.Env.Go("xfer", func(p *sim.Proc) {
			must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
			doneAt = cl.Env.Now()
		})
		cl.Env.RunUntil(30 * sim.Second)
		if doneAt == 0 {
			t.Logf("seed %d schedule %v: transfer incomplete", seed, schedRaw)
			return false
		}
		if !bytes.Equal(ep1.Mem()[dst:dst+n], ep0.Mem()[src:src+n]) {
			t.Logf("seed %d schedule %v: data corrupted", seed, schedRaw)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCtrlFramesAvoidStaleRail pins receiver-side control routing:
// ACK/NACK frames are never acknowledged, so the sender-side detector
// cannot protect them — instead they prefer rails that recently
// delivered. With rail 1 dead, virtually all of the receiver's control
// traffic must exit on rail 0 (a handful may leave on rail 1 within the
// first LinkStaleAge of the outage).
func TestCtrlFramesAvoidStaleRail(t *testing.T) {
	const n = 8 << 20
	cl, _, doneAt := failPair(t, n, nil)
	cl.FailLink(0, 1)
	cl.Env.RunUntil(5 * sim.Second)
	if *doneAt == 0 {
		t.Fatal("transfer did not complete")
	}
	// Node 1 only transmits control frames in this one-way run.
	ctrl0 := cl.Nodes[1].NICs[0].TxFrames
	ctrl1 := cl.Nodes[1].NICs[1].TxFrames
	if ctrl1*20 > ctrl0 {
		t.Errorf("receiver kept sending ctrl on the dead rail: rail0=%d rail1=%d", ctrl0, ctrl1)
	}
	if ctrl0 == 0 {
		t.Fatal("no control frames at all; measurement invalid")
	}
}
