package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// TestClosedConnEmitsNoFrames stages exactly the leak ISSUE 4 fixes: a
// receiver with a pending delayed ACK, a tracked gap and an armed NACK
// timer is closed; afterwards not one more frame may leave any NIC and
// the event queue must drain (no ACK/NACK/RTO callback survives the
// teardown).
func TestClosedConnEmitsNoFrames(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	// Slow every repair path down so the staged state is still pending
	// when the close lands: the gap's NACK is 25ms away, the sender's
	// RTO 500ms, and the delayed ACK 5ms.
	cfg.Core.RTO = 500 * sim.Millisecond
	cfg.Core.NackDelay = 100 * sim.Millisecond
	cfg.Core.AckDelay = 5 * sim.Millisecond
	cfg.Core.AckEvery = 1000 // only the timer path may ack
	cfg.Core.DeadInterval = 0
	cl := cluster.New(cfg)
	c01, c10 := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const n = 8 * 1444
	src, dst := ep0.Alloc(n), ep1.Alloc(n)
	fill(ep0.Mem()[src:src+uint64(n)], 3)
	// Kill data frame seq 2 once: node 1 tracks the gap forever (its
	// NACK and the sender's RTO are configured far in the future).
	dropped := false
	cl.Nodes[0].NICs[0].OutPort().SetDropFilter(func(f *phys.Frame) bool {
		if typ, seq := decodeType(f); typ == frame.TypeData && seq == 2 && !dropped {
			dropped = true
			return true
		}
		return false
	})
	cl.Env.Go("writer", func(p *sim.Proc) {
		c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})
		// Do not Wait: the transfer is deliberately never completed.
	})
	var gapsAtClose, timersAtClose int
	var ackDueOrTimer bool
	closedOK := false
	cl.Env.Go("closer", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond) // all surviving frames delivered
		gapsAtClose = c10.TrackedGapsForTest()
		ackDue, _ := c10.CtrlStateForTest()
		ackDueOrTimer = ackDue || c10.PendingTimersForTest() > 0
		c10.Close(p)
		timersAtClose = c10.PendingTimersForTest() + c01.PendingTimersForTest()
		closedOK = true
	})
	cl.Env.RunUntil(10 * sim.Millisecond)
	if !closedOK {
		t.Fatal("close did not complete")
	}
	if !dropped || gapsAtClose == 0 {
		t.Fatalf("staging failed: dropped=%v gaps=%d", dropped, gapsAtClose)
	}
	if !ackDueOrTimer {
		t.Fatal("staging failed: no delayed-ACK state pending at close")
	}
	if timersAtClose != 0 {
		t.Errorf("%d protocol timers still pending after close", timersAtClose)
	}
	frames := cl.Collect().WireFrames
	// Run far past every configured timer: a leaked ACK/NACK/RTO
	// callback would emit now.
	end := cl.Env.Run()
	if after := cl.Collect().WireFrames; after != frames {
		t.Errorf("%d frames emitted after close (total %d -> %d)", after-frames, frames, after)
	}
	if end > 10*sim.Millisecond {
		t.Errorf("events executed until %v after close (leaked timer kept the sim alive)", end)
	}
	if pend := cl.Env.PendingEvents(); pend != 0 {
		t.Errorf("%d events still queued after teardown", pend)
	}
	if got := ep0.ActiveConns() + ep1.ActiveConns(); got != 0 {
		t.Errorf("%d conns still in endpoint tables after close", got)
	}
}

// TestTeardownUnderLoad closes 100 connections mid-transfer under loss
// and requires the simulation to drain completely: every close
// handshake terminates, no timer callback outlives its conn, and both
// endpoints' tables empty out. Run under -race in CI.
func TestTeardownUnderLoad(t *testing.T) {
	for _, scaled := range []bool{false, true} {
		scaled := scaled
		t.Run(fmt.Sprintf("schedQueue=%v", scaled), func(t *testing.T) {
			cfg := cluster.OneLink1G(2)
			cfg.Seed = 911
			cfg.Link.LossProb = 0.02
			cfg.Core.SchedQueue = scaled
			cl := cluster.New(cfg)
			ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
			const conns = 100
			const n = 16 * 1444
			closed := 0
			for i := 0; i < conns; i++ {
				i := i
				cl.Env.Go(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
					c := ep0.Dial(p, 1, 0)
					src := ep0.Alloc(n)
					dst := ep1.Alloc(n)
					fill(ep0.Mem()[src:src+uint64(n)], byte(i))
					c.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})
					// Close mid-transfer: Close drains the op (under
					// loss, via repair) before the handshake.
					p.Sleep(sim.Time(50+i) * sim.Microsecond)
					c.Close(p)
					closed++
				})
			}
			cl.Env.RunUntil(60 * sim.Second)
			if closed != conns {
				t.Fatalf("only %d/%d closes completed", closed, conns)
			}
			if got := ep0.ActiveConns() + ep1.ActiveConns(); got != 0 {
				t.Errorf("%d conns still in endpoint tables", got)
			}
			if pend := cl.Env.PendingEvents(); pend != 0 {
				t.Errorf("%d events still queued after all conns closed", pend)
			}
		})
	}
}

// TestNackStateBoundedUnderOutage opens a sender window far wider than
// the tracked-gap cap, blacks out the only repair-relevant rail long
// enough to open a window-wide hole, and verifies that (a) receive-side
// gap state and the queued NACK list stay bounded the whole run, (b)
// the overflow is counted, and (c) the transfer still completes intact
// once the outage heals — the cumulative-ACK fallback repairs what the
// capped NACKs do not name.
func TestNackStateBoundedUnderOutage(t *testing.T) {
	cfg := cluster.TwoLink1G(2)
	cfg.Seed = 7
	cfg.Core.Window = 1024 // gaps can dwarf maxTrackedGaps
	cfg.Core.DeadLinkThreshold = 0
	cfg.Core.DeadInterval = 0
	cl := cluster.New(cfg)
	c01, c10 := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const n = 3000 * 1444
	src, dst := ep0.Alloc(n), ep1.Alloc(n)
	fill(ep0.Mem()[src:src+uint64(n)], 11)
	// From 200µs to 10ms every even-sequence data frame vanishes on both
	// rails — retransmissions included. Odd frames keep arriving until
	// the sender has a full 1024-frame window outstanding (~6ms at
	// 2×1Gb/s), so the receiver accumulates ~512 holes and the
	// tracked-gap map is driven straight into its cap.
	blackout := func(f *phys.Frame) bool {
		now := cl.Env.Now()
		if now < 200*sim.Microsecond || now >= 10*sim.Millisecond {
			return false
		}
		typ, seq := decodeType(f)
		return typ == frame.TypeData && seq%2 == 0
	}
	cl.Nodes[0].NICs[0].OutPort().SetDropFilter(blackout)
	cl.Nodes[0].NICs[1].OutPort().SetDropFilter(blackout)
	done := false
	cl.Env.Go("xfer", func(p *sim.Proc) {
		c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}).Wait(p)
		done = true
	})
	maxGaps, maxNacks := 0, 0
	var watch func()
	watch = func() {
		if g := c10.TrackedGapsForTest(); g > maxGaps {
			maxGaps = g
		}
		if nk := c10.NackDueForTest(); nk > maxNacks {
			maxNacks = nk
		}
		cl.Env.AfterDaemon(20*sim.Microsecond, watch)
	}
	cl.Env.AfterDaemon(20*sim.Microsecond, watch)
	cl.Env.RunUntil(120 * sim.Second)
	if !done {
		t.Fatal("transfer did not complete after outage healed")
	}
	if !bytes.Equal(ep1.Mem()[dst:dst+uint64(n)], ep0.Mem()[src:src+uint64(n)]) {
		t.Fatal("data corrupted across outage repair")
	}
	if maxGaps > core.MaxTrackedGapsForTest {
		t.Errorf("tracked gaps peaked at %d, cap %d", maxGaps, core.MaxTrackedGapsForTest)
	}
	if maxNacks > core.MaxNackForTest {
		t.Errorf("queued NACK list peaked at %d, cap %d", maxNacks, core.MaxNackForTest)
	}
	if got := cl.Collect().Proto.NackGapsDropped; got == 0 {
		t.Error("outage never hit the tracked-gap cap (test lost its teeth: widen the blackout)")
	}
	if maxGaps < core.MaxTrackedGapsForTest {
		t.Errorf("tracked gaps peaked at %d, never reached the cap %d", maxGaps, core.MaxTrackedGapsForTest)
	}
}

// TestFailedConnDropsHeldFrames pins who owns the payload copies the
// ordering engine makes. Frames are held behind a lost one under
// Config.Strict and under a backward fence (a forward fence stalls the
// sender instead, so the receiver never holds for it). While the conn
// lives, a drain must not leave applied frames' copies reachable in the
// buffer's spare capacity; when the peer dies with frames still held,
// the failed conn must not keep them — there is one reorder buffer, and
// failConn drops it.
func TestFailedConnDropsHeldFrames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		strict bool
		flags  frame.OpFlags // on the second write of each pair
	}{{"strict", true, 0}, {"fence", false, frame.FenceBefore}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := cluster.TwoLinkUnordered1G(2)
			cfg.Core.Strict = tc.strict
			cfg.Core.HeartbeatInterval = 5 * sim.Millisecond
			cfg.Core.DeadInterval = 50 * sim.Millisecond
			cl, c01, c10 := pairCluster(t, cfg)
			ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
			const n = 16 * 1444 // 16 frames per write
			src, dst := ep0.Alloc(2*n), ep1.Alloc(2*n)
			fill(ep0.Mem()[src:src+2*n], 7)
			// Data frame `lost` dies on whichever rail carries it: its
			// first copy only, or (forever) every copy.
			lost, forever, drops := uint32(3), false, 0
			for _, nic := range cl.Nodes[0].NICs {
				nic.OutPort().SetDropFilter(func(f *phys.Frame) bool {
					typ, seq := decodeType(f)
					if typ != frame.TypeData || seq != lost || (drops > 0 && !forever) {
						return false
					}
					drops++
					return true
				})
			}
			pair := func(p *sim.Proc) (a, b *core.Handle) {
				a = c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})
				b = c01.MustDo(p, core.Op{Remote: dst + n, Local: src + n, Size: n, Kind: frame.OpWrite, Flags: tc.flags})
				return a, b
			}
			var heldLive, staleLive, heldStaged int
			cl.Env.Go("writer", func(p *sim.Proc) {
				// Seqs 0-31: seq 3 is repaired, everything held behind it
				// drains.
				a, b := pair(p)
				a.Wait(p)
				b.Wait(p)
				heldLive, staleLive = c10.HeldForTest()
				// Seqs 32-63: seq 35 never arrives, then the peer dies.
				lost, forever = 35, true
				pair(p)
				p.Sleep(2 * sim.Millisecond)
				heldStaged, _ = c10.HeldForTest()
				killAllRails(cl, 0)
			})
			cl.Env.RunUntil(sim.Second)
			if !bytes.Equal(ep1.Mem()[dst:dst+2*n], ep0.Mem()[src:src+2*n]) {
				t.Fatal("first pair of writes corrupted")
			}
			if st := ep1.Stats; st.HeldFrames == 0 || heldStaged == 0 {
				t.Fatalf("staging failed: %d frames ever held, %d held at the kill", st.HeldFrames, heldStaged)
			}
			if heldLive != 0 || staleLive != 0 {
				t.Errorf("after the repair drained the buffer: %d frames held, %d payload copies still referenced past its length",
					heldLive, staleLive)
			}
			if !c10.Failed() {
				t.Fatal("receiver never declared the silent peer dead")
			}
			if held, stale := c10.HeldForTest(); held != 0 || stale != 0 {
				t.Errorf("failed conn keeps %d held frames and %d stale payload copies", held, stale)
			}
		})
	}
}
