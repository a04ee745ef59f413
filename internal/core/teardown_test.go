package core_test

import (
	"bytes"
	"errors"
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

// teardownExit is one way a connection ends: what the test does to end
// c01 at time at, and the sentinel every answer it owes must wrap.
type teardownExit struct {
	name     string
	sentinel error
	tweak    func(*cluster.Config)
	// trigger ends c01 at time at; nil stages a dial that ends, with
	// dial set up first (by default node 1 is paused).
	trigger func(cl *cluster.Cluster, c01, c10 *core.Conn, at sim.Time)
	dial    func(cl *cluster.Cluster)
	// byReset: the exit is a Reset from the peer, which must have arrived.
	byReset bool
	// drains names the work the exit's own contract finishes first: a
	// local Close drains what it issued, a peer's Close its read reply.
	drains map[string]bool
}

// teardownWork is one kind of outstanding work on c01. run issues it and
// returns every answer it waits for; a straddling run also reports
// whether its initiation really began before the exit and ended after.
type teardownWork struct {
	name     string
	straddle bool
	run      func(p *sim.Proc, c *core.Conn, src, dst uint64) (answers []error, straddled bool)
}

// teardownCell is what one exit × work run left behind.
type teardownCell struct {
	exitAt    sim.Time // first microsecond c01 was seen closed
	answers   []error
	returned  bool // the waiter got every answer
	straddled bool
	quotaOps  int // class 0 admission charges still held
	quotaB    int
	procs     int // processes still parked
	conns     int // conns node 0 still tables
	resets    uint64
}

const teardownAt = 500 * sim.Microsecond // after the pair is up

func teardownRun(e teardownExit, w *teardownWork, issueAt sim.Time) (o teardownCell) {
	cfg := cluster.OneLink1G(2)
	cfg.Core.SchedQueue = true
	cfg.Core.QoS = []core.QoSClass{{Weight: 1, MaxQueued: 3}}
	cfg.Core.CoalesceLimit = 256
	if e.tweak != nil {
		e.tweak(&cfg)
	}
	cl := cluster.New(cfg)
	defer cl.Close()
	ep0 := cl.Nodes[0].EP
	src, dst := ep0.Alloc(2<<20), cl.Nodes[1].EP.Alloc(2<<20)
	var c01 *core.Conn
	if e.trigger == nil {
		if e.dial == nil {
			cl.PauseNode(1)
		} else {
			e.dial(cl)
		}
		cl.Env.Go("dial", func(p *sim.Proc) { c01 = ep0.Dial(p, 1, 0) })
		cl.Env.Run()
		if c01 == nil {
			o.procs = cl.Env.Procs()
			return o // the Dial waiter never returned
		}
	} else {
		var c10 *core.Conn
		c01, c10 = cl.Pair()
		e.trigger(cl, c01, c10, cl.Env.Now()+teardownAt)
	}
	base := cl.Env.Now()
	var watch func()
	watch = func() {
		if c01.Closed() {
			o.exitAt = cl.Env.Now()
			return
		}
		cl.Env.AfterDaemon(sim.Microsecond, watch)
	}
	watch()
	if w != nil {
		if !w.straddle || e.trigger == nil {
			issueAt = base
		}
		cl.Env.At(issueAt, func() {
			cl.Env.Go(w.name, func(p *sim.Proc) {
				o.answers, o.straddled = w.run(p, c01, src, dst)
				o.returned = true
			})
		})
	}
	cl.Env.RunUntil(base + sim.Second)
	o.quotaOps, o.quotaB = ep0.QosPendingForTest(0)
	o.procs, o.conns, o.resets = cl.Env.Procs(), ep0.ActiveConns(), ep0.Stats.ResetsRecv
	return o
}

// TestTeardownEndsEveryWaiter runs every way a connection ends against
// every kind of work it can owe a caller, and requires one outcome of
// them all: each waiter returns, with an error that wraps the exit's
// sentinel (ErrClosed for a close, ErrPeerDead for a failure) unless
// the exit's own contract drains the work first; the class quota is
// handed back; no process stays parked; the conn leaves the table.
// Straddling work is issued so its initiation (Do's Exec, Ring's
// doorbell, 367 µs of copying) spans the exit, found by a dry run.
func TestTeardownEndsEveryWaiter(t *testing.T) {
	after := func(cl *cluster.Cluster, at sim.Time, fn func()) { cl.Env.At(at, fn) }
	pause := func(cl *cluster.Cluster, _, _ *core.Conn, at sim.Time) {
		after(cl, at, func() { cl.PauseNode(1) })
	}
	detect := func(c *cluster.Config) {
		c.Core.DeadInterval = sim.Millisecond
		c.Core.HeartbeatInterval = 200 * sim.Microsecond
	}
	exits := []teardownExit{
		{name: "local close", sentinel: core.ErrClosed,
			trigger: func(cl *cluster.Cluster, c01, _ *core.Conn, at sim.Time) {
				after(cl, at, func() { cl.Env.Go("close", c01.Close) })
			},
			drains: map[string]bool{"write in flight": true, "read pending": true}},
		{name: "peer close", sentinel: core.ErrClosed,
			trigger: func(cl *cluster.Cluster, _, c10 *core.Conn, at sim.Time) {
				after(cl, at, func() { cl.Env.Go("close", c10.Close) })
			},
			drains: map[string]bool{"read pending": true}},
		{name: "dead interval", sentinel: core.ErrPeerDead, tweak: detect, trigger: pause},
		{name: "reset", sentinel: core.ErrPeerDead,
			trigger: func(cl *cluster.Cluster, _, c10 *core.Conn, at sim.Time) { after(cl, at, c10.Abandon) }},
		{name: "abandon", sentinel: core.ErrPeerDead,
			trigger: func(cl *cluster.Cluster, c01, _ *core.Conn, at sim.Time) { after(cl, at, c01.Abandon) }},
		{name: "reconnect give-up", sentinel: core.ErrPeerDead, trigger: pause,
			tweak: func(c *cluster.Config) {
				detect(c)
				c.Core.Reconnect = true
				c.Core.MaxReconnects = 1
			}},
		{name: "dial give-up", sentinel: core.ErrPeerDead,
			tweak: func(c *cluster.Config) { c.Core.MaxRetries = 3 }},
		// Close on a conn that is reconnecting, with its peer gone: the
		// Close waits for the reconnect to resolve, and its give-up ends
		// everything.
		{name: "close while reconnecting", sentinel: core.ErrPeerDead,
			tweak: func(c *cluster.Config) {
				detect(c)
				c.Core.Reconnect = true
				c.Core.MaxReconnects = 4
			},
			trigger: func(cl *cluster.Cluster, c01, _ *core.Conn, at sim.Time) {
				var poll func()
				poll = func() {
					if c01.Reconnecting() {
						cl.Env.Go("close", c01.Close)
						return
					}
					cl.Env.AfterDaemon(sim.Microsecond, poll)
				}
				after(cl, at, func() { cl.PauseNode(1); poll() })
			}},
		// Every ConnAck is lost: the acceptor hears nothing from the
		// dialing conn, declares it dead and resets it, and Dial returns.
		{name: "reset while dialing", sentinel: core.ErrPeerDead, byReset: true,
			tweak: func(c *cluster.Config) {
				detect(c)
				c.Core.MaxRetries = 3
			},
			dial: func(cl *cluster.Cluster) {
				cl.Nodes[1].NICs[0].OutPort().SetDropFilter(func(f *phys.Frame) bool {
					typ, _ := decodeType(f)
					return typ == frame.TypeConnAck
				})
			}},
	}
	wait := func(p *sim.Proc, c *core.Conn, op core.Op) []error {
		h, err := c.Do(p, op)
		if err != nil {
			return []error{err}
		}
		h.Wait(p)
		return []error{h.Err()}
	}
	const big = 1 << 20
	works := []teardownWork{
		{name: "write in flight", run: func(p *sim.Proc, c *core.Conn, src, dst uint64) ([]error, bool) {
			return wait(p, c, core.Op{Remote: dst, Local: src, Size: 256 << 10, Kind: frame.OpWrite}), false
		}},
		{name: "write straddles", straddle: true, run: func(p *sim.Proc, c *core.Conn, src, dst uint64) ([]error, bool) {
			before := c.Closed()
			h, err := c.Do(p, core.Op{Remote: dst, Local: src, Size: big, Kind: frame.OpWrite})
			if err != nil {
				return []error{err}, false
			}
			straddled := !before && c.Closed()
			h.Wait(p)
			return []error{h.Err()}, straddled
		}},
		{name: "ring straddles", straddle: true, run: func(p *sim.Proc, c *core.Conn, src, dst uint64) ([]error, bool) {
			// Two small writes coalesce into one MultiData op; the big one
			// is issued alone and makes the doorbell long.
			ops := []core.Op{
				{Remote: dst, Local: src, Size: 64, Kind: frame.OpWrite},
				{Remote: dst + 64, Local: src + 64, Size: 64, Kind: frame.OpWrite},
				{Remote: dst + 128, Local: src + 128, Size: big, Kind: frame.OpWrite},
			}
			for _, op := range ops {
				if err := c.Post(op); err != nil {
					return []error{err}, false
				}
			}
			before := c.Closed()
			if _, err := c.Ring(p); err != nil {
				return []error{err}, false
			}
			straddled := !before && c.Closed()
			var errs []error
			for range ops {
				errs = append(errs, c.WaitCQ(p).Err)
			}
			return errs, straddled
		}},
		{name: "read pending", run: func(p *sim.Proc, c *core.Conn, src, dst uint64) ([]error, bool) {
			return wait(p, c, core.Op{Remote: dst, Local: src, Size: 256 << 10, Kind: frame.OpRead}), false
		}},
		{name: "unrung posts", run: func(p *sim.Proc, c *core.Conn, src, dst uint64) ([]error, bool) {
			var errs []error
			for i := uint64(0); i < 2; i++ {
				if err := c.Post(core.Op{Remote: dst + 64*i, Local: src, Size: 64, Kind: frame.OpWrite}); err != nil {
					return []error{err}, false
				}
			}
			for range 2 {
				errs = append(errs, c.WaitCQ(p).Err)
			}
			return errs, false
		}},
		{name: "notify waiter", run: func(p *sim.Proc, c *core.Conn, _, _ uint64) ([]error, bool) {
			if n := c.WaitNotify(p); n.Len >= 0 {
				return []error{fmt.Errorf("a notification nobody sent: %+v", n)}, false
			}
			if c.Failed() {
				return []error{c.Err()}, false
			}
			return []error{core.ErrClosed}, false
		}},
	}
	for _, e := range exits {
		exitAt := teardownRun(e, nil, 0).exitAt
		for i := range works {
			w := &works[i]
			t.Run(e.name+"/"+w.name, func(t *testing.T) {
				o := teardownRun(e, w, exitAt-200*sim.Microsecond)
				if !o.returned {
					t.Fatalf("the waiter never returned (%d processes parked)", o.procs)
				}
				if e.byReset && o.resets == 0 {
					t.Fatal("staging: no Reset reached the dialer")
				}
				if w.straddle && e.trigger != nil && !o.straddled {
					t.Fatalf("staging: the initiation did not span the exit at %v", exitAt)
				}
				for _, err := range o.answers {
					if e.drains[w.name] {
						if err != nil {
							t.Errorf("drained work answered %v", err)
						}
					} else if !errors.Is(err, e.sentinel) {
						t.Errorf("answer %v, want one wrapping %v", err, e.sentinel)
					}
				}
				if o.quotaOps != 0 || o.quotaB != 0 {
					t.Errorf("class quota still holds %d ops / %d B", o.quotaOps, o.quotaB)
				}
				if o.procs != 0 || o.conns != 0 {
					t.Errorf("%d processes parked, %d conns tabled", o.procs, o.conns)
				}
			})
		}
	}
}

// TestTeardownReleasesReadReplyAtPeerClose: a client closes right after
// its read completes, so the server gets ConnClose while the last reply
// frames still wait for their delayed acknowledgement. The teardown must
// hand the reply's snapshot back to the server's freelist.
func TestTeardownReleasesReadReplyAtPeerClose(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	ep1 := cl.Nodes[1].EP
	const n = 64 << 10 // a reply of many frames
	src, dst := ep1.Alloc(n), cl.Nodes[0].EP.Alloc(n)
	closed := false
	cl.Env.Go("client", func(p *sim.Proc) {
		h := c01.MustDo(p, core.Op{Remote: src, Local: dst, Size: n, Kind: frame.OpRead})
		h.Wait(p)
		if h.Err() != nil {
			t.Errorf("read: %v", h.Err())
		}
		c01.Close(p)
		closed = true
	})
	cl.Env.RunUntil(sim.Second)
	if !closed || ep1.ActiveConns() != 0 {
		t.Fatalf("close did not complete: closed=%v server conns=%d", closed, ep1.ActiveConns())
	}
	if got := ep1.IdleSnapshotsForTest(); got != 1 {
		t.Errorf("server holds %d idle snapshots after the peer closed, want the reply's 1", got)
	}
}
