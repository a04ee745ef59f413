package core_test

import (
	"bytes"
	"errors"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// killAllRails fails every rail of node in both directions.
func killAllRails(cl *cluster.Cluster, node int) { cl.PauseNode(node) }

func TestAdaptiveRTOConverges(t *testing.T) {
	// With adaptation enabled and an initial RTO (the adaptive floor)
	// far below the paper's coarse 2 ms, the armed timeout must leave the
	// configured value and settle on the measured sub-millisecond RTT
	// (about 560 µs here: each write waits out most of the 500 µs
	// delayed ACK).
	cfg := cluster.OneLink1G(0)
	cfg.Core.RTOMax = 100 * sim.Millisecond
	cfg.Core.RTO = 100 * sim.Microsecond
	cl, c01, _ := pairCluster(t, cfg)
	if got, want := c01.RTO(), cfg.Core.RTO; got != want {
		t.Fatalf("initial RTO = %v, want the configured %v", got, want)
	}
	// Sequential small writes keep the transmit queue shallow, so the
	// measured RTT is the real round trip plus the delayed ACK, not a
	// window-deep serialization backlog.
	src := cl.Nodes[0].EP.Alloc(4096)
	dst := cl.Nodes[1].EP.Alloc(4096)
	cl.Env.Go("app", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: 4096, Kind: frame.OpWrite}).Wait(p)
		}
	})
	cl.Env.RunUntil(10 * sim.Second)
	st := cl.Nodes[0].EP.Stats
	if st.RttSamples < 40 {
		t.Fatalf("only %d RTT samples collected", st.RttSamples)
	}
	if got := c01.RTO(); got >= sim.Millisecond || got <= cfg.Core.RTO {
		t.Errorf("adapted RTO = %v, want in (%v, 1ms): the timeout must follow the measured RTT", got, cfg.Core.RTO)
	}
}

func TestAdaptiveRTOFixedModeUnchanged(t *testing.T) {
	// RTOMax = 0 (the default) keeps the paper's fixed timeout: no
	// adaptation is applied even though samples are still measured.
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	const n = 256 << 10
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	cl.Env.Go("app", func(p *sim.Proc) {
		c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}).Wait(p)
	})
	cl.Env.RunUntil(10 * sim.Second)
	if cl.Nodes[0].EP.Stats.RttSamples == 0 {
		t.Error("estimator should measure even in fixed mode")
	}
	if got := c01.RTO(); got != cluster.OneLink1G(0).Core.RTO {
		t.Errorf("fixed-mode RTO = %v, want %v", got, cluster.OneLink1G(0).Core.RTO)
	}
}

func TestAdaptiveRTOBackoff(t *testing.T) {
	// A dead link under adaptive timing: each consecutive expiry doubles
	// the timeout up to RTOMax, and the backoff depth lands in stats.
	cfg := cluster.OneLink1G(0)
	cfg.Core.RTOMax = 50 * sim.Millisecond
	cfg.Core.DeadInterval = sim.Second
	cfg.Core.DeadLinkThreshold = 0 // isolate RTO backoff from link probing
	cl, c01, _ := pairCluster(t, cfg)
	src := cl.Nodes[0].EP.Alloc(4096)
	dst := cl.Nodes[1].EP.Alloc(4096)
	cl.FailLink(0, 0) // dead before the first frame leaves
	cl.Env.Go("app", func(p *sim.Proc) {
		h := c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: 4096, Kind: frame.OpWrite})
		h.Wait(p)
	})
	cl.Env.RunUntil(2 * sim.Second)
	st := cl.Nodes[0].EP.Stats
	if st.RtoExpiries < 4 {
		t.Fatalf("only %d RTO expiries on a dead link", st.RtoExpiries)
	}
	if st.RtoBackoffMax < 3 {
		t.Errorf("RtoBackoffMax = %d, want >= 3 (exponential backoff)", st.RtoBackoffMax)
	}
	if got := c01.RTO(); got != cfg.Core.RTOMax {
		t.Errorf("backed-off RTO = %v, want clamped at RTOMax %v", got, cfg.Core.RTOMax)
	}
	// Backoff capped the retransmission rate: far fewer than the
	// fixed-RTO DeadInterval/RTO ≈ 500 tries.
	if st.Retransmissions > 60 {
		t.Errorf("%d retransmissions; backoff should pace them", st.Retransmissions)
	}
}

func TestAllRailsDownFailsEveryWaiter(t *testing.T) {
	// The tentpole promise: with every path dead, a blocked Wait, a
	// blocked WaitCQ, a pending remote read and a parked WaitNotify all
	// return ErrPeerDead within DeadInterval (+ detection slack).
	const di = 100 * sim.Millisecond
	cfg := cluster.TwoLinkUnordered1G(0)
	cfg.Core.DeadInterval = di
	cl, c01, c10 := pairCluster(t, cfg)
	const n = 4 << 20 // ~17ms of wire time: still streaming when the rails die
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	rbuf := cl.Nodes[0].EP.Alloc(1 << 20)
	wsrc := cl.Nodes[1].EP.Alloc(n)
	wdst := cl.Nodes[0].EP.Alloc(n)
	const kill = 2 * sim.Millisecond
	cl.Env.After(kill, func() {
		killAllRails(cl, 1)
	})
	var wrErr, rdErr, cqErr error
	var wrAt, rdAt, cqAt, nfAt sim.Time
	var poison bool
	cl.Env.Go("writer", func(p *sim.Proc) {
		h := c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})
		h.Wait(p)
		wrErr, wrAt = h.Err(), cl.Env.Now()
	})
	cl.Env.Go("reader", func(p *sim.Proc) {
		h := c01.MustDo(p, core.Op{Remote: dst, Local: rbuf, Size: 1 << 20, Kind: frame.OpRead})
		h.Wait(p)
		rdErr, rdAt = h.Err(), cl.Env.Now()
	})
	cl.Env.Go("reverse-writer", func(p *sim.Proc) {
		// Keeps node 1's own send machinery busy so ITS DeadInterval
		// detection fires too and poisons the notify waiter below.
		h := c10.MustDo(p, core.Op{Remote: wdst, Local: wsrc, Size: n, Kind: frame.OpWrite})
		h.Wait(p)
	})
	cl.Env.Go("sq", func(p *sim.Proc) {
		if err := c01.Post(core.Op{Remote: dst, Size: 512, Kind: frame.OpWrite}); err != nil {
			t.Errorf("post: %v", err)
			return
		}
		if _, err := c01.Ring(p); err != nil {
			cqErr, cqAt = err, cl.Env.Now()
			return
		}
		comp := c01.WaitCQ(p)
		cqErr, cqAt = comp.Err, cl.Env.Now()
	})
	cl.Env.Go("notify", func(p *sim.Proc) {
		nf := c10.WaitNotify(p)
		if nf.Len < 0 {
			poison = true
		}
		nfAt = cl.Env.Now()
	})
	cl.Env.RunUntil(5 * sim.Second)
	lim := kill + di + 50*sim.Millisecond
	for _, c := range []struct {
		name string
		err  error
		at   sim.Time
	}{{"Wait", wrErr, wrAt}, {"read Wait", rdErr, rdAt}, {"WaitCQ", cqErr, cqAt}} {
		if !errors.Is(c.err, core.ErrPeerDead) {
			t.Errorf("%s returned %v at %v, want ErrPeerDead", c.name, c.err, c.at)
		}
		if c.at == 0 || c.at > lim {
			t.Errorf("%s released at %v, want within %v", c.name, c.at, lim)
		}
	}
	// Node 1's reverse write starves of acks too, so its side reaches
	// Failed on its own DeadInterval and the parked WaitNotify is
	// released with the poison notification.
	if !poison {
		t.Error("WaitNotify was not poisoned by the receiver-side failure")
	}
	if nfAt == 0 || nfAt > lim {
		t.Errorf("WaitNotify released at %v, want within %v", nfAt, lim)
	}
	if !c01.Failed() || !errors.Is(c01.Err(), core.ErrPeerDead) {
		t.Errorf("conn not marked failed: failed=%v err=%v", c01.Failed(), c01.Err())
	}
	if cl.Nodes[0].EP.Stats.PeerDeadEvents == 0 {
		t.Error("no PeerDeadEvents counted")
	}
}

func TestResetPropagatesDeath(t *testing.T) {
	// Kill only the reverse path (node1 -> node0): node 0 starves of
	// acks, declares the peer dead, and its Reset — travelling the
	// still-healthy forward path — must fail node 1's end too, without
	// node 1 needing heartbeats or its own traffic.
	const di = 100 * sim.Millisecond
	cfg := cluster.OneLink1G(0)
	cfg.Core.DeadInterval = di
	cl, c01, c10 := pairCluster(t, cfg)
	const n = 4 << 20 // still streaming when the reverse path dies
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	cl.Env.After(2*sim.Millisecond, func() {
		// Reverse direction only: node 1's uplink and the switch ports
		// toward node 0.
		cl.RailPorts(1, 0)[0].Fail()
		for _, p := range cl.RailPorts(0, 0)[1:] {
			p.Fail()
		}
	})
	cl.Env.Go("writer", func(p *sim.Proc) {
		c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}).Wait(p)
	})
	cl.Env.RunUntil(5 * sim.Second)
	if !c01.Failed() {
		t.Fatal("sender side never failed")
	}
	if !c10.Failed() || !errors.Is(c10.Err(), core.ErrPeerDead) {
		t.Fatalf("receiver side not failed by Reset: failed=%v err=%v", c10.Failed(), c10.Err())
	}
	if got := cl.Nodes[1].EP.Stats.ResetsRecv; got == 0 {
		t.Error("no Reset received at node 1")
	}
	if got := cl.Nodes[0].EP.Stats.ResetsSent; got == 0 {
		t.Error("no Reset sent by node 0")
	}
}

func TestRestoreAfterResetNeedsFreshConn(t *testing.T) {
	// After a declared death the old connection is terminal: restoring
	// the links does not revive it, frames of the dead epoch are
	// rejected, and a fresh Dial/Accept pair moves data again.
	const di = 50 * sim.Millisecond
	cfg := cluster.OneLink1G(0)
	cfg.Core.DeadInterval = di
	cl, c01, c10 := pairCluster(t, cfg)
	const n = 2 << 20
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 9)
	cl.Env.After(2*sim.Millisecond, func() { killAllRails(cl, 1) })
	cl.Env.After(500*sim.Millisecond, func() { cl.ResumeNode(1) })
	var oldErr error
	cl.Env.Go("writer", func(p *sim.Proc) {
		h := c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})
		h.Wait(p)
		oldErr = h.Err()
	})
	cl.Env.RunUntil(2 * sim.Second)
	if !errors.Is(oldErr, core.ErrPeerDead) {
		t.Fatalf("old conn op returned %v, want ErrPeerDead", oldErr)
	}
	// The dead connection stays dead after the links heal.
	cl.Env.Go("retry", func(p *sim.Proc) {
		if _, err := c01.Do(p, core.Op{Remote: dst, Size: 512, Kind: frame.OpWrite}); !errors.Is(err, core.ErrPeerDead) {
			t.Errorf("op on dead conn: %v, want ErrPeerDead", err)
		}
	})
	// A fresh pair works over the restored links.
	var n01, n10 *core.Conn
	cl.Env.Go("redial", func(p *sim.Proc) { n01 = cl.Nodes[0].EP.Dial(p, 1, 0) })
	cl.Env.Go("reaccept", func(p *sim.Proc) { n10 = cl.Nodes[1].EP.Accept(p) })
	cl.Env.RunUntil(3 * sim.Second)
	if n01 == nil || n10 == nil || n01.Failed() {
		t.Fatal("fresh handshake did not complete over restored links")
	}
	var done bool
	cl.Env.Go("writer2", func(p *sim.Proc) {
		h := n01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})
		h.Wait(p)
		done = h.Err() == nil
	})
	cl.Env.RunUntil(5 * sim.Second)
	if !done {
		t.Fatal("transfer on the fresh connection did not complete")
	}
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Fatal("data corrupted on fresh connection")
	}
	if c10.Failed() {
		// Fine either way: node 1's old end may have died via the Reset
		// if it slipped out before the rails dropped.
		return
	}
}

func TestOpDeadlineReleasesWaiterOnly(t *testing.T) {
	// A deadline releases the issuer; the transfer itself is not
	// cancelled and completes once the link heals.
	cfg := cluster.OneLink1G(0)
	cfg.Core.DeadInterval = sim.Second
	cl, c01, _ := pairCluster(t, cfg)
	const n = 256 << 10
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 3)
	cl.Env.After(100*sim.Microsecond, func() { cl.FailLink(0, 0) })
	cl.Env.After(100*sim.Millisecond, func() { cl.RestoreLink(0, 0) })
	var dlErr error
	var releasedAt sim.Time
	cl.Env.Go("writer", func(p *sim.Proc) {
		h := c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n,
			Kind: frame.OpWrite, Deadline: 20 * sim.Millisecond})
		h.Wait(p)
		dlErr, releasedAt = h.Err(), cl.Env.Now()
	})
	cl.Env.RunUntil(2 * sim.Second)
	if !errors.Is(dlErr, core.ErrDeadlineExceeded) {
		t.Fatalf("deadline op returned %v, want ErrDeadlineExceeded", dlErr)
	}
	// The handle fires exactly at the deadline; the waiter resumes one
	// modeled scheduler wakeup later.
	if dl := 20 * sim.Millisecond; releasedAt < dl || releasedAt > dl+50*sim.Microsecond {
		t.Errorf("waiter released at %v, want the 20ms deadline plus wakeup latency", releasedAt)
	}
	st := cl.Nodes[0].EP.Stats
	if st.OpDeadlinesExpired != 1 {
		t.Errorf("OpDeadlinesExpired = %d, want 1", st.OpDeadlinesExpired)
	}
	// The un-cancelled transfer still landed after the link healed.
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Fatal("transfer was cancelled with the waiter")
	}
	if c01.Failed() {
		t.Error("deadline expiry must not kill the connection")
	}
}

func TestBoundedDial(t *testing.T) {
	// Dialing a dark node with a retry budget returns a failed conn
	// instead of retrying forever.
	cfg := cluster.OneLink1G(0)
	cfg.Nodes = 2
	cfg.Core.MaxRetries = 3
	cl := cluster.New(cfg)
	cl.PauseNode(1)
	var c *core.Conn
	cl.Env.Go("dial", func(p *sim.Proc) { c = cl.Nodes[0].EP.Dial(p, 1, 0) })
	end := cl.Env.RunUntil(10 * sim.Second)
	if c == nil {
		t.Fatal("Dial never returned")
	}
	if !c.Failed() || !errors.Is(c.Err(), core.ErrPeerDead) {
		t.Fatalf("dial to dark node: failed=%v err=%v, want ErrPeerDead", c.Failed(), c.Err())
	}
	// 1 try + 3 retries at connRetry spacing, plus slack.
	if lim := 5 * core.ConnRetryForTest; end > lim {
		t.Errorf("dial gave up at %v, want within %v", end, lim)
	}
}

func TestBoundedClose(t *testing.T) {
	// Closing a connection whose peer died mid-stream must return: the
	// drain loop exits on failure and the close handshake gives up
	// after MaxRetries.
	cfg := cluster.OneLink1G(0)
	cfg.Core.DeadInterval = 50 * sim.Millisecond
	cfg.Core.MaxRetries = 4
	cl, c01, _ := pairCluster(t, cfg)
	const n = 64 << 10
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	cl.Env.After(2*sim.Millisecond, func() { killAllRails(cl, 1) })
	var closedAt sim.Time
	cl.Env.Go("writer", func(p *sim.Proc) {
		h := c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})
		h.Wait(p) // returns with ErrPeerDead
		c01.Close(p)
		closedAt = cl.Env.Now()
	})
	cl.Env.RunUntil(10 * sim.Second)
	if closedAt == 0 {
		t.Fatal("Close never returned against a dead peer")
	}
	if closedAt > sim.Second {
		t.Errorf("Close returned at %v; should be prompt once the conn failed", closedAt)
	}
}

func TestHeartbeatIdleDetection(t *testing.T) {
	// An idle pair with heartbeats: healthy it stays up indefinitely;
	// once the peer goes dark BOTH sides detect within DeadInterval of
	// the silence starting, with no application traffic at all.
	const (
		hb   = 10 * sim.Millisecond
		di   = 100 * sim.Millisecond
		kill = sim.Second
	)
	cfg := cluster.OneLink1G(0)
	cfg.Core.HeartbeatInterval = hb
	cfg.Core.DeadInterval = di
	cl, c01, c10 := pairCluster(t, cfg)
	cl.Env.After(kill, func() { killAllRails(cl, 1) })
	// Probe conn health every 10ms; record when each side notices.
	var at01, at10 sim.Time
	var tick func()
	tick = func() {
		if at01 == 0 && c01.Failed() {
			at01 = cl.Env.Now()
		}
		if at10 == 0 && c10.Failed() {
			at10 = cl.Env.Now()
		}
		if at01 == 0 || at10 == 0 {
			cl.Env.Rearm(sim.Daemon(nil), 10*sim.Millisecond, tick)
		}
	}
	cl.Env.Rearm(sim.Daemon(nil), 10*sim.Millisecond, tick)
	cl.Env.RunUntil(3 * sim.Second)
	if at01 == 0 || at10 == 0 {
		t.Fatalf("sides failed at %v / %v; both must detect via heartbeat silence", at01, at10)
	}
	// Healthy idle period: nobody died before the kill.
	if at01 < kill || at10 < kill {
		t.Fatalf("spurious death at %v / %v before the kill at %v", at01, at10, kill)
	}
	lim := kill + di + 3*hb
	if at01 > lim || at10 > lim {
		t.Errorf("detection at %v / %v, want within %v", at01, at10, lim)
	}
	st0, st1 := cl.Nodes[0].EP.Stats, cl.Nodes[1].EP.Stats
	if st0.HeartbeatsSent == 0 || st1.HeartbeatsSent == 0 || st0.HeartbeatsRecv == 0 {
		t.Errorf("heartbeats sent %d/%d recv %d: idle liveness not exercised",
			st0.HeartbeatsSent, st1.HeartbeatsSent, st0.HeartbeatsRecv)
	}
}
