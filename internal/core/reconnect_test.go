package core_test

import (
	"bytes"
	"errors"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// reconnectConfig is the shared recovery-test configuration: recovery
// on, tight detection so outages resolve in simulated milliseconds.
func reconnectConfig() cluster.Config {
	cfg := cluster.OneLink1G(0)
	cfg.Core.Reconnect = true
	cfg.Core.DeadInterval = 50 * sim.Millisecond
	return cfg
}

func TestReconnectResumesWrite(t *testing.T) {
	// The tentpole promise: a node crash-restarts mid-stream and the
	// in-flight write — instead of failing with ErrPeerDead — is
	// replayed over a fresh incarnation and completes byte-identically,
	// with no duplicate apply corrupting the destination.
	cfg := reconnectConfig()
	cl, c01, c10 := pairCluster(t, cfg)
	const n = 4 << 20 // still streaming when the node drops
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 5)
	cl.Env.After(2*sim.Millisecond, func() { cl.RestartNode(1, 200*sim.Millisecond) })
	var wrErr error
	var doneAt sim.Time
	cl.Env.Go("writer", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}))
		h.Wait(p)
		wrErr, doneAt = h.Err(), cl.Env.Now()
	})
	cl.Env.RunUntil(10 * sim.Second)
	if wrErr != nil {
		t.Fatalf("write across restart returned %v, want transparent recovery", wrErr)
	}
	if doneAt == 0 {
		t.Fatal("write never completed")
	}
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Fatal("data corrupted across the reconnect")
	}
	st0, st1 := cl.Nodes[0].EP.Stats, cl.Nodes[1].EP.Stats
	if st0.Reconnects == 0 || st1.Reconnects == 0 {
		t.Errorf("Reconnects = %d/%d, want both sides reborn", st0.Reconnects, st1.Reconnects)
	}
	if st0.ReplayedOps == 0 {
		t.Error("no ops journaled and replayed")
	}
	if c01.Err() != nil || c10.Err() != nil {
		t.Errorf("err=%v/%v: recovery must not reach the terminal state", c01.Err(), c10.Err())
	}
	if c01.Reconnects() == 0 {
		t.Errorf("conn Reconnects() = %d, want > 0", c01.Reconnects())
	}
}

func TestReconnectExhaustsBudget(t *testing.T) {
	// A peer that never comes back: the supervisor burns MaxReconnects
	// redials, then the connection fails for real with ErrPeerDead —
	// exactly the no-recovery contract, just later.
	cfg := reconnectConfig()
	cfg.Core.MaxReconnects = 3
	cl, c01, _ := pairCluster(t, cfg)
	const n = 4 << 20 // still streaming when the node drops
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	cl.Env.After(2*sim.Millisecond, func() { cl.PauseNode(1) })
	var wrErr error
	var acked int
	cl.Env.Go("writer", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}))
		h.Wait(p)
		wrErr = h.Err()
		acked, _ = h.Progress()
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !errors.Is(wrErr, core.ErrPeerDead) {
		t.Fatalf("write to dark peer returned %v, want ErrPeerDead after the budget", wrErr)
	}
	st := cl.Nodes[0].EP.Stats
	if st.ReconnectsFailed != 1 {
		t.Errorf("ReconnectsFailed = %d, want 1", st.ReconnectsFailed)
	}
	if c01.Err() == nil {
		t.Error("conn must reach the terminal Failed state once the budget is spent")
	}
	// The failed handle reports how far the transfer provably got; the
	// replay journal reset the mark, so anything in [0, n] is legal, but
	// it must not exceed the operation size.
	if acked < 0 || acked > n {
		t.Errorf("Progress done = %d, want within [0, %d]", acked, n)
	}
}

// TestRedialAfterIncarnationWrap: the 16-bit epoch wraps without a
// redial ever proposing 1, the epoch only a Dial proposes, so an
// acceptor whose conn has ended still tells the redial of a dialer at
// 0xFFFF from a fresh dial: it drops every ConnReq, and the dialer
// gives up with ErrPeerDead instead of replaying onto a conn nobody
// owns.
func TestRedialAfterIncarnationWrap(t *testing.T) {
	cfg := reconnectConfig()
	cfg.Core.MaxReconnects = 3
	cl, c01, c10 := pairCluster(t, cfg)
	c01.SetIncarnationForTest(0xFFFF)
	c10.SetIncarnationForTest(0xFFFF)
	// The acceptor loses the peer while its node is cut off: its Reset
	// never arrives, the idle dialer notices nothing, and the acceptor's
	// bounded wait for a redial ends its conn.
	cl.PauseNode(1)
	c10.PeerLostForTest()
	cl.Env.RunUntil(2 * sim.Second)
	if got := c10.State(); got != core.Ended {
		t.Fatalf("acceptor conn is %v, want closed once its reconnect wait ran out", got)
	}
	cl.ResumeNode(1)
	ep1 := cl.Nodes[1].EP
	before := ep1.Stats.StaleEpochDrops
	c01.PeerLostForTest()
	cl.Env.RunUntil(4 * sim.Second)
	if !errors.Is(c01.Err(), core.ErrPeerDead) {
		t.Fatalf("dialer is %s (err %v), want failed with ErrPeerDead after its redials", c01.State(), c01.Err())
	}
	if got := ep1.Stats.StaleEpochDrops - before; got != 3 {
		t.Errorf("acceptor dropped %d ConnReqs as stale, want all 3 redials", got)
	}
	if n := ep1.ActiveConns(); n != 0 {
		t.Errorf("acceptor holds %d conns, want none: a redial was taken for a fresh dial", n)
	}
}

// TestStaleDropsRecorded: every stale-epoch drop Stats counts is also a
// recorded EvStaleDrop: a frame the epoch fence stops, a redial from an
// epoch the conn already superseded, and a redial for a conn this side
// does not hold. The last has no conn, so it is recorded under NoConn.
func TestStaleDropsRecorded(t *testing.T) {
	cl, c01, c10 := pairCluster(t, reconnectConfig())
	recs := make([]*obs.Recorder, len(cl.Nodes))
	for i, n := range cl.Nodes {
		recs[i] = obs.NewRecorder(i, 0, obs.FlightKinds)
		n.EP.SetRecorder(recs[i])
	}
	c01.SetIncarnationForTest(5)
	c10.SetIncarnationForTest(5)
	inject := func(h frame.Header) {
		dst, src := frame.NewAddr(1, 0), frame.NewAddr(0, 0)
		buf := frame.MustEncode(dst, src, &h, nil)
		cl.Env.After(0, func() {
			cl.Nodes[1].NICs[0].DeliverFrame(&phys.Frame{Buf: buf, Dst: dst, Src: src})
		})
		cl.Env.RunUntil(cl.Env.Now() + sim.Millisecond)
	}
	inject(frame.Header{Type: frame.TypeHeartbeat, ConnID: c10.LocalIDForTest(), Incarnation: 4})
	inject(frame.Header{Type: frame.TypeConnReq, ConnID: c01.LocalIDForTest(), OpID: 1, Incarnation: 4})
	inject(frame.Header{Type: frame.TypeConnReq, ConnID: 99, OpID: 1, Incarnation: 4})

	for i, n := range cl.Nodes {
		if got, want := recs[i].Count(obs.EvStaleDrop), n.EP.Stats.StaleEpochDrops; got != want {
			t.Errorf("node %d: %d stale-drop events, its Stats counter %d", i, got, want)
		}
	}
	if got := cl.Nodes[1].EP.Stats.StaleEpochDrops; got != 3 {
		t.Fatalf("node 1 dropped %d frames as stale, want all 3", got)
	}
	var noConn int
	for _, ev := range recs[1].Events() {
		if ev.Kind == obs.EvStaleDrop && ev.Conn == obs.NoConn {
			noConn++
		}
	}
	if noConn != 1 {
		t.Errorf("%d stale drops recorded under NoConn, want the one redial without a conn", noConn)
	}
	if c10.State() == core.Dialing || c10.Incarnation() != 5 {
		t.Errorf("acceptor is %s at incarnation %d: a stale frame touched it", c10.State(), c10.Incarnation())
	}
}

func TestReconnectExactlyOnceNotify(t *testing.T) {
	// Acks lost, data delivered: the write lands and notifies, then the
	// sender — starved of acknowledgements — parks and replays it after
	// recovery. The receiver's completed-op record must swallow the
	// replayed payload: one notification, no second apply.
	cfg := reconnectConfig()
	cl, c01, c10 := pairCluster(t, cfg)
	const n = 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 7)
	// Kill only the reverse direction (node1 -> node0) before issuing the
	// write: data and the Reset travel forward, acknowledgements die.
	killReverse := func() {
		cl.RailPorts(1, 0)[0].Fail()
		for _, p := range cl.RailPorts(0, 0)[1:] {
			p.Fail()
		}
	}
	restoreReverse := func() {
		cl.RailPorts(1, 0)[0].Restore()
		for _, p := range cl.RailPorts(0, 0)[1:] {
			p.Restore()
		}
	}
	cl.Env.After(sim.Millisecond, killReverse)
	cl.Env.After(200*sim.Millisecond, restoreReverse)
	var wrErr error
	var notifies int
	cl.Env.Go("writer", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond) // after the reverse path is dead
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n,
			Kind: frame.OpWrite, Flags: frame.Notify}))
		h.Wait(p)
		wrErr = h.Err()
	})
	cl.Env.Go("notify", func(p *sim.Proc) {
		for {
			if nf := c10.WaitNotify(p); nf.Len < 0 {
				return // poison: conn died (would fail the test below)
			}
			notifies++
		}
	})
	cl.Env.RunUntil(10 * sim.Second)
	if wrErr != nil {
		t.Fatalf("write returned %v, want recovery across the ack outage", wrErr)
	}
	if notifies != 1 {
		t.Fatalf("receiver saw %d notifications, want exactly 1 despite the replay", notifies)
	}
	if got := cl.Nodes[1].EP.Stats.Notifies; got != 1 {
		t.Errorf("Stats.Notifies = %d, want 1", got)
	}
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Fatal("data corrupted")
	}
	if cl.Nodes[0].EP.Stats.Reconnects == 0 {
		t.Error("sender never reconnected")
	}
	// The replayed payload had to be dropped by the completed-op record.
	if cl.Nodes[1].EP.Stats.DupFramesDropped == 0 {
		t.Error("replayed payload was not deduplicated at the receiver")
	}
}

// TestReconnectReplayedSolicitAcksPromptly: a Solicit write is performed
// and its record collected, but every ACK for it is lost, so the sender
// replays it after a reconnect with an op id below the receiver's
// completion frontier. The receiver must drop the payload and still send
// the prompt ACK Solicit asks for — the replayed op completes one round
// trip after the sender's rebirth, not one AckDelay — and must keep no
// record below its frontier.
func TestReconnectReplayedSolicitAcksPromptly(t *testing.T) {
	cfg := reconnectConfig()
	cfg.Obs.Recorder = true
	cl, c01, c10 := pairCluster(t, cfg)
	const n = 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 3)
	// The reverse direction (node1 -> node0) dies before the write and
	// comes back after the sender has parked: the data lands, its ACKs
	// do not.
	reverse := append([]*phys.OutPort{cl.RailPorts(1, 0)[0]}, cl.RailPorts(0, 0)[1:]...)
	cl.Env.After(sim.Millisecond, func() {
		for _, p := range reverse {
			p.Fail()
		}
	})
	cl.Env.After(200*sim.Millisecond, func() {
		for _, p := range reverse {
			p.Restore()
		}
	})
	var doneAt sim.Time
	cl.Env.Go("writer", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite, Flags: frame.Solicit}))
		if h.Wait(p); h.Err() != nil {
			t.Errorf("write returned %v, want recovery across the ack outage", h.Err())
		}
		doneAt = cl.Env.Now()
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Fatal("data corrupted")
	}
	if cl.Nodes[1].EP.Stats.DupFramesDropped == 0 {
		t.Fatal("the write was not replayed onto a performed op: the test is vacuous")
	}
	var rebirth sim.Time
	for _, ev := range cl.Recorders[0].Events() {
		if ev.Kind == obs.EvRebirth {
			rebirth = ev.At
		}
	}
	if rebirth == 0 || doneAt < rebirth {
		t.Fatalf("sender reborn at %v, write done at %v: no replay", rebirth, doneAt)
	}
	t.Logf("replayed op completed %v after the sender's rebirth", doneAt-rebirth)
	if d := doneAt - rebirth; d >= cfg.Core.AckDelay/2 {
		t.Errorf("replayed Solicit op completed %v after the rebirth, want one round trip (AckDelay %v)", d, cfg.Core.AckDelay)
	}
	if k := c10.RxOpsBelowFrontierForTest(); k != 0 {
		t.Errorf("%d receive-op records left below the frontier", k)
	}
}

func TestReconnectResumesRead(t *testing.T) {
	// A read whose request was already acknowledged when the peer died:
	// its retired txOp waits in pendingReads, the journal sends its
	// request anew, and the reply lands after recovery. Under
	// SetPoolDebug a send record recycled while pendingReads still
	// holds it reads as poison, and the read would never finish.
	defer frame.SetPoolDebug(frame.SetPoolDebug(true))
	cfg := reconnectConfig()
	cl, c01, _ := pairCluster(t, cfg)
	const n = 1 << 20
	dst := cl.Nodes[1].EP.Alloc(n)
	buf := cl.Nodes[0].EP.Alloc(n)
	fill(cl.Nodes[1].EP.Mem()[dst:dst+n], 11)
	cl.Env.After(2*sim.Millisecond, func() { cl.RestartNode(1, 150*sim.Millisecond) })
	var rdErr error
	done := false
	cl.Env.Go("reader", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: dst, Local: buf, Size: n, Kind: frame.OpRead}))
		h.Wait(p)
		rdErr, done = h.Err(), true
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !done {
		t.Fatal("read across restart never finished")
	}
	if rdErr != nil {
		t.Fatalf("read across restart returned %v, want transparent recovery", rdErr)
	}
	if !bytes.Equal(cl.Nodes[0].EP.Mem()[buf:buf+n], cl.Nodes[1].EP.Mem()[dst:dst+n]) {
		t.Fatal("read data corrupted across the reconnect")
	}
	if cl.Nodes[0].EP.Stats.Reconnects == 0 {
		t.Error("reader never reconnected")
	}
}

func TestReconnectDeadlineStillFires(t *testing.T) {
	// Recovery must not weaken the deadline contract: an op whose
	// Op.Deadline passes during the outage releases its waiter with
	// ErrDeadlineExceeded even though the conn later recovers.
	cfg := reconnectConfig()
	cl, c01, c10 := pairCluster(t, cfg)
	const n = 4 << 20 // still streaming when the node drops
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 3)
	cl.Env.After(2*sim.Millisecond, func() { cl.RestartNode(1, 200*sim.Millisecond) })
	var dlErr error
	var releasedAt sim.Time
	cl.Env.Go("writer", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n,
			Kind: frame.OpWrite, Deadline: 20 * sim.Millisecond}))
		h.Wait(p)
		dlErr, releasedAt = h.Err(), cl.Env.Now()
	})
	cl.Env.RunUntil(5 * sim.Second)
	if !errors.Is(dlErr, core.ErrDeadlineExceeded) {
		t.Fatalf("deadline op returned %v at %v, want ErrDeadlineExceeded", dlErr, releasedAt)
	}
	if dl := 20 * sim.Millisecond; releasedAt < dl || releasedAt > dl+50*sim.Microsecond {
		t.Errorf("waiter released at %v, want at the deadline", releasedAt)
	}
	// The detached transfer still replays and lands after recovery.
	cl.Env.RunUntil(10 * sim.Second)
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Fatal("detached transfer did not land after recovery")
	}
	if c01.Err() != nil || c10.Err() != nil {
		t.Error("deadline expiry must not kill a recovering connection")
	}
}

// TestReconnectDeadlineReadPoisoned: a read whose Op.Deadline passes
// while its peer is away releases its waiter at the deadline; its send
// record lives on until its request is acknowledged in the next epoch,
// and its reply is dropped. The reads and writes that follow reuse
// every record, each read with a deadline it meets: under SetPoolDebug
// a record recycled while its deadline timer, pendingReads or the
// window still holds it reads as poison, and a timer left armed on a
// reused record fails a later op.
func TestReconnectDeadlineReadPoisoned(t *testing.T) {
	defer frame.SetPoolDebug(frame.SetPoolDebug(true))
	cfg := reconnectConfig()
	cl, c01, _ := pairCluster(t, cfg)
	const n = 64 << 10
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	remote, late, back := ep1.Alloc(n), ep0.Alloc(n), ep0.Alloc(n)
	fill(ep1.Mem()[remote:remote+n], 13)
	cl.Env.After(2*sim.Millisecond, func() { cl.RestartNode(1, 150*sim.Millisecond) })
	var dlErr error
	var releasedAt sim.Time
	cl.Env.Go("reader", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		h := must(c01.Do(p, core.Op{Remote: remote, Local: late, Size: n, Kind: frame.OpRead,
			Deadline: 20 * sim.Millisecond}))
		h.Wait(p)
		dlErr, releasedAt = h.Err(), cl.Env.Now()
		for ep0.Stats.Reconnects == 0 {
			p.Sleep(sim.Millisecond)
		}
		for i := 0; i < 32; i++ {
			if err := c01.Run(p, core.Op{Remote: remote, Local: back, Size: n, Kind: frame.OpRead,
				Deadline: cl.Env.Now() + 5*sim.Millisecond}); err != nil {
				t.Errorf("read %d after the outage: %v", i, err)
				return
			}
			if !bytes.Equal(ep0.Mem()[back:back+n], ep1.Mem()[remote:remote+n]) {
				t.Errorf("read %d after the outage carried the wrong bytes", i)
				return
			}
			if err := c01.Run(p, core.Op{Remote: remote, Local: back, Size: n, Kind: frame.OpWrite}); err != nil {
				t.Errorf("write %d after the outage: %v", i, err)
				return
			}
		}
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !errors.Is(dlErr, core.ErrDeadlineExceeded) {
		t.Fatalf("deadline read returned %v at %v, want ErrDeadlineExceeded", dlErr, releasedAt)
	}
	if dl := 20 * sim.Millisecond; releasedAt < dl || releasedAt > dl+50*sim.Microsecond {
		t.Errorf("waiter released at %v, want at the deadline", releasedAt)
	}
	if ep0.Stats.Reconnects == 0 {
		t.Error("reader never reconnected")
	}
}

func TestReconnectOpsIssuedWhileParked(t *testing.T) {
	// Operations issued while the connection is parked in Reconnecting
	// queue transparently and transmit after rebirth — initiation does
	// not error, and nothing is lost.
	cfg := reconnectConfig()
	// Heartbeats let the idle dialer detect the outage before it has any
	// traffic of its own to starve.
	cfg.Core.HeartbeatInterval = 10 * sim.Millisecond
	cl, c01, _ := pairCluster(t, cfg)
	const n = 64 << 10
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 13)
	cl.Env.After(sim.Millisecond, func() { cl.RestartNode(1, 200*sim.Millisecond) })
	var wrErr error
	cl.Env.Go("writer", func(p *sim.Proc) {
		// Wait until the outage has certainly been detected (DeadInterval
		// plus slack), then issue while parked.
		p.Sleep(100 * sim.Millisecond)
		if c01.State() != core.Reconnecting {
			t.Error("conn not parked in Reconnecting when the op was issued")
		}
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}))
		h.Wait(p)
		wrErr = h.Err()
	})
	cl.Env.RunUntil(10 * sim.Second)
	if wrErr != nil {
		t.Fatalf("op issued while parked returned %v, want queued replay", wrErr)
	}
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Fatal("parked-issue data corrupted")
	}
}

func TestReconnectOffUnchanged(t *testing.T) {
	// The gate: with Reconnect off (the default), peer death is terminal
	// exactly as before, and no frame ever carries a non-zero
	// incarnation (the wire stays byte-identical to the pinned runs).
	cfg := cluster.OneLink1G(0)
	cfg.Core.DeadInterval = 50 * sim.Millisecond
	cl, c01, _ := pairCluster(t, cfg)
	const n = 4 << 20 // still streaming when the node drops
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	cl.Env.After(2*sim.Millisecond, func() { cl.RestartNode(1, 100*sim.Millisecond) })
	var wrErr error
	cl.Env.Go("writer", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}))
		h.Wait(p)
		wrErr = h.Err()
	})
	cl.Env.RunUntil(5 * sim.Second)
	if !errors.Is(wrErr, core.ErrPeerDead) {
		t.Fatalf("with recovery off the write returned %v, want ErrPeerDead", wrErr)
	}
	st := cl.Nodes[0].EP.Stats
	if st.Reconnects != 0 || st.ReplayedOps != 0 || st.StaleEpochDrops != 0 {
		t.Errorf("recovery counters moved with the feature off: %d/%d/%d",
			st.Reconnects, st.ReplayedOps, st.StaleEpochDrops)
	}
}
