package core_test

import (
	"bytes"
	"errors"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// ccPair builds an established 2-node pair with congestion control on
// (which requires the connection scheduler), the given initial
// congestion window and the flow-control window that caps it.
func ccPair(t *testing.T, initWindow, window int) (*cluster.Cluster, *core.Conn) {
	t.Helper()
	cfg := cluster.OneLink1G(2)
	cfg.Core.SchedQueue = true
	cfg.Core.Window = window
	cfg.Core.CongestionControl = core.CCConfig{Enable: true, InitWindow: initWindow}
	cl, c01, _ := pairCluster(t, cfg)
	return cl, c01
}

// blackhole drops every frame crossing the given ports until the
// returned restore function runs. Deterministic (no RNG draws).
func blackhole(ports []*phys.OutPort) (restore func()) {
	for _, p := range ports {
		p.SetDropFilter(func(*phys.Frame) bool { return true })
	}
	return func() {
		for _, p := range ports {
			p.SetDropFilter(nil)
		}
	}
}

// TestCCWindowGrowsOnCleanAcks: on a loss-free pair the additive
// increase opens the window — one slot per cwnd acked frames — up to
// Window, and nothing ever cuts it.
func TestCCWindowGrowsOnCleanAcks(t *testing.T) {
	cl, c01 := ccPair(t, 2, 8)
	src := cl.Nodes[0].EP.Alloc(128 << 10)
	dst := cl.Nodes[1].EP.Alloc(128 << 10)
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: 128 << 10, Kind: frame.OpWrite})).Wait(p)
		if cwnd, _ := c01.CcStateForTest(); cwnd <= 2 {
			t.Errorf("cwnd = %d after a clean 128KiB transfer; want growth beyond InitWindow 2", cwnd)
		}
		c01.Close(p)
	})
	cl.Env.RunUntil(sim.Second)
	if n := cl.Nodes[0].EP.Stats.CcCwndCuts; n != 0 {
		t.Errorf("CcCwndCuts = %d on a loss-free link; want 0", n)
	}
}

// TestCCLossBurstBoundedByCwnd is the satellite regression: with the
// wire blacked out, every retransmission burst the RTO path puts on the
// wire is bounded by the congestion window in force when the burst
// starts — go-back-N repair cannot flood the network it is recovering
// from. The test counts actual NIC transmissions via the port tx hook,
// groups them into bursts by inter-frame gaps, and checks each burst
// against the cwnd sampled at its first frame.
func TestCCLossBurstBoundedByCwnd(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Core.SchedQueue = true
	cfg.Core.DeadInterval = 5 * sim.Second
	// Go-back-N is the loss-amplifying baseline: every RTO queues the
	// whole outstanding window for repair, so without the budget each
	// burst would be the full flight.
	cfg.Core.GoBackN = true
	cfg.Core.Window = 32
	cfg.Core.CongestionControl = core.CCConfig{Enable: true, InitWindow: 16}
	cl, c01, _ := pairCluster(t, cfg)

	type txEv struct {
		at   sim.Time
		cwnd int
	}
	var txs []txEv
	nic := cl.RailPorts(0, 0)[0]
	nic.SetOnTx(func(*phys.Frame) {
		cwnd, _ := c01.CcStateForTest()
		txs = append(txs, txEv{cl.Env.Now(), cwnd})
	})

	t0 := cl.Env.Now()
	restore := blackhole(cl.RailPorts(0, 0))
	tEnd := t0 + 25*sim.Millisecond
	cl.Env.Rearm(sim.Daemon(nil), tEnd-cl.Env.Now(), restore)

	const size = 32 << 10
	src := cl.Nodes[0].EP.Alloc(size)
	dst := cl.Nodes[1].EP.Alloc(size)
	fill(cl.Nodes[0].EP.Mem()[src:src+size], 5)
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite})).Wait(p)
		if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+size], cl.Nodes[0].EP.Mem()[src:src+size]) {
			t.Error("payload corrupt after blackout recovery")
		}
		c01.Close(p)
	})
	cl.Env.RunUntil(sim.Second)

	// Group the blackout-window transmissions into bursts: the wire
	// drains a burst in ~12us/frame, while bursts are separated by the
	// 2ms+ RTO backoff.
	var bursts [][]txEv
	for _, ev := range txs {
		if ev.at >= tEnd {
			break
		}
		if n := len(bursts); n == 0 || ev.at-bursts[n-1][len(bursts[n-1])-1].at > sim.Millisecond {
			bursts = append(bursts, nil)
		}
		bursts[len(bursts)-1] = append(bursts[len(bursts)-1], ev)
	}
	if len(bursts) < 3 {
		t.Fatalf("only %d tx bursts during a 25ms blackout; want the initial window plus >= 2 RTO retransmission rounds", len(bursts))
	}
	for i, b := range bursts {
		if len(b) > b[0].cwnd {
			t.Errorf("burst %d put %d frames on the wire with cwnd %d", i, len(b), b[0].cwnd)
		}
	}
	// The RTO cut the window, so recovery bursts are strictly narrower
	// than the initial flight, and the budget demonstrably deferred
	// repair the old go-back-N path would have sent.
	if first, retx := len(bursts[0]), len(bursts[1]); retx >= first {
		t.Errorf("retransmission burst %d >= initial flight %d; RTO cut did not narrow recovery", retx, first)
	}
	st := cl.Nodes[0].EP.Stats
	if st.CcCwndCuts == 0 {
		t.Error("no cwnd cut recorded across an RTO storm")
	}
	if st.CcRetxDeferred == 0 {
		t.Error("CcRetxDeferred = 0: the retransmission budget never engaged")
	}
}

// TestCCEcnEchoCutsWindow: a 2→1 fan-in over a marking switch builds a
// standing queue at the shared downlink, the receiver echoes the marks
// on its acks, and the senders react by cutting cwnd — before a single
// frame is dropped.
func TestCCEcnEchoCutsWindow(t *testing.T) {
	cfg := cluster.OneLink1G(3)
	cfg.Core.SchedQueue = true
	cfg.Core.CongestionControl = core.CCConfig{Enable: true}
	cfg.EcnThreshold = 8
	cl := cluster.New(cfg)

	const size = 256 << 10
	done := 0
	for s := 0; s < 2; s++ {
		s := s
		ep := cl.Nodes[s].EP
		dst := cl.Nodes[2].EP.Alloc(size)
		src := ep.Alloc(size)
		cl.Env.Go("sender", func(p *sim.Proc) {
			c := ep.Dial(p, 2, 0)
			must(c.Do(p, core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite})).Wait(p)
			done++
			c.Close(p)
		})
		_ = s
	}
	cl.Env.RunUntil(sim.Second)
	if done != 2 {
		t.Fatalf("%d/2 transfers completed", done)
	}
	rep := cl.Collect()
	if rep.EcnMarks == 0 {
		t.Fatal("fabric marked no frames above an 8-deep threshold under 2:1 fan-in")
	}
	if rep.Proto.EcnEchoesSent == 0 || rep.Proto.EcnEchoesRecv == 0 {
		t.Errorf("echo path silent: sent %d, recv %d", rep.Proto.EcnEchoesSent, rep.Proto.EcnEchoesRecv)
	}
	if rep.Proto.CcCwndCuts == 0 {
		t.Error("no congestion-window cut despite ECN echoes")
	}
	if rep.SwitchDrops != 0 {
		t.Errorf("%d drop-tail losses; ECN should throttle before the queue overflows", rep.SwitchDrops)
	}
}

// TestCCPostFailFast pins the fail-fast admission contract: once the
// window is exhausted and the backlog bound is reached, Post returns
// ErrThrottled immediately — the PR-8 quota semantics — and admission
// reopens when the flight drains.
func TestCCPostFailFast(t *testing.T) {
	cl, c01 := ccPair(t, 2, 2)
	src := cl.Nodes[0].EP.Alloc(8 << 10)
	dst := cl.Nodes[1].EP.Alloc(8 << 10)
	op := core.Op{Remote: dst, Local: src, Size: 1 << 10, Kind: frame.OpWrite}

	restore := blackhole(cl.RailPorts(0, 0)[:1]) // eat data, keep nothing back
	cl.Env.Go("app", func(p *sim.Proc) {
		// One single-frame op per cwnd slot, and a full backlog behind them.
		posted := 2 + core.CCBacklogForTest
		for i := 0; i < posted; i++ {
			if err := c01.Post(op); err != nil {
				t.Errorf("post %d before the window filled: %v", i, err)
			}
		}
		if _, err := c01.Ring(p); err != nil {
			t.Errorf("ring: %v", err)
		}
		p.Sleep(sim.Millisecond) // let the scheduler fill cwnd into the blackhole
		if err := c01.Post(op); !errors.Is(err, core.ErrThrottled) {
			t.Errorf("post against an exhausted window = %v; want ErrThrottled", err)
		}
		restore()
		drainCQ(p, c01, posted)
		// The flight drained: admission reopens.
		if err := c01.Post(op); err != nil {
			t.Errorf("post after drain: %v", err)
		}
		if _, err := c01.Ring(p); err != nil {
			t.Errorf("ring: %v", err)
		}
		drainCQ(p, c01, 1)
		c01.Close(p)
	})
	cl.Env.RunUntil(sim.Second)
	if n := cl.Nodes[0].EP.Stats.CcOpsThrottled; n != 1 {
		t.Errorf("CcOpsThrottled = %d; want 1", n)
	}
}

// TestCCDoBlocksAndHonorsDeadline pins the blocking admission contract:
// Do against an exhausted window waits for the flight to drain instead
// of failing, and an Op.Deadline bounds that wait with
// ErrDeadlineExceeded.
func TestCCDoBlocksAndHonorsDeadline(t *testing.T) {
	cl, c01 := ccPair(t, 2, 2)
	src := cl.Nodes[0].EP.Alloc(16 << 10)
	dst := cl.Nodes[1].EP.Alloc(16 << 10)
	op := core.Op{Remote: dst, Local: src, Size: 1 << 10, Kind: frame.OpWrite}

	restore := blackhole(cl.RailPorts(0, 0)[:1])
	cl.Env.Go("pin", func(p *sim.Proc) {
		// Single-frame ops: 2 fill cwnd into the blackhole and a full
		// backlog queues behind them, so the connection is
		// window-exhausted AND backlogged. Posted, because Do would
		// itself block at the backlog bound.
		pinned := 2 + core.CCBacklogForTest
		for i := 0; i < pinned; i++ {
			noErr(c01.Post(op))
		}
		must(c01.Ring(p))
		drainCQ(p, c01, pinned)
	})
	cl.Env.Go("app", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)

		dl := op
		dl.Deadline = cl.Env.Now() + 500*sim.Microsecond
		if _, err := c01.Do(p, dl); !errors.Is(err, core.ErrDeadlineExceeded) {
			t.Errorf("blocked Do with passed deadline = %v; want ErrDeadlineExceeded", err)
		}
		if now := cl.Env.Now(); now < dl.Deadline {
			t.Errorf("deadline failure surfaced at %v, before the %v deadline", now, dl.Deadline)
		}

		// Heal the wire; the deadline-free Do must be admitted once the
		// pinned flight drains, and complete.
		restore()
		h, err := c01.Do(p, op)
		if err != nil {
			t.Errorf("blocking Do after heal: %v", err)
		} else {
			h.Wait(p)
			if h.Err() != nil {
				t.Errorf("drained op failed: %v", h.Err())
			}
		}
		c01.Close(p)
	})
	cl.Env.RunUntil(sim.Second)
	st := cl.Nodes[0].EP.Stats
	if st.CcAdmissionWaits != 2 {
		t.Errorf("CcAdmissionWaits = %d; want 2 (deadline waiter + drained waiter)", st.CcAdmissionWaits)
	}
	if st.OpDeadlinesExpired != 1 {
		t.Errorf("OpDeadlinesExpired = %d; want 1", st.OpDeadlinesExpired)
	}
}

// TestPerRailRTTSplit is the satellite check: a striped connection
// keeps a per-rail RTT estimate alongside the blended one, Conn.Health
// surfaces it, and the skewed rail reads measurably slower. The 2L-1G
// preset skews rail 0's switch by +5us, so after bidirectional traffic
// rail 0's SRTT must exceed rail 1's. Congestion control stays OFF: the
// split is unconditional observability.
// TestRailProbesMeasureSplit: with the controller on, a multi-rail conn
// measures each rail with dedicated probe/echo exchanges — the
// cumulative ack cannot split rails, so the probes are the only signal
// — and the skewed rail 0 must read slower than rail 1.
func TestRailProbesMeasureSplit(t *testing.T) {
	cfg := cluster.TwoLink1G(0)
	cfg.Core.SchedQueue = true
	cfg.Core.CongestionControl = core.CCConfig{Enable: true}
	cl, c01, _ := pairCluster(t, cfg)
	const size = 16 << 10
	src := cl.Nodes[0].EP.Alloc(size)
	dst := cl.Nodes[1].EP.Alloc(size)
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite})).Wait(p)
		// Idle long enough for several probe rounds (default 1ms tick).
		p.Sleep(10 * sim.Millisecond)
		if n := cl.Nodes[0].EP.Stats.CcRailProbes; n == 0 {
			t.Error("no rail probes sent on a multi-rail CC connection")
		}
		h := c01.Health()
		if len(h.Rails) != 2 {
			t.Fatalf("Health().Rails has %d entries; want 2", len(h.Rails))
		}
		if h.Rails[0].SRTTUs <= h.Rails[1].SRTTUs {
			t.Errorf("skewed rail 0 SRTT %.1fus <= rail 1 SRTT %.1fus; probes not splitting rails",
				h.Rails[0].SRTTUs, h.Rails[1].SRTTUs)
		}
		c01.Close(p)
	})
	cl.Env.RunUntil(sim.Second)
}

func TestPerRailRTTSplit(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.TwoLink1G(0))
	const size = 64 << 10
	src := cl.Nodes[0].EP.Alloc(size)
	dst := cl.Nodes[1].EP.Alloc(size)
	cl.Env.Go("app", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite})).Wait(p)
		}
		h := c01.Health()
		if len(h.Rails) != 2 {
			t.Fatalf("Health().Rails has %d entries; want 2", len(h.Rails))
		}
		for li, r := range h.Rails {
			if r.SRTTUs <= 0 || r.RTOUs <= 0 {
				t.Errorf("rail %d never sampled: %+v", li, r)
			}
		}
		if h.Rails[0].SRTTUs <= h.Rails[1].SRTTUs {
			t.Errorf("skewed rail 0 SRTT %.1fus <= rail 1 SRTT %.1fus; split not tracking per-rail latency",
				h.Rails[0].SRTTUs, h.Rails[1].SRTTUs)
		}
		if h.Cwnd != 0 {
			t.Errorf("Cwnd = %d with congestion control off; want 0", h.Cwnd)
		}
		c01.Close(p)
	})
	cl.Env.RunUntil(sim.Second)
}
