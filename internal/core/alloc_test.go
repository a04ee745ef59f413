package core_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/race"
	"multiedge/internal/sim"
)

// This file gates the zero-allocation hot-path contract (DESIGN.md §13):
// after warmup, a steady-state operation allocates at most the one
// user-held Handle that Do returns, and nothing through Run. Everything
// else — send records, frames, events, timers, receive records, read
// replies, Run handles, coalesced containers, held payloads,
// notification deliveries, scheduler queues, completion staging — must
// recycle.
//
// The measurements run testing.AllocsPerRun from inside a simulated
// process. While that process is parked in Wait/WaitCQ, the scheduler
// cooperatively runs every other simulated actor (protocol threads,
// NICs, the remote endpoint), so the counted window spans the WHOLE
// pipeline: submit, wire, receive dispatch, acknowledgement, and
// completion delivery — not just the caller's side.

// gateAllocs asserts a steady-state allocation budget. Under the race
// detector the instrumentation itself allocates, so the loops still run
// (exercising the recycling paths for the detector) but the count
// assertion is skipped.
func gateAllocs(t *testing.T, name string, got, limit float64) {
	t.Helper()
	t.Logf("%s: %.3f allocs/op (budget %.2f)", name, got, limit)
	if race.Enabled {
		t.Logf("race detector enabled; skipping allocation count assertion")
		return
	}
	if got > limit {
		t.Errorf("%s: %.3f allocs/op, budget %.2f", name, got, limit)
	}
}

// allocPair builds a loss-free two-node cluster with src/dst windows
// ready for steady-state op loops.
func allocPair(t *testing.T, cfg cluster.Config) (cl *cluster.Cluster, c01 *core.Conn, src, dst uint64) {
	t.Helper()
	cl, c01, _ = pairCluster(t, cfg)
	const window = 64 * 1024
	src = cl.Nodes[0].EP.Alloc(window)
	dst = cl.Nodes[1].EP.Alloc(window)
	fill(cl.Nodes[0].EP.Mem()[src:src+window], 5)
	return cl, c01, src, dst
}

// runMeasured spawns body as a process, runs the cluster, and fails the
// test if the measurement never finished.
func runMeasured(t *testing.T, cl *cluster.Cluster, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	cl.Env.Go("measure", func(p *sim.Proc) {
		body(p)
		done = true
	})
	cl.Env.RunUntil(60 * sim.Second)
	if !done {
		t.Fatal("measured workload did not complete")
	}
}

// TestAllocsEagerWrite gates the eager Do+Wait write loop at one
// allocation per operation: the Handle. The wait/wake round trip, the
// payload snapshot, every frame on the wire, and the receiver's whole
// dispatch path must be allocation-free.
func TestAllocsEagerWrite(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 3
	cl, c01, src, dst := allocPair(t, cfg)
	op := core.Op{Remote: dst, Local: src, Size: 512, Kind: frame.OpWrite}
	var allocs float64
	runMeasured(t, cl, func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			c01.MustDo(p, op).Wait(p)
		}
		allocs = testing.AllocsPerRun(100, func() {
			c01.MustDo(p, op).Wait(p)
		})
	})
	gateAllocs(t, "eager write+wait", allocs, 1)
}

// TestAllocsRun gates Conn.Run at nothing per operation: its handle is
// pooled like every send record, so an eager write and a read through
// Run allocate nothing once warm.
func TestAllocsRun(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 3
	cl, c01, src, dst := allocPair(t, cfg)
	write := core.Op{Remote: dst, Local: src, Size: 512, Kind: frame.OpWrite}
	read := core.Op{Remote: dst + 4096, Local: src + 4096, Size: 512, Kind: frame.OpRead}
	var allocs float64
	runMeasured(t, cl, func(p *sim.Proc) {
		step := func() {
			if err := c01.Run(p, write); err != nil {
				t.Error(err)
			}
			if err := c01.Run(p, read); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 128; i++ {
			step()
		}
		allocs = testing.AllocsPerRun(100, step)
	})
	gateAllocs(t, "Run write, Run read", allocs/2, 0)
}

// TestAllocsDeadlineRun gates Conn.Run with an Op.Deadline at nothing
// per operation, as TestAllocsRun without one: the deadline timer takes
// a package-level callback with the pooled send record as its argument,
// and the record keeps its timer from one life to the next.
func TestAllocsDeadlineRun(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 3
	cl, c01, src, dst := allocPair(t, cfg)
	write := core.Op{Remote: dst, Local: src, Size: 512, Kind: frame.OpWrite}
	read := core.Op{Remote: dst + 4096, Local: src + 4096, Size: 512, Kind: frame.OpRead}
	var allocs float64
	runMeasured(t, cl, func(p *sim.Proc) {
		step := func() {
			for _, op := range []core.Op{write, read} {
				op.Deadline = cl.Env.Now() + sim.Millisecond
				if err := c01.Run(p, op); err != nil {
					t.Error(err)
				}
			}
		}
		for i := 0; i < 128; i++ {
			step()
		}
		allocs = testing.AllocsPerRun(100, step)
	})
	if st := cl.Nodes[0].EP.Stats; st.OpDeadlinesExpired != 0 {
		t.Fatalf("%d deadlines expired: the loop measures ops that beat theirs", st.OpDeadlinesExpired)
	}
	gateAllocs(t, "Run write, Run read, each with a deadline", allocs/2, 0)
}

// TestAllocsDoBytes gates what an eager operation through Do costs the
// heap: its Handle, at most 32 B, and nothing more, for writes and
// reads alike, read from runtime.MemStats over windows of many
// operations.
func TestAllocsDoBytes(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 3
	cl, c01, src, dst := allocPair(t, cfg)
	write := core.Op{Remote: dst, Local: src, Size: 512, Kind: frame.OpWrite}
	read := core.Op{Remote: dst + 4096, Local: src + 4096, Size: 512, Kind: frame.OpRead}
	const ops = 2000
	// TotalAlloc is process-wide: a runtime allocation on another
	// goroutine (a 16 B timer-heap slot) lands in whichever window it
	// falls in, while a per-op cost shows in every window. The smallest
	// of five windows is the ops' own cost.
	perOp := math.Inf(1)
	runMeasured(t, cl, func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			c01.MustDo(p, write).Wait(p)
			c01.MustDo(p, read).Wait(p)
		}
		var before, after runtime.MemStats
		for range 5 {
			runtime.ReadMemStats(&before)
			for i := 0; i < ops/2; i++ {
				c01.MustDo(p, write).Wait(p)
				c01.MustDo(p, read).Wait(p)
			}
			runtime.ReadMemStats(&after)
			perOp = min(perOp, float64(after.TotalAlloc-before.TotalAlloc)/ops)
		}
	})
	t.Logf("%.1f B allocated per eager write or read (budget 32)", perOp)
	if !race.Enabled && perOp > 32 {
		t.Errorf("%.1f B allocated per eager op, budget 32: the Handle grew, or a send record came from the allocator", perOp)
	}
}

// TestAllocsRedial gates a reconnect redial at its handshake frame:
// the encoded buffer and the frame record, which sendControl (shared
// with the dial and close retries) takes from the allocator on purpose,
// not from the endpoint's pool of 1 514 B buffers. The redial
// timer is re-armed with a static callback, so once the conn's Timer
// exists an attempt allocates no Timer and no closure.
func TestAllocsRedial(t *testing.T) {
	cfg := reconnectConfig()
	cfg.Core.MaxReconnects = 1 << 20
	cl, c01, _ := pairCluster(t, cfg)
	cl.PauseNode(1) // every redial is lost: the dialer keeps redialing
	c01.PeerLostForTest()
	maxBackoff := core.BackoffCapForTest * core.ConnRetryForTest
	cl.Env.RunUntil(cl.Env.Now() + 8*maxBackoff) // backoff reaches its cap
	before := c01.RedialsForTest()
	allocs := testing.AllocsPerRun(20, func() {
		cl.Env.RunUntil(cl.Env.Now() + maxBackoff) // one redial
	})
	if n := c01.RedialsForTest() - before; n != 21 || c01.StateForTest() != "reconnecting" {
		t.Fatalf("%d redials in 21 windows, conn %s; want one each, still reconnecting", n, c01.StateForTest())
	}
	gateAllocs(t, "redial", allocs, 2)
}

// TestAllocsSQBatch gates the doorbell path — Post a batch, Ring, drain
// the completion queue — at nothing per operation: a posted op has no
// Handle, its completion comes from its pooled send record.
// Submission-queue double-buffering, ring-time snapshots, completion
// staging, and the CQ mailbox must all recycle.
func TestAllocsSQBatch(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 3
	cl, c01, src, dst := allocPair(t, cfg)
	const batch = 8
	step := func(p *sim.Proc) {
		for i := 0; i < batch; i++ {
			c01.MustPost(core.Op{
				Remote: dst + uint64(i*256), Local: src + uint64(i*256),
				Size: 192, Kind: frame.OpWrite,
			})
		}
		c01.MustRing(p)
		for i := 0; i < batch; i++ {
			if comp := c01.WaitCQ(p); comp.Err != nil {
				t.Errorf("completion error: %v", comp.Err)
			}
		}
	}
	var allocs float64
	runMeasured(t, cl, func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			step(p)
		}
		allocs = testing.AllocsPerRun(50, func() { step(p) })
	})
	gateAllocs(t, "SQ batch post+ring+drain", allocs/batch, 0.05)
}

// TestAllocsReceiveDispatchBurst gates the receive-dispatch loop over
// two rails at one allocation per operation: the in-flight receive
// record, the pooled frames of both NICs, and the dispatch fan-out must
// allocate nothing once warm.
func TestAllocsReceiveDispatchBurst(t *testing.T) {
	cfg := cluster.TwoLink1G(2)
	cfg.Seed = 3
	cl, c01, src, dst := allocPair(t, cfg)
	op := core.Op{Remote: dst, Local: src, Size: 512, Kind: frame.OpWrite}
	var allocs float64
	runMeasured(t, cl, func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			c01.MustDo(p, op).Wait(p)
		}
		allocs = testing.AllocsPerRun(100, func() {
			c01.MustDo(p, op).Wait(p)
		})
	})
	gateAllocs(t, "write+wait over two rails", allocs, 1)
}

// TestAllocsEagerRead gates the read loop at one allocation per
// operation, the requester's Handle: the responder's reply txOp
// (serveRead) comes from its endpoint's freelist, and the reply payload
// snapshots into a recycled buffer.
func TestAllocsEagerRead(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 3
	cl, c01, src, dst := allocPair(t, cfg)
	op := core.Op{Remote: dst, Local: src, Size: 512, Kind: frame.OpRead}
	var allocs float64
	runMeasured(t, cl, func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			c01.MustDo(p, op).Wait(p)
		}
		allocs = testing.AllocsPerRun(100, func() {
			c01.MustDo(p, op).Wait(p)
		})
	})
	gateAllocs(t, "eager read+wait", allocs, 1)
}

// TestAllocsProductionProfile holds the eager budget — one allocation
// per write or read — under the profile large endpoints actually
// run (productionProfile: class scheduler, receive burst, congestion
// control with rail probes, reconnect journal, adaptive RTO), where
// every timer arm and every scheduler visit is on the measured path.
func TestAllocsProductionProfile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   frame.OpType
		budget float64
	}{{"write", frame.OpWrite, 1}, {"read", frame.OpRead, 1}} {
		cfg := cluster.TwoLinkUnordered1G(2)
		cfg.Seed = 3
		productionProfile(&cfg)
		cl, c01, src, dst := allocPair(t, cfg)
		op := core.Op{Remote: dst, Local: src, Size: 512, Kind: tc.kind}
		allocs := -1.0
		// Run, not runMeasured's RunUntil: the rail probes are daemon
		// ticks and would keep firing through an explicit horizon.
		cl.Env.Go("measure", func(p *sim.Proc) {
			for i := 0; i < 128; i++ {
				c01.MustDo(p, op).Wait(p)
			}
			allocs = testing.AllocsPerRun(100, func() {
				c01.MustDo(p, op).Wait(p)
			})
		})
		cl.Env.Run()
		if allocs < 0 {
			t.Fatal("measured workload did not complete")
		}
		gateAllocs(t, "production-profile eager "+tc.name+"+wait", allocs, tc.budget)
	}
}

// TestAllocsCoalescedNotify gates two small-op paths. A doorbell batch
// packed into MultiData containers (Config.CoalesceLimit) allocates
// nothing per sub-op: the container and its sub-op records come back
// from the freelist, and so do the snapshots. A Notify ping-pong costs
// one allocation per eager write, its Handle, with the notification's
// delivery to the waiting process included.
func TestAllocsCoalescedNotify(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 3
	cfg.Core.CoalesceLimit = 64
	cl, c01, c10 := pairCluster(t, cfg)
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const batch = 16
	src, dst := ep0.Alloc(batch*64), ep1.Alloc(batch*64)
	ping, pong := ep1.Alloc(64), ep0.Alloc(64)
	fill(ep0.Mem()[src:src+batch*64], 5)
	pings, pongs := ep1.NotifyRegion(ping, 64), ep0.NotifyRegion(pong, 64)
	step := func(p *sim.Proc) {
		for i := 0; i < batch; i++ {
			c01.MustPost(core.Op{Remote: dst + uint64(64*i), Local: src + uint64(64*i), Size: 64, Kind: frame.OpWrite})
		}
		c01.MustRing(p)
		for i := 0; i < batch; i++ {
			if comp := c01.WaitCQ(p); comp.Err != nil {
				t.Errorf("completion error: %v", comp.Err)
			}
		}
	}
	// The peer answers every ping with a pong, until the pinger stops it.
	cl.Env.Go("ponger", func(p *sim.Proc) {
		for pings.Recv(p).Len > 0 {
			c10.MustDo(p, core.Op{Remote: pong, Local: ping, Size: 64, Kind: frame.OpWrite, Flags: frame.Notify}).Wait(p)
		}
	})
	round := func(p *sim.Proc) {
		c01.MustDo(p, core.Op{Remote: ping, Local: src, Size: 64, Kind: frame.OpWrite, Flags: frame.Notify}).Wait(p)
		pongs.Recv(p)
	}
	var coalesced, notify float64
	subOps := ep0.Stats.CoalescedSubOps
	runMeasured(t, cl, func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			step(p)
			round(p)
		}
		coalesced = testing.AllocsPerRun(50, func() { step(p) })
		notify = testing.AllocsPerRun(100, func() { round(p) })
		c01.MustDo(p, core.Op{Remote: ping, Local: src, Size: 0, Kind: frame.OpWrite, Flags: frame.Notify}).Wait(p)
	})
	if got, want := ep0.Stats.CoalescedSubOps-subOps, uint64((32+51)*batch); got != want {
		t.Fatalf("%d sub-ops coalesced, want all %d", got, want)
	}
	if !bytes.Equal(ep1.Mem()[dst:dst+batch*64], ep0.Mem()[src:src+batch*64]) {
		t.Error("a coalesced write landed the wrong bytes")
	}
	gateAllocs(t, "coalesced SQ batch, per sub-op", coalesced/batch, 0)
	gateAllocs(t, "notify ping-pong, per eager write", notify/2, 1)
}

// TestAllocsLossyReadWrite holds the one-Handle budget off the fast
// path: two rails losing 1 % of frames, pipelined 4 KiB reads and
// Solicit|FenceBefore writes that overtake their predecessors. Held
// frames (their payload buffers), NACK repair and RTO repair all run
// inside the measured loop.
func TestAllocsLossyReadWrite(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Seed = 3
	cfg.Link.LossProb = 0.01
	cl, c01, _ := pairCluster(t, cfg)
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const size = 4 << 10
	rdst := ep0.Alloc(size)
	big := core.Op{Remote: 0, Local: 0, Size: size, Kind: frame.OpWrite}
	big.Remote, big.Local = ep1.Alloc(size), ep0.Alloc(size)
	fill(ep0.Mem()[big.Local:big.Local+size], 9)
	fenced := core.Op{Remote: ep1.Alloc(64), Local: big.Local, Size: 64, Kind: frame.OpWrite, Flags: frame.Solicit | frame.FenceBefore}
	read := core.Op{Remote: big.Remote, Local: rdst, Size: size, Kind: frame.OpRead}
	step := func(p *sim.Proc) {
		hs := [3]*core.Handle{c01.MustDo(p, big), c01.MustDo(p, fenced), c01.MustDo(p, read)}
		for _, h := range hs {
			if h.Wait(p); h.Err() != nil {
				t.Errorf("op %d: %v", h.OpID(), h.Err())
			}
		}
	}
	var allocs float64
	var before [2]core.Stats
	runMeasured(t, cl, func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			step(p)
		}
		before = [2]core.Stats{ep0.Stats, ep1.Stats}
		allocs = testing.AllocsPerRun(300, func() { step(p) })
	})
	// Either end sends and receives: writes one way, read replies back.
	var held, nacks, rtos uint64
	for i, ep := range []*core.Endpoint{ep0, ep1} {
		held += ep.Stats.HeldFrames - before[i].HeldFrames
		nacks += ep.Stats.CtrlNacksSent - before[i].CtrlNacksSent
		rtos += ep.Stats.RtoExpiries - before[i].RtoExpiries
	}
	t.Logf("measured: %d held frames, %d NACKs, %d RTO expiries", held, nacks, rtos)
	if held == 0 || nacks == 0 || rtos == 0 {
		t.Error("held frames, NACK repair and RTO repair must all run while measured")
	}
	if !bytes.Equal(ep0.Mem()[rdst:rdst+size], ep0.Mem()[big.Local:big.Local+size]) {
		t.Error("the read returned the wrong bytes")
	}
	gateAllocs(t, "lossy pipelined read and fenced writes, per op", allocs/3, 1.02)
}

// TestConnFootprint ratchets what one end of a connection costs, in live
// heap bytes and in allocations, on the paper profile and on
// productionProfile at the default Window of 128, over one rail and two:
// 256 dials, both ends counted, the heap read after a collection on
// either side of the dial storm (the repo benchmark's bytes_per_conn,
// from inside the tree). A second phase then carries one 64 B write, one
// 4 KiB read and one SQ batch of eight 64 B writes over every pair at
// once and reads the heap again, so that state a conn builds at first
// use is counted too and nothing is merely deferred. Per-connection state
// is what scaling a server's connection count costs, so the limits — the
// measured value plus 15 % — move only by editing them here on purpose:
// down when Conn sheds state, never up.
func TestConnFootprint(t *testing.T) {
	const conns = 256
	type limit struct{ bytes, allocs float64 }
	for _, tc := range []struct {
		name                string
		cfg                 func(int) cluster.Config
		apply               func(*cluster.Config)
		established, loaded limit
	}{
		// Measured: 672 / 4 216, 670 / 3 187, 734 / 4 047 and 959 /
		// 6 513 B; 5.2 / 53.2, 5.2 / 50.5, 5.2 / 53.2 and 7.5 / 66.7
		// allocations. With a 672 B Conn (704 B size class), timer
		// closures and a closure-driven handshake: 876 / 4 480, 874 /
		// 3 451, 938 / 4 234 and 1 179 / 6 824 B; 7.7 / 58.7, 7.7 / 56.0,
		// 7.7 / 58.6 and 11.0 / 73.3 allocations. With a 64 B sim.Signal
		// in every Conn and Proc: 939 / 4 567, 938 / 3 514, 1 002 / 4 344
		// and 1 243 / 6 858 B. Before the state was built by use: 2 364 /
		// 15 461, 2 372 / 14 556, 2 426 / 14 055 and 2 668 / 15 869 B.
		{"one-rail paper", cluster.OneLink1G, func(*cluster.Config) {}, limit{775, 6.0}, limit{4850, 61.2}},
		{"one-rail production", cluster.OneLink1G, productionProfile, limit{775, 6.0}, limit{3670, 58.1}},
		{"two-rail paper", cluster.TwoLinkUnordered1G, func(*cluster.Config) {}, limit{845, 6.0}, limit{4655, 61.2}},
		{"two-rail production", cluster.TwoLinkUnordered1G, productionProfile, limit{1105, 8.6}, limit{7490, 76.7}},
	} {
		cfg := tc.cfg(2)
		tc.apply(&cfg)
		cl := cluster.New(cfg)
		ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
		src, dst := ep0.Alloc(4096), ep1.Alloc(4096)
		heap := func() (m runtime.MemStats) {
			runtime.GC()
			runtime.GC() // a second cycle empties the runtime's sync.Pool victim caches (fmt's)
			runtime.ReadMemStats(&m)
			return m
		}
		perConn := func(phase string, from, to runtime.MemStats, lim limit) {
			t.Helper()
			bytes := float64(to.HeapAlloc-from.HeapAlloc) / (2 * conns)
			allocs := float64(to.Mallocs-from.Mallocs) / (2 * conns)
			t.Logf("%s, %s: %.0f B and %.1f allocations per Conn (limits %.0f, %.1f)",
				tc.name, phase, bytes, allocs, lim.bytes, lim.allocs)
			if !race.Enabled && (bytes > lim.bytes || allocs > lim.allocs) {
				t.Errorf("%s, %s: a Conn costs %.0f B and %.1f allocations, limits %.0f B and %.1f: keep each piece of connection state once, and build it when it is first needed",
					tc.name, phase, bytes, allocs, lim.bytes, lim.allocs)
			}
		}
		before := heap()
		pairs := make([]*core.Conn, 0, conns)
		cl.Env.Go("accept", func(p *sim.Proc) {
			for i := 0; i < conns; i++ {
				ep1.Accept(p)
			}
		})
		cl.Env.Go("dial", func(p *sim.Proc) {
			for i := 0; i < conns; i++ {
				pairs = append(pairs, ep0.Dial(p, 1, 0))
			}
			cl.Env.Stop()
		})
		cl.Env.Run()
		established := heap()
		if got := ep0.ActiveConns() + ep1.ActiveConns(); got != 2*conns {
			t.Fatalf("%s: %d connection ends established, want %d", tc.name, got, 2*conns)
		}
		perConn("established", before, established, tc.established)

		left := conns
		for i, c := range pairs {
			cl.Env.Go(fmt.Sprintf("pair%d", i), func(p *sim.Proc) {
				c.MustDo(p, core.Op{Remote: dst, Local: src, Size: 64, Kind: frame.OpWrite}).Wait(p)
				c.MustDo(p, core.Op{Remote: dst, Local: src, Size: 4096, Kind: frame.OpRead}).Wait(p)
				for k := 0; k < 8; k++ {
					c.MustPost(core.Op{Remote: dst + uint64(64*k), Local: src, Size: 64, Kind: frame.OpWrite})
				}
				c.MustRing(p)
				for k := 0; k < 8; k++ {
					if comp := c.WaitCQ(p); comp.Err != nil {
						t.Errorf("%s: pair %d: %v", tc.name, i, comp.Err)
					}
				}
				if left--; left == 0 {
					cl.Env.Stop()
				}
			})
		}
		cl.Env.Run()
		if left != 0 {
			t.Fatalf("%s: %d pairs did not finish their traffic", tc.name, left)
		}
		perConn("after traffic", before, heap(), tc.loaded)
		runtime.KeepAlive(cl)
		runtime.KeepAlive(pairs)
		cl.Close()
	}
}

// TestConnStateBuiltByUse pins what a conn builds at first use: 10 000
// in-order frames over one rail leave both ends without a receive-window
// ring, without the SQ/CQ, recovery and notification groups and the
// NACK record, and without a handshake record (the dialer's went when
// the dial completed); the first posted descriptor builds the SQ/CQ
// group and nothing else.
func TestConnStateBuiltByUse(t *testing.T) {
	for _, pr := range []struct {
		name  string
		apply func(*cluster.Config)
	}{{"paper", func(*cluster.Config) {}}, {"production", productionProfile}} {
		cfg := cluster.OneLink1G(2)
		pr.apply(&cfg)
		cl, c01, c10 := pairCluster(t, cfg)
		src, dst := cl.Nodes[0].EP.Alloc(64), cl.Nodes[1].EP.Alloc(64)
		const frames, burst = 10_000, 64
		op := core.Op{Remote: dst, Local: src, Size: 64, Kind: frame.OpWrite}
		cl.Env.Go("sender", func(p *sim.Proc) {
			hs := make([]*core.Handle, 0, burst)
			for sent := 0; sent < frames; sent += burst {
				hs = hs[:0]
				for i := 0; i < burst; i++ {
					hs = append(hs, c01.MustDo(p, op))
				}
				for _, h := range hs {
					h.Wait(p)
				}
			}
			cl.Env.Stop()
		})
		cl.Env.Run()
		st := cl.Nodes[1].EP.Stats
		if st.Arrivals < frames || st.OOOArrivals != 0 {
			t.Fatalf("%s: %d arrivals, %d out of order: want %d in order", pr.name, st.Arrivals, st.OOOArrivals, frames)
		}
		none := core.BuiltStateForTest{}
		for _, end := range []struct {
			name string
			c    *core.Conn
		}{{"sender", c01}, {"receiver", c10}} {
			if got := end.c.BuiltStateForTest(); got != none {
				t.Errorf("%s: %s after %d in-order frames built %+v, want nothing", pr.name, end.name, frames, got)
			}
		}
		cl.Env.Go("post", func(p *sim.Proc) {
			c01.MustPost(op)
			c01.MustRing(p)
			c01.WaitCQ(p)
			cl.Env.Stop()
		})
		cl.Env.Run()
		if got, want := c01.BuiltStateForTest(), (core.BuiltStateForTest{Queues: true}); got != want {
			t.Errorf("%s: after one posted descriptor the sender built %+v, want %+v", pr.name, got, want)
		}
	}
}

// TestLargeWriteSnapshotRecycled pins the endpoint's snapshot freelist:
// a steady loop of 256 KiB writes and reads, whose snapshots do not fit a
// frame buffer, allocates no payload-sized object on either end, and
// under SetPoolDebug a retired operation's former snapshot is poisoned
// and then handed to the next operation.
func TestLargeWriteSnapshotRecycled(t *testing.T) {
	defer frame.SetPoolDebug(frame.SetPoolDebug(true))
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Seed = 3
	cl, c01, _ := pairCluster(t, cfg)
	const size = 256 << 10
	src, dst := cl.Nodes[0].EP.Alloc(size), cl.Nodes[1].EP.Alloc(size)
	fill(cl.Nodes[0].EP.Mem()[src:src+size], 5)
	write := core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite}
	read := core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpRead}
	var allocs, perPair float64
	runMeasured(t, cl, func(p *sim.Proc) {
		h := c01.MustDo(p, write)
		snap := c01.SnapshotForTest()
		if len(snap) != size || snap[0] != 5 {
			t.Fatalf("live snapshot: %d bytes, first %#x", len(snap), snap[0])
		}
		h.Wait(p)
		for i, b := range snap {
			if b != 0xDB {
				t.Fatalf("retired snapshot byte %d reads %#x, want the 0xDB poison", i, b)
			}
		}
		if next := c01.MustDo(p, write); &c01.SnapshotForTest()[0] != &snap[0] {
			t.Error("the next write did not reuse the retired snapshot")
		} else {
			next.Wait(p)
		}
		c01.MustDo(p, read).Wait(p) // the reply snapshot, on the other endpoint
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() {
			c01.MustDo(p, write).Wait(p)
			c01.MustDo(p, read).Wait(p)
		})
		runtime.ReadMemStats(&after)
		perPair = float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	})
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+size], cl.Nodes[0].EP.Mem()[src:src+size]) {
		t.Error("a recycled snapshot carried the wrong bytes: destination differs from source")
	}
	gateAllocs(t, "256 KiB write+wait, read+wait", allocs, 2)
	t.Logf("%.0f B allocated per write+read pair", perPair)
	if !race.Enabled && perPair > size/16 {
		t.Errorf("%.0f B allocated per 256 KiB write+read pair: a snapshot came from the allocator", perPair)
	}
}
