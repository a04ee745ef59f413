package core_test

import (
	"bytes"
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
// user-held Handle (which embeds its txOp). Everything else — frames,
// events, timers, receive records, scheduler queues, completion
// staging — must recycle.
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
	t.Logf("%s: %.2f allocs/op (budget %.0f)", name, got, limit)
	if race.Enabled {
		t.Logf("race detector enabled; skipping allocation count assertion")
		return
	}
	if got > limit {
		t.Errorf("%s: %.2f allocs/op, budget %.0f", name, got, limit)
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

// TestAllocsSQBatch gates the doorbell path — Post a batch, Ring, drain
// the completion queue — at one allocation per operation (each posted
// descriptor still surfaces one Handle internally). Submission-queue
// double-buffering, ring-time snapshots, completion staging, and the
// CQ mailbox must all recycle.
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
	gateAllocs(t, "SQ batch post+ring+drain", allocs/batch, 1)
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

// TestAllocsEagerRead documents the read budget: two allocations per
// operation — the requester's Handle plus the responder's synthesized
// txOp in serveRead, which has no user handle to embed into. The reply
// payload itself snapshots into a pooled buffer.
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
	gateAllocs(t, "eager read+wait", allocs, 2)
}

// TestAllocsProductionProfile holds the eager budgets — one allocation
// per write, two per read — under the profile large endpoints actually
// run (productionProfile: class scheduler, receive burst, congestion
// control with rail probes, reconnect journal, adaptive RTO), where
// every timer arm and every scheduler visit is on the measured path.
func TestAllocsProductionProfile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   frame.OpType
		budget float64
	}{{"write", frame.OpWrite, 1}, {"read", frame.OpRead, 2}} {
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

// TestConnFootprint ratchets what one end of a connection costs to
// establish, in live heap bytes and in allocations, on the paper
// profile and on productionProfile at the default Window of 128: 256
// dials, both ends counted, the heap read after a collection on either
// side of the dial storm (the repo benchmark's bytes_per_conn, from
// inside the tree). Per-connection state is what scaling a server's
// connection count costs, so the limits move only by editing them here
// on purpose — down when Conn sheds state, never up.
func TestConnFootprint(t *testing.T) {
	const (
		maxBytes  = 4_000
		maxAllocs = 24
		conns     = 256
	)
	for _, pr := range []struct {
		name  string
		apply func(*cluster.Config)
	}{{"paper", func(*cluster.Config) {}}, {"production", productionProfile}} {
		cfg := cluster.TwoLinkUnordered1G(2)
		pr.apply(&cfg)
		cl := cluster.New(cfg)
		ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
		heap := func() (m runtime.MemStats) {
			runtime.GC()
			runtime.ReadMemStats(&m)
			return m
		}
		before := heap()
		cl.Env.Go("accept", func(p *sim.Proc) {
			for i := 0; i < conns; i++ {
				ep1.Accept(p)
			}
		})
		cl.Env.Go("dial", func(p *sim.Proc) {
			for i := 0; i < conns; i++ {
				ep0.Dial(p, 1, 0)
			}
			cl.Env.Stop()
		})
		cl.Env.Run()
		after := heap()
		if got := ep0.ActiveConns() + ep1.ActiveConns(); got != 2*conns {
			t.Fatalf("%s: %d connection ends established, want %d", pr.name, got, 2*conns)
		}
		bytes := float64(after.HeapAlloc-before.HeapAlloc) / (2 * conns)
		allocs := float64(after.Mallocs-before.Mallocs) / (2 * conns)
		t.Logf("%s: %.0f B and %.1f allocations per Conn (limits %d, %d)", pr.name, bytes, allocs, maxBytes, maxAllocs)
		if race.Enabled {
			t.Logf("race detector enabled; skipping the footprint assertions")
			continue
		}
		if bytes > maxBytes || allocs > maxAllocs {
			t.Errorf("%s: a Conn costs %.0f B and %.1f allocations, limits %d B and %d: keep each piece of connection state once",
				pr.name, bytes, allocs, maxBytes, maxAllocs)
		}
		runtime.KeepAlive(cl)
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
		snap := h.SnapshotForTest()
		if len(snap) != size || snap[0] != 5 {
			t.Fatalf("live snapshot: %d bytes, first %#x", len(snap), snap[0])
		}
		h.Wait(p)
		for i, b := range snap {
			if b != 0xDB {
				t.Fatalf("retired snapshot byte %d reads %#x, want the 0xDB poison", i, b)
			}
		}
		if next := c01.MustDo(p, write); &next.SnapshotForTest()[0] != &snap[0] {
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
	gateAllocs(t, "256 KiB write+wait, read+wait", allocs, 3)
	t.Logf("%.0f B allocated per write+read pair", perPair)
	if !race.Enabled && perPair > size/16 {
		t.Errorf("%.0f B allocated per 256 KiB write+read pair: a snapshot came from the allocator", perPair)
	}
}
