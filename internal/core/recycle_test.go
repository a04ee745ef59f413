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

// TestRecycledRecordsPoisoned drives every kind of record the data path
// recycles over one conn — SQ-posted writes and reads, a coalesced run
// of small writes (a container) and eager reads through Run (a pooled
// handle here, read replies on the peer) — under frame.SetPoolDebug.
// Every byte must land, and a recycled handle and op record read as
// poisoned.
// Window 4 keeps the window full, so the last op a batch sends has
// completed before curOp takes it out of txOps: a record recycled
// before then is still queued, and fragmenting its poison faults.
func TestRecycledRecordsPoisoned(t *testing.T) {
	defer frame.SetPoolDebug(frame.SetPoolDebug(true))
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Seed = 3
	cfg.Core.Window, cfg.Core.CoalesceLimit = 4, 64
	cl, c01, _ := pairCluster(t, cfg)
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const slots, size = 8, 512
	src, dst := ep0.Alloc(slots*size), ep1.Alloc(slots*size)
	back := ep0.Alloc(slots * size)
	runMeasured(t, cl, func(p *sim.Proc) {
		for r := 0; r < 64; r++ {
			fill(ep0.Mem()[src:src+slots*size], byte(r))
			for i := 0; i < slots; i++ {
				off := uint64(i * size)
				c01.MustPost(core.Op{Remote: dst + off, Local: src + off, Size: size, Kind: frame.OpWrite})
			}
			for i := 0; i < 4; i++ { // coalesced: 4 x 32 B into one container
				off := uint64(i * 32)
				c01.MustPost(core.Op{Remote: dst + off, Local: src + off, Size: 32, Kind: frame.OpWrite})
			}
			c01.MustPost(core.Op{Remote: dst, Local: back, Size: slots * size, Kind: frame.OpRead})
			c01.MustRing(p)
			for i := 0; i < slots+5; i++ {
				if comp := c01.WaitCQ(p); comp.Err != nil {
					t.Errorf("round %d: %v", r, comp.Err)
				}
			}
			if err := c01.Run(p, core.Op{Remote: dst, Local: back, Size: size, Kind: frame.OpRead}); err != nil {
				t.Errorf("round %d: eager read: %v", r, err)
			}
			if !bytes.Equal(ep0.Mem()[back:back+size], ep0.Mem()[src:src+size]) ||
				!bytes.Equal(ep1.Mem()[dst:dst+slots*size], ep0.Mem()[src:src+slots*size]) {
				t.Errorf("round %d: a recycled record carried the wrong bytes", r)
				return
			}
		}
	})
	for i, n := range cl.Nodes {
		h, op := n.EP.RecycledForTest()
		t.Logf("node %d: recycled handle reads op %#x, op record %#x", i, h, op)
		if i == 0 && h != core.PoisonIDForTest {
			t.Errorf("node 0: a recycled Run handle reads op %#x, want the poison %#x", h, uint64(core.PoisonIDForTest))
		}
		if op != core.PoisonIDForTest {
			t.Errorf("node %d: a recycled op record reads op %#x, want the poison %#x", i, op, uint64(core.PoisonIDForTest))
		}
	}
}

// TestParallelClustersRecycle runs two clusters at once, one goroutine
// each, with a fault injector corrupting and duplicating frames so the
// clone path draws from the pool too. Each simulation owns its pool and
// freelists: under -race a shared one is a data race, and either way a
// buffer handed to two owners corrupts bytes.
func TestParallelClustersRecycle(t *testing.T) {
	start, done := make(chan struct{}), make(chan error)
	for i := 0; i < 2; i++ {
		go func() {
			var err error
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("%v", r)
				}
				done <- err
			}()
			cfg := cluster.TwoLinkUnordered1G(2)
			cfg.Seed = int64(7 + i)
			cfg.Core.Window, cfg.Core.CoalesceLimit = 4, 64
			cl := cluster.New(cfg)
			defer cl.Close()
			n := 0
			cl.Nodes[0].NICs[1].OutPort().SetMangler(func(*phys.Frame) phys.Mangle {
				n++
				return phys.Mangle{Corrupt: n%17 == 0, Dup: n%13 == 0}
			})
			c01, _ := cl.Pair()
			ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
			const size = 8 << 10
			src, dst, back := ep0.Alloc(size), ep1.Alloc(size), ep0.Alloc(size)
			ok := false
			cl.Env.Go("work", func(p *sim.Proc) {
				for r := 0; r < 40; r++ {
					fill(ep0.Mem()[src:src+size], byte(r+i))
					for k := 0; k < 8; k++ {
						off := uint64(k * size / 8)
						c01.MustPost(core.Op{Remote: dst + off, Local: src + off, Size: size / 8, Kind: frame.OpWrite})
					}
					for k := 0; k < 4; k++ {
						c01.MustPost(core.Op{Remote: dst + uint64(k*32), Local: src + uint64(k*32), Size: 32, Kind: frame.OpWrite})
					}
					c01.MustRing(p)
					for k := 0; k < 12; k++ {
						if comp := c01.WaitCQ(p); comp.Err != nil {
							return
						}
					}
					c01.MustDo(p, core.Op{Remote: dst, Local: back, Size: size, Kind: frame.OpRead}).Wait(p)
					if !bytes.Equal(ep0.Mem()[back:back+size], ep0.Mem()[src:src+size]) {
						return
					}
				}
				ok = true
			})
			<-start
			cl.Env.RunUntil(30 * sim.Second)
			if !ok {
				err = fmt.Errorf("cluster %d: the run did not byte-verify", i)
			} else if st := cl.Nodes[0].EP.Stats; st.CoalescedFrames == 0 {
				err = fmt.Errorf("cluster %d: nothing was coalesced", i)
			} else if p := cl.Nodes[0].NICs[1].OutPort(); p.Corrupted == 0 || p.Duplicated == 0 {
				err = fmt.Errorf("cluster %d: %d frames corrupted, %d duplicated: the clone path did not run", i, p.Corrupted, p.Duplicated)
			}
		}()
	}
	close(start)
	for range 2 {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestStopLetsIdleStorageGo: stopping a simulation empties its buffer
// pool and its endpoints' snapshot classes (sim.Env.OnStop), so that a
// stopped simulation keeps no idle buffer.
func TestStopLetsIdleStorageGo(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	src, dst := ep0.Alloc(4096), ep1.Alloc(4096)
	pool := ep0.PoolForTest()
	var idle *frame.Buf
	cl.Env.Go("client", func(p *sim.Proc) {
		c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: 4096, Kind: frame.OpWrite}).Wait(p)
		c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: 4096, Kind: frame.OpRead}).Wait(p)
		idle = pool.Get()
		pool.Put(idle)
		if ep0.IdleSnapshotsForTest()+ep1.IdleSnapshotsForTest() == 0 {
			t.Error("staging: no snapshot went back to a freelist")
		}
		cl.Env.Stop()
	})
	cl.Env.Run()
	if n := ep0.IdleSnapshotsForTest() + ep1.IdleSnapshotsForTest(); n != 0 {
		t.Errorf("%d idle snapshots after Stop, want 0", n)
	}
	if pool.Get() == idle {
		t.Error("the buffer pool kept an idle buffer across Stop")
	}
}

// TestHeldBuffersReturnAtEpochEnd: a lossy two-rail run under
// Config.Strict holds frames behind a lost one; then node 1 drops off
// the network with the frames still held. Whether the conn is reborn
// (Config.Reconnect) or torn down, the held payloads' buffers go back to
// the simulation's pool, where they sit idle once the run is quiet.
func TestHeldBuffersReturnAtEpochEnd(t *testing.T) {
	defer frame.SetPoolDebug(frame.SetPoolDebug(true))
	for _, reconnect := range []bool{true, false} {
		t.Run(map[bool]string{true: "rebirth", false: "teardown"}[reconnect], func(t *testing.T) {
			cfg := cluster.TwoLinkUnordered1G(2)
			cfg.Core.Strict, cfg.Core.Reconnect = true, reconnect
			cfg.Core.DeadInterval = 50 * sim.Millisecond
			if !reconnect {
				cfg.Core.HeartbeatInterval = 5 * sim.Millisecond // the receiver detects the silence too
			}
			cl, c01, c10 := pairCluster(t, cfg)
			ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
			const n = 16 * 1444 // 16 frames
			src, dst := ep0.Alloc(n), ep1.Alloc(n)
			fill(ep0.Mem()[src:src+n], 9)
			lossy := true // data frame 3 is lost until the kill
			for _, nic := range cl.Nodes[0].NICs {
				nic.OutPort().SetDropFilter(func(f *phys.Frame) bool {
					typ, seq := decodeType(f)
					return lossy && typ == frame.TypeData && seq == 3
				})
			}
			var held []*frame.Buf
			var err error
			cl.Env.Go("writer", func(p *sim.Proc) {
				h := c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})
				p.Sleep(2 * sim.Millisecond)
				held, lossy = c10.HeldBufsForTest(), false
				cl.RestartNode(1, 100*sim.Millisecond)
				h.Wait(p)
				err = h.Err()
			})
			cl.Env.RunUntil(10 * sim.Second)
			if len(held) == 0 {
				t.Fatal("staging failed: no frame held at the kill")
			}
			if reconnect && (err != nil || !bytes.Equal(ep1.Mem()[dst:dst+n], ep0.Mem()[src:src+n])) {
				t.Fatalf("write across the rebirth: %v, or its bytes differ", err)
			}
			if !reconnect && !errors.Is(err, core.ErrPeerDead) {
				t.Fatalf("write across the teardown: %v, want ErrPeerDead", err)
			}
			// Drain the pool: every idle buffer reads the release poison,
			// and the first fresh one ends the drain.
			pool := ep0.PoolForTest()
			idle := map[*frame.Buf]bool{}
			var got []*frame.Buf
			for b := pool.Get(); ; b = pool.Get() {
				got = append(got, b)
				if b.Bytes()[0] != 0xDB {
					break
				}
				idle[b] = true
			}
			for i := len(got) - 1; i >= 0; i-- {
				pool.Put(got[i])
			}
			lost := 0
			for _, b := range held {
				if !idle[b] {
					lost++
				}
			}
			if lost > 0 {
				t.Errorf("%d of the %d buffers held at the kill never came back to the pool", lost, len(held))
			}
		})
	}
}
