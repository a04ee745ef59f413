package core_test

// The delayed-ACK policy (§2.4: an explicit ACK after AckEvery frames or
// AckDelay) is a streaming policy. These tests pin the three places a
// sender used to wait out one AckDelay although it could not move until
// the acknowledgement arrived: a window spent below AckEvery, a bare
// forward fence, and a Solicit frame that overtook its predecessor on
// the other rail. (The fourth, Config.Window below AckEvery on a bulk
// stream, is internal/bench's TestAckReqWindowBelowAckEvery.) They use
// nothing but the long-standing API, so they compile — and fail — on a
// tree without frame.Header.AckReq.

import (
	"bytes"
	"fmt"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// TestAckReqCwndLimitedBatch: a cold connection in slow start (congestion
// window 4) rings eight posted writes. The first four frames spend the
// window; the receiver's threshold of 32 can never fire on a flight of
// four, so the batch used to finish after one AckDelay (600 µs on one
// rail; 999 µs on two, where the second flight stalls again; 94 and
// 104 µs now).
func TestAckReqCwndLimitedBatch(t *testing.T) {
	topos := []func(int) cluster.Config{cluster.OneLink1G, cluster.TwoLinkUnordered1G}
	for _, topo := range topos {
		for seed := int64(1); seed <= 6; seed++ {
			cfg := topo(2)
			cfg.Seed = seed
			cfg.Core.SchedQueue = true
			cfg.Core.CongestionControl = core.CCConfig{Enable: true, InitWindow: 4}
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				cl, c01, _ := pairCluster(t, cfg)
				ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
				const ops, size = 8, 256
				src, dst := ep0.Alloc(ops*size), ep1.Alloc(ops*size)
				fill(ep0.Mem()[src:src+ops*size], byte(seed))
				var elapsed sim.Time
				cl.Env.Go("batch", func(p *sim.Proc) {
					t0 := cl.Env.Now()
					for i := uint64(0); i < ops; i++ {
						op := core.Op{Remote: dst + i*size, Local: src + i*size, Size: size, Kind: frame.OpWrite}
						if i == ops-1 {
							op.Flags = frame.Solicit
						}
						noErr(c01.Post(op))
					}
					must(c01.Ring(p))
					for i := 0; i < ops; i++ {
						if comp := c01.WaitCQ(p); comp.Err != nil {
							t.Errorf("completion %d: %v", i, comp.Err)
						}
					}
					elapsed = cl.Env.Now() - t0
				})
				cl.Env.RunUntil(sim.Second)
				if elapsed == 0 {
					t.Fatal("batch did not drain")
				}
				t.Logf("batch drained in %v", elapsed)
				if limit := cfg.Core.AckDelay / 2; elapsed >= limit {
					t.Errorf("batch drained in %v, want < %v: a window-limited flight waited for the delayed ACK", elapsed, limit)
				}
				if !bytes.Equal(ep1.Mem()[dst:dst+ops*size], ep0.Mem()[src:src+ops*size]) {
					t.Error("batch data corrupted")
				}
			})
		}
	}
}

// TestForwardFenceNoAckDelay: the op behind a forward fence may not leave
// until the fenced op is acknowledged (Conn.curOp), so the fence's ACK
// is one the sender is blocked on. Without its own Solicit it used to
// arrive by the delayed-ACK timer: the second write started after one
// AckDelay and finished at 586 µs (79 µs now).
func TestForwardFenceNoAckDelay(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(2))
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	src, dst := ep0.Alloc(128), ep1.Alloc(128)
	fill(ep0.Mem()[src:src+128], 3)
	var elapsed sim.Time
	cl.Env.Go("app", func(p *sim.Proc) {
		t0 := cl.Env.Now()
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: 64, Kind: frame.OpWrite, Flags: frame.FenceAfter}))
		must(c01.Do(p, core.Op{Remote: dst + 64, Local: src + 64, Size: 64, Kind: frame.OpWrite, Flags: frame.Solicit})).Wait(p)
		elapsed = cl.Env.Now() - t0
	})
	cl.Env.RunUntil(sim.Second)
	if elapsed == 0 {
		t.Fatal("writes did not complete")
	}
	t.Logf("write behind the fence done after %v", elapsed)
	if elapsed >= 100*sim.Microsecond {
		t.Errorf("write behind a forward fence done after %v, want < 100µs (two round trips, no AckDelay)", elapsed)
	}
	if !bytes.Equal(ep1.Mem()[dst:dst+128], ep0.Mem()[src:src+128]) {
		t.Error("data corrupted")
	}
}

// TestSolicitSurvivesReordering: on two rails a 64 B solicited frame
// overtakes the larger last frame of its predecessor on the other rail.
// The ACK forced when the solicited op is performed then covers nothing,
// and the straggler used to fall under the delayed-ACK policy: 582 µs on
// every seed (583-594 µs on seven of the eight behind a 4 KiB
// predecessor) instead of one round trip (75 and 79-83 µs now).
func TestSolicitSurvivesReordering(t *testing.T) {
	for _, pred := range []int{1444, 4096} {
		for seed := int64(1); seed <= 8; seed++ {
			cfg := cluster.TwoLinkUnordered1G(2)
			cfg.Seed = seed
			t.Run(fmt.Sprintf("pred%d/seed%d", pred, seed), func(t *testing.T) {
				cl, c01, _ := pairCluster(t, cfg)
				ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
				n := uint64(pred + 64)
				src, dst := ep0.Alloc(int(n)), ep1.Alloc(int(n))
				fill(ep0.Mem()[src:src+n], byte(seed))
				var elapsed sim.Time
				cl.Env.Go("app", func(p *sim.Proc) {
					t0 := cl.Env.Now()
					must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: pred, Kind: frame.OpWrite}))
					must(c01.Do(p, core.Op{Remote: dst + uint64(pred), Local: src + uint64(pred), Size: 64,
						Kind: frame.OpWrite, Flags: frame.Solicit})).Wait(p)
					elapsed = cl.Env.Now() - t0
				})
				cl.Env.RunUntil(sim.Second)
				if elapsed == 0 {
					t.Fatal("solicited write did not complete")
				}
				if cl.Nodes[1].EP.Stats.OOOArrivals == 0 {
					t.Fatal("no frame overtook another: the case is vacuous")
				}
				t.Logf("done after %v", elapsed)
				if elapsed >= 120*sim.Microsecond {
					t.Errorf("overtaken Solicit write done after %v, want < 120µs", elapsed)
				}
				if !bytes.Equal(ep1.Mem()[dst:dst+n], ep0.Mem()[src:src+n]) {
					t.Error("data corrupted")
				}
			})
		}
	}
}
