package core_test

import (
	"bytes"
	"fmt"
	"maps"
	"testing"
	"testing/quick"

	"multiedge/internal/chaos"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// pairCluster builds a 2-node cluster with the given tweaks applied.
func pairCluster(t *testing.T, base cluster.Config) (*cluster.Cluster, *core.Conn, *core.Conn) {
	t.Helper()
	base.Nodes = 2
	cl := cluster.New(base)
	t.Cleanup(cl.Close)
	c01, c10 := cl.Pair()
	if c01.State() == core.Dialing || c10.State() == core.Dialing {
		t.Fatal("pair not established")
	}
	return cl, c01, c10
}

// must returns v, panicking on err: an issue call a simulated process
// makes cannot report to t, and its failure ends the test.
func must[T any](v T, err error) T {
	noErr(err)
	return v
}

// noErr panics on err (Post's failure, like must's).
func noErr(err error) {
	if err != nil {
		panic(err)
	}
}

// fill writes a deterministic pattern derived from seed.
func fill(b []byte, seed byte) {
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
}

func TestHandshake(t *testing.T) {
	cl := cluster.New(cluster.OneLink1G(2))
	c01, c10 := cl.Pair()
	if c01.RemoteNode() != 1 || c10.RemoteNode() != 0 {
		t.Fatalf("remote nodes %d,%d", c01.RemoteNode(), c10.RemoteNode())
	}
	if c01.Links() != 1 {
		t.Errorf("links = %d", c01.Links())
	}
}

func TestHandshakeUnderLoss(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Link.LossProb = 0.3
	cfg.Seed = 99
	cl := cluster.New(cfg)
	c01, _ := cl.Pair()
	if c01.State() == core.Dialing {
		t.Fatal("handshake did not survive loss")
	}
}

func TestRemoteWriteSmall(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	src := cl.Nodes[0].EP.Alloc(64)
	dst := cl.Nodes[1].EP.Alloc(64)
	data := []byte("the quick brown fox jumps over the lazy dog....!")
	copy(cl.Nodes[0].EP.Mem()[src:], data)
	var done bool
	cl.Env.Go("app", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: len(data), Kind: frame.OpWrite}))
		h.Wait(p)
		done = true
	})
	cl.Env.RunUntil(sim.Second)
	if !done {
		t.Fatal("write handle never completed")
	}
	if got := cl.Nodes[1].EP.Mem()[dst : dst+uint64(len(data))]; !bytes.Equal(got, data) {
		t.Fatalf("remote memory = %q", got)
	}
}

func TestRemoteWriteLargeMultiFrame(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	const n = 300 * 1024 // ~213 frames
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 3)
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
	})
	cl.Env.RunUntil(sim.Second)
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Fatal("large write corrupted")
	}
	st := cl.Nodes[0].EP.Stats
	wantFrames := (n + frame.MaxPayload - 1) / frame.MaxPayload
	if st.DataFramesSent < uint64(wantFrames) {
		t.Errorf("DataFramesSent = %d, want >= %d", st.DataFramesSent, wantFrames)
	}
	if st.Retransmissions != 0 {
		t.Errorf("retransmissions on clean link: %d", st.Retransmissions)
	}
}

func TestZeroSizeWriteNotify(t *testing.T) {
	cl, c01, c10 := pairCluster(t, cluster.OneLink1G(0))
	var note core.Notification
	var got bool
	cl.Env.Go("sender", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Kind: frame.OpWrite, Flags: frame.Notify})).Wait(p)
	})
	cl.Env.Go("receiver", func(p *sim.Proc) {
		note = c10.WaitNotify(p)
		got = true
	})
	cl.Env.RunUntil(sim.Second)
	if !got {
		t.Fatal("notification never delivered")
	}
	if note.From != 0 || note.Len != 0 {
		t.Errorf("notification = %+v", note)
	}
}

func TestNotifyCarriesAddr(t *testing.T) {
	cl, c01, c10 := pairCluster(t, cluster.OneLink1G(0))
	dst := cl.Nodes[1].EP.Alloc(128)
	var note core.Notification
	cl.Env.Go("sender", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Size: 128, Kind: frame.OpWrite, Flags: frame.Notify})).Wait(p)
	})
	cl.Env.Go("receiver", func(p *sim.Proc) { note = c10.WaitNotify(p) })
	cl.Env.RunUntil(sim.Second)
	if note.Addr != dst || note.Len != 128 {
		t.Errorf("notification = %+v, want addr %d len 128", note, dst)
	}
}

func TestRemoteRead(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	const n = 40 * 1024
	remote := cl.Nodes[1].EP.Alloc(n)
	local := cl.Nodes[0].EP.Alloc(n)
	fill(cl.Nodes[1].EP.Mem()[remote:remote+n], 9)
	var done bool
	cl.Env.Go("app", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: remote, Local: local, Size: n, Kind: frame.OpRead}))
		h.Wait(p)
		done = true
	})
	cl.Env.RunUntil(sim.Second)
	if !done {
		t.Fatal("read never completed")
	}
	if !bytes.Equal(cl.Nodes[0].EP.Mem()[local:local+n], cl.Nodes[1].EP.Mem()[remote:remote+n]) {
		t.Fatal("read returned wrong data")
	}
	if cl.Nodes[1].EP.Stats.ReadsServed != 1 {
		t.Errorf("ReadsServed = %d", cl.Nodes[1].EP.Stats.ReadsServed)
	}
}

func TestHandleTest(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	const n = 100 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	var before, after bool
	cl.Env.Go("app", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}))
		before = h.Test() // cannot be complete: frames not even sent
		h.Wait(p)
		after = h.Test()
	})
	cl.Env.RunUntil(sim.Second)
	if before {
		t.Error("handle complete immediately after initiation")
	}
	if !after {
		t.Error("handle incomplete after Wait")
	}
}

func TestWindowBoundsInflight(t *testing.T) {
	cfg := cluster.OneLink1G(0)
	cfg.Core.Window = 8
	cl, c01, _ := pairCluster(t, cfg)
	const n = 200 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}))
	})
	max := 0
	var probe func()
	probe = func() {
		if v := c01.Health().Inflight; v > max {
			max = v
		}
		if !cl.Env.Idle() {
			cl.Env.After(10*sim.Microsecond, probe)
		}
	}
	cl.Env.After(0, probe)
	cl.Env.RunUntil(sim.Second)
	if max > 8 {
		t.Fatalf("inflight reached %d, window is 8", max)
	}
	if max == 0 {
		t.Fatal("no frames observed in flight")
	}
}

func TestLossRecoveryAndNacks(t *testing.T) {
	cfg := cluster.OneLink1G(0)
	cfg.Link.LossProb = 0.05
	cfg.Seed = 7
	cl, c01, _ := pairCluster(t, cfg)
	const n = 400 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 1)
	var done bool
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		done = true
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !done {
		t.Fatal("write did not complete despite retransmission")
	}
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Fatal("data corrupted under loss")
	}
	st := cl.Nodes[0].EP.Stats
	if st.Retransmissions == 0 {
		t.Error("no retransmissions despite 5% loss")
	}
	if cl.Nodes[1].EP.Stats.CtrlNacksSent == 0 {
		t.Error("no NACKs sent despite gaps")
	}
}

func TestTailLossRTORecovery(t *testing.T) {
	// Lose only one late frame via a burst of loss at the end: use a
	// small op so the last frame's loss can only be repaired by the
	// coarse timeout (no following traffic to reveal the gap).
	cfg := cluster.OneLink1G(0)
	cfg.Seed = 3
	cfg.Link.LossProb = 0.5 // heavy: some run of this tiny op WILL lose its tail
	cl, c01, _ := pairCluster(t, cfg)
	src := cl.Nodes[0].EP.Alloc(1024)
	dst := cl.Nodes[1].EP.Alloc(1024)
	fill(cl.Nodes[0].EP.Mem()[src:src+1024], 5)
	var done int
	cl.Env.Go("app", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: 1024, Kind: frame.OpWrite})).Wait(p)
			done++
		}
	})
	cl.Env.RunUntil(60 * sim.Second)
	if done != 20 {
		t.Fatalf("only %d/20 ops completed under 50%% loss", done)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Under loss, acks get lost and frames are retransmitted; every
	// notification must still be delivered exactly once.
	cfg := cluster.OneLink1G(0)
	cfg.Link.LossProb = 0.15
	cfg.Seed = 11
	cl, c01, c10 := pairCluster(t, cfg)
	dst := cl.Nodes[1].EP.Alloc(4096)
	const ops = 30
	var notes int
	cl.Env.Go("sender", func(p *sim.Proc) {
		hs := make([]*core.Handle, 0, ops)
		for i := 0; i < ops; i++ {
			hs = append(hs, must(c01.Do(p, core.Op{Remote: dst, Size: 512, Kind: frame.OpWrite, Flags: frame.Notify})))
		}
		for _, h := range hs {
			h.Wait(p)
		}
	})
	cl.Env.Go("receiver", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			c10.WaitNotify(p)
			notes++
		}
	})
	cl.Env.RunUntil(30 * sim.Second)
	if notes != ops {
		t.Fatalf("delivered %d notifications, want exactly %d", notes, ops)
	}
	if _, extra := c10.PollNotify(); extra {
		t.Fatal("extra notification delivered (duplicate applied twice)")
	}
}

func TestOOOStatsSingleVsDualLink(t *testing.T) {
	run := func(links int, strict bool) *cluster.Cluster {
		var cfg cluster.Config
		if links == 1 {
			cfg = cluster.OneLink1G(0)
		} else if strict {
			cfg = cluster.TwoLink1G(0)
		} else {
			cfg = cluster.TwoLinkUnordered1G(0)
		}
		cl, c01, _ := pairCluster(t, cfg)
		const n = 256 * 1024
		src := cl.Nodes[0].EP.Alloc(n)
		dst := cl.Nodes[1].EP.Alloc(n)
		fill(cl.Nodes[0].EP.Mem()[src:src+n], 2)
		cl.Env.Go("app", func(p *sim.Proc) {
			must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		})
		cl.Env.RunUntil(5 * sim.Second)
		if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
			t.Fatalf("links=%d strict=%v: corrupted", links, strict)
		}
		return cl
	}
	one := run(1, false)
	if f := one.Nodes[1].EP.Stats.OOOFraction(); f != 0 {
		t.Errorf("single link OOO fraction = %v, want 0", f)
	}
	two := run(2, true)
	if f := two.Nodes[1].EP.Stats.OOOFraction(); f < 0.2 {
		t.Errorf("dual link OOO fraction = %v, want substantial (paper: 45-50%%)", f)
	}
	if two.Nodes[1].EP.Stats.HeldFrames == 0 {
		t.Error("strict mode held no frames despite reordering")
	}
	twoU := run(2, false)
	if twoU.Nodes[1].EP.Stats.HeldFrames != 0 {
		t.Error("unordered mode held frames despite no fences")
	}
	if twoU.Nodes[1].EP.Stats.Retransmissions != 0 {
	}
}

func TestBackwardFenceOrdering(t *testing.T) {
	// Big unfenced write A, then a tiny backward-fenced notify B on two
	// unordered links: when B's notification arrives, A must be fully
	// applied.
	cfg := cluster.TwoLinkUnordered1G(0)
	cfg.Link.LossProb = 0.02
	cfg.Seed = 5
	cl, c01, c10 := pairCluster(t, cfg)
	const n = 200 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dstA := cl.Nodes[1].EP.Alloc(n)
	dstB := cl.Nodes[1].EP.Alloc(8)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 6)
	var checked, ok bool
	cl.Env.Go("sender", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dstA, Local: src, Size: n, Kind: frame.OpWrite}))
		must(c01.Do(p, core.Op{Remote: dstB, Local: src, Size: 8, Kind: frame.OpWrite, Flags: frame.FenceBefore | frame.Notify}))
	})
	cl.Env.Go("receiver", func(p *sim.Proc) {
		c10.WaitNotify(p)
		checked = true
		ok = bytes.Equal(cl.Nodes[1].EP.Mem()[dstA:dstA+n], cl.Nodes[0].EP.Mem()[src:src+n])
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !checked {
		t.Fatal("fenced notification never arrived")
	}
	if !ok {
		t.Fatal("backward fence violated: notify before earlier op applied")
	}
	if cl.Nodes[1].EP.Stats.HeldFrames == 0 {
		t.Log("note: no frames were held (fence never actually bit this run)")
	}
}

func TestForwardFenceOrdering(t *testing.T) {
	// Forward-fenced write A, then unfenced notify B: B must not be
	// performed before A even though B is tiny and A is huge.
	cfg := cluster.TwoLinkUnordered1G(0)
	cfg.Seed = 6
	cl, c01, c10 := pairCluster(t, cfg)
	const n = 200 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dstA := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 8)
	var ok, checked bool
	cl.Env.Go("sender", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dstA, Local: src, Size: n, Kind: frame.OpWrite, Flags: frame.FenceAfter}))
		must(c01.Do(p, core.Op{Kind: frame.OpWrite, Flags: frame.Notify}))
	})
	cl.Env.Go("receiver", func(p *sim.Proc) {
		c10.WaitNotify(p)
		checked = true
		ok = bytes.Equal(cl.Nodes[1].EP.Mem()[dstA:dstA+n], cl.Nodes[0].EP.Mem()[src:src+n])
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !checked {
		t.Fatal("notification never arrived")
	}
	if !ok {
		t.Fatal("forward fence violated")
	}
}

func TestFencesDoNotDeadlock(t *testing.T) {
	// Alternating fenced/unfenced ops, loss, two links: everything must
	// still complete.
	cfg := cluster.TwoLinkUnordered1G(0)
	cfg.Link.LossProb = 0.05
	cfg.Seed = 13
	cl, c01, _ := pairCluster(t, cfg)
	src := cl.Nodes[0].EP.Alloc(64 * 1024)
	dst := cl.Nodes[1].EP.Alloc(64 * 1024)
	var done int
	const ops = 24
	cl.Env.Go("sender", func(p *sim.Proc) {
		flagCycle := []frame.OpFlags{0, frame.FenceBefore, frame.FenceAfter, frame.FenceBefore | frame.FenceAfter}
		hs := make([]*core.Handle, 0, ops)
		for i := 0; i < ops; i++ {
			hs = append(hs, must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: 8000, Kind: frame.OpWrite, Flags: flagCycle[i%4]})))
		}
		for _, h := range hs {
			h.Wait(p)
			done++
		}
	})
	cl.Env.RunUntil(30 * sim.Second)
	if done != ops {
		t.Fatalf("completed %d/%d fenced ops", done, ops)
	}
}

func TestStrictModeInOrderApply(t *testing.T) {
	// In strict mode each op's notification implies all earlier ops
	// are applied — even with no fences set.
	cfg := cluster.TwoLink1G(0) // strict
	cfg.Seed = 17
	cl, c01, c10 := pairCluster(t, cfg)
	const n = 100 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dstA := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 4)
	var ok, checked bool
	cl.Env.Go("sender", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dstA, Local: src, Size: n, Kind: frame.OpWrite}))
		must(c01.Do(p, core.Op{Kind: frame.OpWrite, Flags: frame.Notify}))
	})
	cl.Env.Go("receiver", func(p *sim.Proc) {
		c10.WaitNotify(p)
		checked = true
		ok = bytes.Equal(cl.Nodes[1].EP.Mem()[dstA:dstA+n], cl.Nodes[0].EP.Mem()[src:src+n])
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !checked || !ok {
		t.Fatalf("strict ordering violated (checked=%v ok=%v)", checked, ok)
	}
}

func TestGoBackNDelivers(t *testing.T) {
	cfg := cluster.OneLink1G(0)
	cfg.Core.GoBackN = true
	cfg.Link.LossProb = 0.05
	cfg.Seed = 23
	cl, c01, _ := pairCluster(t, cfg)
	const n = 100 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 7)
	var done bool
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		done = true
	})
	cl.Env.RunUntil(60 * sim.Second)
	if !done {
		t.Fatal("go-back-N transfer did not complete")
	}
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Fatal("go-back-N corrupted data")
	}
	if cl.Nodes[1].EP.Stats.CtrlNacksSent != 0 {
		t.Error("go-back-N receiver sent NACKs")
	}
}

func TestByteStripeDelivers(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(0)
	cfg.Core.ByteStripe = true
	cl, c01, _ := pairCluster(t, cfg)
	const n = 100 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 12)
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Fatal("byte-striping corrupted data")
	}
	// Byte striping halves the payload per frame: at least twice the
	// frames of frame striping.
	min := uint64(2*n/frame.MaxPayload) * 95 / 100
	if cl.Nodes[0].EP.Stats.DataFramesSent < min {
		t.Errorf("byte striping sent %d frames, want >= %d", cl.Nodes[0].EP.Stats.DataFramesSent, min)
	}
}

func TestExtraTrafficSmallOnCleanLink(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	const n = 1 << 20
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	cl.Env.Go("app", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		}
	})
	cl.Env.RunUntil(10 * sim.Second)
	r := cl.Collect()
	if f := r.Proto.ExtraTrafficFraction(); f > 0.08 {
		t.Errorf("extra traffic fraction %.3f, paper reports <= 5.5%%", f)
	}
	if r.Proto.Retransmissions != 0 {
		t.Errorf("clean link retransmissions = %d", r.Proto.Retransmissions)
	}
}

func TestBidirectionalSimultaneous(t *testing.T) {
	cl, c01, c10 := pairCluster(t, cluster.OneLink1G(0))
	const n = 200 * 1024
	s0 := cl.Nodes[0].EP.Alloc(n)
	d0 := cl.Nodes[0].EP.Alloc(n)
	s1 := cl.Nodes[1].EP.Alloc(n)
	d1 := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[s0:s0+n], 21)
	fill(cl.Nodes[1].EP.Mem()[s1:s1+n], 42)
	var done int
	cl.Env.Go("app0", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: d1, Local: s0, Size: n, Kind: frame.OpWrite})).Wait(p)
		done++
	})
	cl.Env.Go("app1", func(p *sim.Proc) {
		must(c10.Do(p, core.Op{Remote: d0, Local: s1, Size: n, Kind: frame.OpWrite})).Wait(p)
		done++
	})
	cl.Env.RunUntil(5 * sim.Second)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[d1:d1+n], cl.Nodes[0].EP.Mem()[s0:s0+n]) ||
		!bytes.Equal(cl.Nodes[0].EP.Mem()[d0:d0+n], cl.Nodes[1].EP.Mem()[s1:s1+n]) {
		t.Fatal("bidirectional transfer corrupted")
	}
}

func TestFullMeshAllPairs(t *testing.T) {
	cfg := cluster.OneLink1G(5)
	cl := cluster.New(cfg)
	conns := cl.FullMesh()
	const n = 4096
	bufs := make([][]uint64, 5)
	for i := 0; i < 5; i++ {
		bufs[i] = make([]uint64, 5)
		for j := 0; j < 5; j++ {
			bufs[i][j] = cl.Nodes[i].EP.Alloc(n) // bufs[i][j]: node i's landing area for j
		}
	}
	var done int
	for i := 0; i < 5; i++ {
		i := i
		cl.Env.Go(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
			src := cl.Nodes[i].EP.Alloc(n)
			fill(cl.Nodes[i].EP.Mem()[src:src+n], byte(i))
			var hs []*core.Handle
			for j := 0; j < 5; j++ {
				if j == i {
					continue
				}
				hs = append(hs, must(conns[i][j].Do(p, core.Op{Remote: bufs[j][i], Local: src, Size: n, Kind: frame.OpWrite})))
			}
			for _, h := range hs {
				h.Wait(p)
			}
			done++
		})
	}
	cl.Env.RunUntil(5 * sim.Second)
	if done != 5 {
		t.Fatalf("done = %d/5", done)
	}
	want := make([]byte, n)
	for i := 0; i < 5; i++ {
		fill(want, byte(i))
		for j := 0; j < 5; j++ {
			if j == i {
				continue
			}
			got := cl.Nodes[j].EP.Mem()[bufs[j][i] : bufs[j][i]+n]
			if !bytes.Equal(got, want) {
				t.Fatalf("node %d's data at node %d corrupted", i, j)
			}
		}
	}
}

// Property: any mix of op sizes over any configuration (links, strict,
// loss) delivers byte-identical data.
func TestPropertyDeliveryIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short")
	}
	f := func(seed int64, sz []uint16, twoLinks, strict, lossy bool) bool {
		if len(sz) == 0 {
			return true
		}
		if len(sz) > 12 {
			sz = sz[:12]
		}
		var cfg cluster.Config
		switch {
		case twoLinks && strict:
			cfg = cluster.TwoLink1G(0)
		case twoLinks:
			cfg = cluster.TwoLinkUnordered1G(0)
		default:
			cfg = cluster.OneLink1G(0)
		}
		cfg.Seed = seed
		if lossy {
			cfg.Link.LossProb = 0.04
		}
		cfg.Nodes = 2
		cl := cluster.New(cfg)
		c01, _ := cl.Pair()
		total := 0
		for _, s := range sz {
			total += int(s)
		}
		src := cl.Nodes[0].EP.Alloc(total)
		dst := cl.Nodes[1].EP.Alloc(total)
		fill(cl.Nodes[0].EP.Mem()[src:src+uint64(total)], byte(seed))
		okc := false
		cl.Env.Go("app", func(p *sim.Proc) {
			var hs []*core.Handle
			off := uint64(0)
			for _, s := range sz {
				hs = append(hs, must(c01.Do(p, core.Op{Remote: dst + off, Local: src + off, Size: int(s), Kind: frame.OpWrite})))
				off += uint64(s)
			}
			for _, h := range hs {
				h.Wait(p)
			}
			okc = true
		})
		cl.Env.RunUntil(120 * sim.Second)
		return okc && bytes.Equal(
			cl.Nodes[1].EP.Mem()[dst:dst+uint64(total)],
			cl.Nodes[0].EP.Mem()[src:src+uint64(total)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: reads always return exactly what is in remote memory.
func TestPropertyReadIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short")
	}
	f := func(seed int64, sz []uint16, lossy bool) bool {
		if len(sz) == 0 {
			return true
		}
		if len(sz) > 6 {
			sz = sz[:6]
		}
		cfg := cluster.TwoLinkUnordered1G(2)
		cfg.Seed = seed
		if lossy {
			cfg.Link.LossProb = 0.03
		}
		cl := cluster.New(cfg)
		c01, _ := cl.Pair()
		total := 0
		for _, s := range sz {
			total += int(s)
		}
		remote := cl.Nodes[1].EP.Alloc(total)
		local := cl.Nodes[0].EP.Alloc(total)
		fill(cl.Nodes[1].EP.Mem()[remote:remote+uint64(total)], byte(seed>>3))
		okc := false
		cl.Env.Go("app", func(p *sim.Proc) {
			off := uint64(0)
			for _, s := range sz {
				must(c01.Do(p, core.Op{Remote: remote + off, Local: local + off, Size: int(s), Kind: frame.OpRead})).Wait(p)
				off += uint64(s)
			}
			okc = true
		})
		cl.Env.RunUntil(120 * sim.Second)
		return okc && bytes.Equal(
			cl.Nodes[0].EP.Mem()[local:local+uint64(total)],
			cl.Nodes[1].EP.Mem()[remote:remote+uint64(total)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, core.Stats) {
		cfg := cluster.TwoLinkUnordered1G(0)
		cfg.Link.LossProb = 0.02
		cfg.Seed = 31
		cfg.Nodes = 2
		cl := cluster.New(cfg)
		c01, _ := cl.Pair()
		const n = 128 * 1024
		src := cl.Nodes[0].EP.Alloc(n)
		dst := cl.Nodes[1].EP.Alloc(n)
		cl.Env.Go("app", func(p *sim.Proc) {
			must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		})
		end := cl.Env.RunUntil(10 * sim.Second)
		return end, cl.Nodes[0].EP.Stats
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("same seed diverged: %v vs %v / %+v vs %+v", t1, t2, s1, s2)
	}
}

// TestChaosDeliveryIntegrity subjects the protocol to simultaneous
// loss, duplication and undetected-by-FCS corruption on two unordered
// links: delivery must still be exactly-once and byte-identical.
func TestChaosDeliveryIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	f := func(seed int64, strict bool) bool {
		cfg := cluster.TwoLinkUnordered1G(2)
		if strict {
			cfg = cluster.TwoLink1G(2)
		}
		cfg.Seed = seed
		cfg.Link.LossProb = 0.03
		cfg.Link.DupProb = 0.03
		cfg.Link.CorruptProb = 0.02
		cl := cluster.New(cfg)
		c01, c10 := cl.Pair()
		const n = 96 * 1024
		src := cl.Nodes[0].EP.Alloc(n)
		dst := cl.Nodes[1].EP.Alloc(n)
		fill(cl.Nodes[0].EP.Mem()[src:src+n], byte(seed))
		notes := 0
		var done bool
		cl.Env.Go("send", func(p *sim.Proc) {
			var hs []*core.Handle
			for off := 0; off < n; off += 8 * 1024 {
				hs = append(hs, must(c01.Do(p, core.Op{Remote: dst + uint64(off), Local: src + uint64(off), Size: 8 * 1024, Kind: frame.OpWrite, Flags: frame.Notify})))
			}
			for _, h := range hs {
				h.Wait(p)
			}
			done = true
		})
		cl.Env.Go("recv", func(p *sim.Proc) {
			for i := 0; i < n/(8*1024); i++ {
				c10.WaitNotify(p)
				notes++
			}
		})
		cl.Env.RunUntil(120 * sim.Second)
		if !done || notes != n/(8*1024) {
			t.Logf("seed %d strict %v: done=%v notes=%d", seed, strict, done, notes)
			return false
		}
		if _, extra := c10.PollNotify(); extra {
			t.Logf("seed %d: duplicate notification", seed)
			return false
		}
		return bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestConnClose(t *testing.T) {
	cl, c01, c10 := pairCluster(t, cluster.OneLink1G(0))
	src := cl.Nodes[0].EP.Alloc(4096)
	dst := cl.Nodes[1].EP.Alloc(4096)
	var closedBoth bool
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: 4096, Kind: frame.OpWrite}))
		c01.Close(p) // must drain the in-flight write first
		closedBoth = c01.State() >= core.Closing && c10.State() >= core.Closing
	})
	cl.Env.RunUntil(sim.Second)
	if !closedBoth {
		t.Fatalf("close incomplete: local=%v remote=%v", c01.State() >= core.Closing, c10.State() >= core.Closing)
	}
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+4096], cl.Nodes[0].EP.Mem()[src:src+4096]) {
		t.Fatal("in-flight write lost by close")
	}
}

func TestConnCloseUnderLoss(t *testing.T) {
	cfg := cluster.OneLink1G(0)
	cfg.Link.LossProb = 0.3
	cfg.Seed = 77
	cl, c01, _ := pairCluster(t, cfg)
	done := false
	cl.Env.Go("app", func(p *sim.Proc) {
		c01.Close(p)
		done = true
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !done {
		t.Fatal("close handshake did not survive loss")
	}
}

func TestOpAfterClosePanics(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	var panicked bool
	cl.Env.Go("app", func(p *sim.Proc) {
		c01.Close(p)
		defer func() { panicked = recover() != nil }()
		must(c01.Do(p, core.Op{Size: 8, Kind: frame.OpWrite}))
	})
	func() {
		defer func() { recover() }() // the sim re-panics process panics
		cl.Env.RunUntil(sim.Second)
	}()
	if !panicked {
		t.Fatal("operation on closed connection did not panic")
	}
}

func TestCloseDoesNotDisturbOtherConns(t *testing.T) {
	cl := cluster.New(cluster.OneLink1G(3))
	conns := cl.FullMesh()
	src := cl.Nodes[0].EP.Alloc(8192)
	dst := cl.Nodes[2].EP.Alloc(8192)
	fill(cl.Nodes[0].EP.Mem()[src:src+8192], 9)
	ok := false
	cl.Env.Go("app", func(p *sim.Proc) {
		conns[0][1].Close(p) // tear down 0-1
		must(conns[0][2].Do(p, core.Op{Remote: dst, Local: src, Size: 8192, Kind: frame.OpWrite})).Wait(p)
		ok = bytes.Equal(cl.Nodes[2].EP.Mem()[dst:dst+8192], cl.Nodes[0].EP.Mem()[src:src+8192])
	})
	cl.Env.RunUntil(sim.Second)
	if !ok {
		t.Fatal("traffic on surviving connection broken after close")
	}
}

func TestMemoryRegistrationEnforcement(t *testing.T) {
	cfg := cluster.OneLink1G(0)
	cfg.Core.EnforceRegistration = true
	cl, c01, _ := pairCluster(t, cfg)
	ep0 := cl.Nodes[0].EP
	buf := ep0.Alloc(4096)
	dst := cl.Nodes[1].EP.Alloc(4096)
	ep0.RegisterMemory(buf, 4096)
	var okRegistered, panickedUnregistered bool
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: buf, Size: 4096, Kind: frame.OpWrite})).Wait(p)
		okRegistered = true
		ep0.DeregisterMemory(buf)
		defer func() { panickedUnregistered = recover() != nil }()
		must(c01.Do(p, core.Op{Remote: dst, Local: buf, Size: 4096, Kind: frame.OpWrite}))
	})
	func() {
		defer func() { recover() }()
		cl.Env.RunUntil(sim.Second)
	}()
	if !okRegistered {
		t.Fatal("registered buffer rejected")
	}
	if !panickedUnregistered {
		t.Fatal("unregistered buffer accepted under enforcement")
	}
}

func TestRegistrationNotRequiredForReceive(t *testing.T) {
	// The paper's point: receive buffers need no registration even in
	// enforcing mode.
	cfg := cluster.OneLink1G(0)
	cfg.Core.EnforceRegistration = true
	cl, c01, _ := pairCluster(t, cfg)
	ep0 := cl.Nodes[0].EP
	src := ep0.Alloc(512)
	dst := cl.Nodes[1].EP.Alloc(512) // never registered at node 1
	ep0.RegisterMemory(src, 512)
	done := false
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: 512, Kind: frame.OpWrite})).Wait(p)
		done = true
	})
	cl.Env.RunUntil(sim.Second)
	if !done {
		t.Fatal("write to unregistered receive buffer failed")
	}
}

// TestEventsMatchStats pins the event vocabulary to the counters: every
// kind that has a Stats counter with the same meaning counts exactly
// what the counter counts, on every node, in one run that reaches each
// of them — two rails at 3 % loss under congestion control, a big write,
// a coalesced SQ batch, a fenced write, a read, a rail that dies and
// comes back, and a peer that dies under one conn and never answers a
// second dial.
func TestEventsMatchStats(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(3)
	cfg.Seed = 21
	cfg.Link.LossProb = 0.03
	cfg.Core.CoalesceLimit = 64
	cfg.Core.SchedQueue = true
	cfg.Core.CongestionControl = core.CCConfig{Enable: true}
	cfg.Core.MaxRetries = 30
	cl := cluster.New(cfg)
	t.Cleanup(cl.Close)
	recs := make([]*obs.Recorder, len(cl.Nodes))
	for i, n := range cl.Nodes {
		recs[i] = obs.NewRecorder(i, 0, obs.AllKinds)
		n.EP.SetRecorder(recs[i])
	}
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const big, small, rd = 400 * 1444, 64, 16 << 10
	src, dst := ep0.Alloc(big+32*small), ep1.Alloc(big+32*small)
	rdst, flag := ep0.Alloc(rd), ep1.Alloc(8)
	// Rail 1 of node 0 goes dark in the middle of the big write, long
	// enough for its repairs to condemn it, and comes back; every 7th
	// frame on rail 0 arrives twice.
	r := chaos.New(cl, 3)
	r.FlapLink(2*sim.Millisecond, 20*sim.Millisecond, 0, 1)
	r.DuplicateEveryNth(0, 0, 0, 0, 7)
	done := false
	cl.Env.Go("app", func(p *sim.Proc) {
		c01, c02 := ep0.Dial(p, 1, 0), ep0.Dial(p, 2, 0)
		bigW := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: big, Kind: frame.OpWrite}))
		for i := 0; i < 32; i++ {
			off := uint64(big + i*small)
			noErr(c01.Post(core.Op{Remote: dst + off, Local: src + off, Size: small, Kind: frame.OpWrite}))
		}
		must(c01.Ring(p))
		must(c01.Do(p, core.Op{Remote: flag, Local: src, Size: 8, Kind: frame.OpWrite,
			Flags: frame.FenceBefore | frame.FenceAfter})).Wait(p)
		bigW.Wait(p)
		drainCQ(p, c01, 32)
		must(c01.Do(p, core.Op{Remote: dst, Local: rdst, Size: rd, Kind: frame.OpRead})).Wait(p)
		// Traffic once the rail is back lets a probe re-admit it.
		p.Sleep(25*sim.Millisecond - cl.Env.Now())
		for i := 0; i < 8; i++ {
			must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: big, Kind: frame.OpWrite}))
			must(c01.Do(p, core.Op{Remote: flag, Local: src, Size: 8, Kind: frame.OpWrite,
				Flags: frame.FenceBefore})).Wait(p)
		}
		// Node 2 dies under an in-flight write, then ignores a fresh dial.
		cl.PauseNode(2)
		h := must(c02.Do(p, core.Op{Remote: 0, Local: src, Size: 4096, Kind: frame.OpWrite}))
		if h.Wait(p); h.Err() == nil {
			t.Error("write to a dead peer succeeded")
		}
		if c := ep0.Dial(p, 2, 0); c.Err() == nil {
			t.Error("dial to a dead peer succeeded")
		}
		done = true
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !done {
		t.Fatal("workload did not finish")
	}
	pairs := []struct {
		kind  obs.Kind
		stat  func(*core.Stats) uint64
		bytes bool // compare the kind's byte total instead of its count
	}{
		{obs.EvFrameTx, func(s *core.Stats) uint64 { return s.DataFramesSent }, false},
		{obs.EvFrameRetx, func(s *core.Stats) uint64 { return s.Retransmissions }, false},
		{obs.EvTxAck, func(s *core.Stats) uint64 { return s.CtrlAcksSent }, false},
		{obs.EvTxNack, func(s *core.Stats) uint64 { return s.CtrlNacksSent }, false},
		{obs.EvRxData, func(s *core.Stats) uint64 { return s.DataFramesRecv }, false},
		{obs.EvRxData, func(s *core.Stats) uint64 { return s.DataBytesRecv }, true},
		{obs.EvRxDup, func(s *core.Stats) uint64 { return s.Duplicates }, false},
		{obs.EvRxOOO, func(s *core.Stats) uint64 { return s.OOOArrivals }, false},
		{obs.EvRxHold, func(s *core.Stats) uint64 { return s.HeldFrames }, false},
		{obs.EvLinkDead, func(s *core.Stats) uint64 { return s.LinkDeadEvents }, false},
		{obs.EvLinkRestore, func(s *core.Stats) uint64 { return s.LinkRestores }, false},
		{obs.EvFailed, func(s *core.Stats) uint64 { return s.PeerDeadEvents }, false},
		{obs.EvRtoExpiry, func(s *core.Stats) uint64 { return s.RtoExpiries }, false},
		{obs.EvDoorbell, func(s *core.Stats) uint64 { return s.Doorbells }, false},
		{obs.EvCwndCut, func(s *core.Stats) uint64 { return s.CcCwndCuts }, false},
	}
	for _, pr := range pairs {
		var events, stat uint64
		for i, n := range cl.Nodes {
			ev, st := recs[i].Count(pr.kind), pr.stat(&n.EP.Stats)
			if pr.bytes {
				ev = recs[i].Bytes(pr.kind)
			}
			if ev != st {
				t.Errorf("node %d: %v %d, its Stats counter %d (bytes %v)", i, pr.kind, ev, st, pr.bytes)
			}
			events, stat = events+ev, stat+st
		}
		if events == 0 {
			t.Errorf("%v never happened: the pair is vacuous", pr.kind)
		}
		t.Logf("%-12v %8d (bytes %v)", pr.kind, events, pr.bytes)
	}
}

func TestHandleProgress(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	const n = 200 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	var mid, fin int
	cl.Env.Go("app", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}))
		p.Sleep(800 * sim.Microsecond) // part-way through the transfer
		mid, _ = h.Progress()
		h.Wait(p)
		fin, _ = h.Progress()
	})
	cl.Env.RunUntil(sim.Second)
	if mid <= 0 || mid >= n {
		t.Errorf("mid-transfer progress = %d, want strictly between 0 and %d", mid, n)
	}
	if fin != n {
		t.Errorf("final progress = %d, want %d", fin, n)
	}
	// Reads report received bytes too.
	var rp int
	cl.Env.Go("reader", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: 8192, Kind: frame.OpRead}))
		h.Wait(p)
		rp, _ = h.Progress()
	})
	cl.Env.RunUntil(2 * sim.Second)
	if rp != 8192 {
		t.Errorf("read progress = %d, want 8192", rp)
	}
}

// Property: delivery integrity holds across the protocol's knob space:
// go-back-N, byte striping, tiny windows, ack-per-frame, loss and
// duplication.
func TestPropertyKnobSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short")
	}
	f := func(seed int64, gbn, byteStripe, lossy bool, winSel, ackSel uint8) bool {
		cfg := cluster.TwoLinkUnordered1G(2)
		cfg.Seed = seed
		cfg.Core.GoBackN = gbn
		cfg.Core.ByteStripe = byteStripe
		cfg.Core.Window = []int{1, 8, 64, 256}[winSel%4]
		cfg.Core.AckEvery = []int{1, 4, 32}[ackSel%3]
		if cfg.Core.AckEvery >= cfg.Core.Window {
			cfg.Core.AckEvery = 1
		}
		if lossy && !gbn { // GBN under loss on striped links converges too slowly for a quick test
			cfg.Link.LossProb = 0.02
			cfg.Link.DupProb = 0.01
		}
		cl := cluster.New(cfg)
		c01, _ := cl.Pair()
		const n = 48 * 1024
		src := cl.Nodes[0].EP.Alloc(n)
		dst := cl.Nodes[1].EP.Alloc(n)
		fill(cl.Nodes[0].EP.Mem()[src:src+n], byte(seed))
		done := false
		cl.Env.Go("app", func(p *sim.Proc) {
			must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
			done = true
		})
		cl.Env.RunUntil(240 * sim.Second)
		return done && bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src:src+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

func TestTwoConnectionsSamePair(t *testing.T) {
	// Two independent connections between the same nodes: separate
	// sequence/op spaces, both deliver.
	cl := cluster.New(cluster.OneLink1G(2))
	var a1, a2, b1, b2 *core.Conn
	cl.Env.Go("dial", func(p *sim.Proc) {
		a1 = cl.Nodes[0].EP.Dial(p, 1, 0)
		a2 = cl.Nodes[0].EP.Dial(p, 1, 0)
	})
	cl.Env.Go("accept", func(p *sim.Proc) {
		b1 = cl.Nodes[1].EP.Accept(p)
		b2 = cl.Nodes[1].EP.Accept(p)
	})
	cl.Env.Run()
	if a1 == nil || a2 == nil || b1 == nil || b2 == nil {
		t.Fatal("second connection not established")
	}
	d1 := cl.Nodes[1].EP.Alloc(4096)
	d2 := cl.Nodes[1].EP.Alloc(4096)
	src := cl.Nodes[0].EP.Alloc(4096)
	fill(cl.Nodes[0].EP.Mem()[src:src+4096], 5)
	done := 0
	cl.Env.Go("app", func(p *sim.Proc) {
		h1 := must(a1.Do(p, core.Op{Remote: d1, Local: src, Size: 4096, Kind: frame.OpWrite}))
		h2 := must(a2.Do(p, core.Op{Remote: d2, Local: src, Size: 4096, Kind: frame.OpWrite}))
		h1.Wait(p)
		h2.Wait(p)
		done = 1
	})
	cl.Env.RunUntil(sim.Second)
	if done != 1 {
		t.Fatal("ops on parallel connections did not complete")
	}
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[d1:d1+4096], cl.Nodes[1].EP.Mem()[d2:d2+4096]) {
		t.Fatal("parallel connections delivered different data")
	}
}

func TestFencedRead(t *testing.T) {
	// A backward-fenced READ must be serviced only after the preceding
	// write is applied at the target, so it returns the new data.
	cfg := cluster.TwoLinkUnordered1G(0)
	cfg.Seed = 41
	cl, c01, _ := pairCluster(t, cfg)
	const n = 128 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	back := cl.Nodes[0].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 77)
	ok := false
	cl.Env.Go("app", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}))
		h := must(c01.Do(p, core.Op{Remote: dst, Local: back, Size: n, Kind: frame.OpRead, Flags: frame.FenceBefore}))
		h.Wait(p)
		ok = bytes.Equal(cl.Nodes[0].EP.Mem()[back:back+n], cl.Nodes[0].EP.Mem()[src:src+n])
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !ok {
		t.Fatal("fenced read returned pre-write data")
	}
}

// TestNotifyRegionRoutes: a notification goes to the mailbox of the
// region its write starts in, from whichever peer, and to its conn's
// WaitNotify queue when it starts outside every region — one byte past
// a region's end included.
func TestNotifyRegionRoutes(t *testing.T) {
	cl := cluster.New(cluster.OneLink1G(3))
	defer cl.Close()
	conns := cl.FullMesh()
	ep := cl.Nodes[2].EP
	a := ep.Alloc(64)
	gap := ep.Alloc(64) // a's end: inside no region
	b := ep.Alloc(64)   // b's end: the top of the allocations
	qa, qb := ep.NotifyRegion(a, 64), ep.NotifyRegion(b, 64)
	if gap != a+64 {
		t.Fatalf("allocations not contiguous: a %d, gap %d", a, gap)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NotifyRegion accepted a region overlapping another")
			}
		}()
		ep.NotifyRegion(b+32, 64)
	}()

	type hit struct {
		from int
		addr uint64
	}
	writes := [][]uint64{
		0: {a, a + 63, a + 64, b, b + 64},
		1: {a, b + 63, b + 64},
	}
	for from, addrs := range writes {
		src := cl.Nodes[from].EP.Alloc(1)
		c := conns[from][2]
		cl.Env.Go(fmt.Sprintf("writer%d", from), func(p *sim.Proc) {
			for _, addr := range addrs {
				must(c.Do(p, core.Op{Remote: addr, Local: src, Size: 1, Kind: frame.OpWrite, Flags: frame.Notify})).Wait(p)
			}
		})
	}
	cl.Env.RunUntil(sim.Second)

	drain := func(next func() (core.Notification, bool)) map[hit]int {
		got := map[hit]int{}
		for n, ok := next(); ok; n, ok = next() {
			got[hit{n.From, n.Addr}]++
		}
		return got
	}
	for _, tc := range []struct {
		name string
		got  map[hit]int
		want map[hit]int
	}{
		{"region a", drain(qa.TryRecv), map[hit]int{{0, a}: 1, {0, a + 63}: 1, {1, a}: 1}},
		{"region b", drain(qb.TryRecv), map[hit]int{{0, b}: 1, {1, b + 63}: 1}},
		{"conn 2-0", drain(conns[2][0].PollNotify), map[hit]int{{0, a + 64}: 1, {0, b + 64}: 1}},
		{"conn 2-1", drain(conns[2][1].PollNotify), map[hit]int{{1, b + 64}: 1}},
	} {
		if !maps.Equal(tc.got, tc.want) {
			t.Errorf("%s got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestSolicitedAckLatency pins the Solicit flag: a queue-depth-1 write
// on an otherwise idle connection completes in one round trip instead
// of waiting out the delayed-ACK policy (AckDelay, 500us by default).
func TestSolicitedAckLatency(t *testing.T) {
	measure := func(flags frame.OpFlags) sim.Time {
		cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
		src := cl.Nodes[0].EP.Alloc(64)
		dst := cl.Nodes[1].EP.Alloc(64)
		var elapsed sim.Time
		cl.Env.Go("app", func(p *sim.Proc) {
			t0 := cl.Env.Now()
			must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: 64, Kind: frame.OpWrite, Flags: flags})).Wait(p)
			elapsed = cl.Env.Now() - t0
		})
		cl.Env.RunUntil(sim.Second)
		if elapsed == 0 {
			t.Fatal("write did not complete")
		}
		return elapsed
	}
	plain := measure(0)
	solicited := measure(frame.Solicit)
	if plain < 400*sim.Microsecond {
		t.Errorf("unsolicited completion %v; expected to be AckDelay-bound (>=400us)", plain)
	}
	if solicited > 150*sim.Microsecond {
		t.Errorf("solicited completion %v; expected one round trip (<150us)", solicited)
	}
}

// TestSolicitCumulativeOnly: a solicited ACK must not complete the
// operation while an earlier frame is still missing — the ACK is
// cumulative, so repair still gates completion.
func TestSolicitCumulativeOnly(t *testing.T) {
	cfg := cluster.OneLink1G(0)
	cl, c01, _ := pairCluster(t, cfg)
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const n = 8 * 1444
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)
	fill(ep0.Mem()[src:src+uint64(n)], 1)
	flag := ep0.Alloc(1)
	fdst := ep1.Alloc(1)
	// Kill exactly the first data frame of the bulk write.
	dataSeen := false
	cl.Nodes[0].NICs[0].OutPort().SetDropFilter(func(f *phys.Frame) bool {
		_, _, h, _, err := frame.Decode(f.Buf)
		if err != nil || h.Type != frame.TypeData || dataSeen {
			return false
		}
		dataSeen = true
		return true
	})
	var bulkDone, solDone sim.Time
	cl.Env.Go("app", func(p *sim.Proc) {
		hb := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}))
		hs := must(c01.Do(p, core.Op{Remote: fdst, Local: flag, Size: 1, Kind: frame.OpWrite, Flags: frame.Solicit}))
		hs.Wait(p)
		solDone = cl.Env.Now()
		hb.Wait(p)
		bulkDone = cl.Env.Now()
	})
	cl.Env.RunUntil(5 * sim.Second)
	if solDone == 0 || bulkDone == 0 {
		t.Fatal("operations did not complete")
	}
	// The solicited op's frames follow the bulk op's; with the first
	// bulk frame lost, the cumulative ACK cannot pass it until repair,
	// so the solicited op must not complete before the bulk op.
	if solDone < bulkDone {
		t.Errorf("solicited op completed at %v before the gapped bulk op at %v", solDone, bulkDone)
	}
	if !bytes.Equal(ep1.Mem()[dst:dst+uint64(n)], ep0.Mem()[src:src+uint64(n)]) {
		t.Error("bulk data corrupted")
	}
}

// TestConcurrentConnections runs three independent connections between
// the same node pair, all striping over the same two rails at once:
// each must deliver its own data intact (connection IDs demultiplex
// frames) and none may starve (the endpoint's transmit round-robin is
// per-connection).
func TestConcurrentConnections(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Core.MemBytes = 32 << 20
	cl := cluster.New(cfg)
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP

	const nConns = 3
	var c01 [nConns]*core.Conn
	for i := 0; i < nConns; i++ {
		i := i
		cl.Env.Go("dial", func(p *sim.Proc) { c01[i] = ep0.Dial(p, 1, 0) })
		cl.Env.Go("accept", func(p *sim.Proc) { ep1.Accept(p) })
		cl.Env.Run()
	}

	const n = 2 << 20
	var src, dst [nConns]uint64
	for i := 0; i < nConns; i++ {
		src[i] = ep0.Alloc(n)
		dst[i] = ep1.Alloc(n)
		fill(ep0.Mem()[src[i]:src[i]+n], byte(100+i*31))
	}
	var doneAt [nConns]sim.Time
	for i := 0; i < nConns; i++ {
		i := i
		cl.Env.Go(fmt.Sprintf("xfer%d", i), func(p *sim.Proc) {
			must(c01[i].Do(p, core.Op{Remote: dst[i], Local: src[i], Size: n, Kind: frame.OpWrite})).Wait(p)
			doneAt[i] = cl.Env.Now()
		})
	}
	cl.Env.RunUntil(10 * sim.Second)

	var first, last sim.Time = 1 << 62, 0
	for i := 0; i < nConns; i++ {
		if doneAt[i] == 0 {
			t.Fatalf("connection %d starved (transfer incomplete)", i)
		}
		if !bytes.Equal(ep1.Mem()[dst[i]:dst[i]+n], ep0.Mem()[src[i]:src[i]+n]) {
			t.Errorf("connection %d data corrupted/cross-wired", i)
		}
		if doneAt[i] < first {
			first = doneAt[i]
		}
		if doneAt[i] > last {
			last = doneAt[i]
		}
	}
	// Fair sharing: concurrent equal transfers finish close together
	// (round-robin demand scheduling), not serially.
	if float64(last) > 1.5*float64(first) {
		t.Errorf("unfair sharing: first done at %v, last at %v", first, last)
	}
}
