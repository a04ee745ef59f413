package blk_test

import (
	"bytes"
	"errors"
	"testing"

	"multiedge/internal/blk"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/sim"
)

// mirrorSetup builds hosts on nodes 0 and 1 and a mirror client on
// node 2 over a dual-rail cluster.
func mirrorSetup(t *testing.T, blocks, bs int) (*cluster.Cluster, [][]*core.Conn, *blk.Volume, *blk.Volume, *blk.Mirror) {
	t.Helper()
	cfg := cluster.TwoLinkUnordered1G(3)
	cfg.Core.MemBytes = blocks*bs + (4 << 20)
	cl := cluster.New(cfg)
	conns := cl.FullMesh()
	va := blk.NewVolume(cl, 0, blocks, bs, 1)
	vb := blk.NewVolume(cl, 1, blocks, bs, 1)
	a := blk.Open(cl, va, 2, conns[2][0], 0)
	b := blk.Open(cl, vb, 2, conns[2][1], 0)
	return cl, conns, va, vb, blk.OpenMirror(a, b)
}

func TestMirrorWritesBothLegs(t *testing.T) {
	cl, _, va, vb, m := mirrorSetup(t, 16, 2048)
	ok := false
	cl.Env.Go("io", func(p *sim.Proc) {
		for b := 0; b < 16; b++ {
			check(t, m.Write(p, b, pat(2048, byte(b))))
		}
		got := make([]byte, 2048)
		m.Read(p, 5, got)
		if !bytes.Equal(got, pat(2048, 5)) {
			t.Error("mirror read mismatch")
		}
		ok = true
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !ok {
		t.Fatal("did not complete")
	}
	// Both hosts hold identical data blocks.
	ha, hb := va.HostMem(cl), vb.HostMem(cl)
	n := 16 * 2048
	if !bytes.Equal(ha[:n], hb[:n]) {
		t.Error("legs diverged after mirrored writes")
	}
	if !bytes.Equal(ha[:2048], pat(2048, 0)) {
		t.Error("leg A holds wrong data")
	}
	if a, b := m.Down(); a || b {
		t.Error("legs marked down without any failure")
	}
}

// TestMirrorFailover kills host 0's every rail mid-workload: reads must
// fail over to host 1 after the deadline and the workload must finish
// with correct data. This is the scenario plain MultiEdge cannot
// express an error for — the operation just never completes.
func TestMirrorFailover(t *testing.T) {
	cl, _, _, vb, m := mirrorSetup(t, 16, 2048)
	ok := false
	cl.Env.Go("io", func(p *sim.Proc) {
		for b := 0; b < 16; b++ {
			check(t, m.Write(p, b, pat(2048, byte(b))))
		}
		// Host 0 vanishes (both rails cut).
		cl.FailLink(0, 0)
		cl.FailLink(0, 1)
		got := make([]byte, 2048)
		for b := 0; b < 16; b++ {
			m.Read(p, b, got)
			if !bytes.Equal(got, pat(2048, byte(b))) {
				t.Fatalf("block %d wrong after failover", b)
			}
		}
		// Degraded writes land on the survivor only.
		check(t, m.Write(p, 3, pat(2048, 99)))
		m.Read(p, 3, got)
		if !bytes.Equal(got, pat(2048, 99)) {
			t.Error("degraded write not readable")
		}
		ok = true
	})
	cl.Env.RunUntil(60 * sim.Second)
	if !ok {
		t.Fatal("did not complete")
	}
	if m.Failovers == 0 {
		t.Error("no failover recorded")
	}
	if a, b := m.Down(); !a || b {
		t.Errorf("down flags = %v,%v; want leg A down only", a, b)
	}
	if !bytes.Equal(vb.HostMem(cl)[3*2048:4*2048], pat(2048, 99)) {
		t.Error("survivor leg missing the degraded write")
	}
}

// TestMirrorRebuild repairs the dead host and rebuilds: the legs must
// converge, including writes made while degraded, and mirrored service
// must resume.
func TestMirrorRebuild(t *testing.T) {
	cl, _, va, vb, m := mirrorSetup(t, 16, 2048)
	ok := false
	cl.Env.Go("io", func(p *sim.Proc) {
		for b := 0; b < 16; b++ {
			check(t, m.Write(p, b, pat(2048, byte(b))))
		}
		cl.FailLink(0, 0)
		cl.FailLink(0, 1)
		got := make([]byte, 2048)
		m.Read(p, 0, got) // trips the deadline, marks leg A down
		check(t, m.Write(p, 7, pat(2048, 77)))

		// Rebuild against a still-dead host must refuse.
		if m.Rebuild(p) {
			t.Error("rebuild claimed success against a dead host")
		}

		cl.RestoreLink(0, 0)
		cl.RestoreLink(0, 1)
		// Give the abandoned probe/read repair a moment, then rebuild.
		p.Sleep(20 * sim.Millisecond)
		if !m.Rebuild(p) {
			t.Fatal("rebuild failed after host repair")
		}
		// Mirrored service resumed: a new write lands on both legs.
		check(t, m.Write(p, 9, pat(2048, 88)))
		ok = true
	})
	cl.Env.RunUntil(120 * sim.Second)
	if !ok {
		t.Fatal("did not complete")
	}
	if a, b := m.Down(); a || b {
		t.Errorf("down flags = %v,%v after rebuild", a, b)
	}
	if m.Rebuilt == 0 {
		t.Error("rebuild copied nothing")
	}
	ha, hb := va.HostMem(cl), vb.HostMem(cl)
	n := 16 * 2048
	if !bytes.Equal(ha[:n], hb[:n]) {
		t.Error("legs did not converge after rebuild")
	}
	if !bytes.Equal(ha[7*2048:8*2048], pat(2048, 77)) {
		t.Error("degraded-period write missing from rebuilt leg")
	}
}

// legFailedAt runs body on the mirror client with the first host's end
// of its conn abandoned 1 µs into body, after two mirrored writes
// (blocks 3 and 4): the leg's operations in flight then fail with
// ErrPeerDead instead of completing.
func legFailedAt(t *testing.T, body func(p *sim.Proc, m *blk.Mirror)) (*cluster.Cluster, *blk.Volume, *blk.Volume, *blk.Mirror) {
	t.Helper()
	cl, conns, va, vb, m := mirrorSetup(t, 16, 2048)
	t.Cleanup(cl.Close)
	done := false
	cl.Env.Go("io", func(p *sim.Proc) {
		for b := 3; b <= 4; b++ {
			check(t, m.Write(p, b, pat(2048, byte(b))))
		}
		cl.Env.After(sim.Microsecond, conns[0][2].Abandon)
		body(p, m)
		done = true
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !done {
		t.Fatal("did not complete")
	}
	return cl, va, vb, m
}

// TestMirrorReadFailedLeg: a leg's read that fails is a failover, not a
// result. The staging buffer of the failed leg still holds block 4, the
// last one written, and must not come back as block 5.
func TestMirrorReadFailedLeg(t *testing.T) {
	got := pat(2048, 1)
	_, _, _, m := legFailedAt(t, func(p *sim.Proc, m *blk.Mirror) { m.Read(p, 5, got) })
	if !bytes.Equal(got, make([]byte, 2048)) {
		t.Errorf("Read(5) returned %v..., want the unwritten block's zeros (block 4 begins %v)", got[:4], pat(2048, 4)[:4])
	}
	if a, b := m.Down(); !a || b || m.Failovers != 1 {
		t.Errorf("down flags %v,%v and %d failovers; want leg A down only and 1", a, b, m.Failovers)
	}
	// Rebuild probes the failed leg: its conn has ended, so the probe
	// reports that instead of panicking, and the leg stays down.
	_, _, _, m = legFailedAt(t, func(p *sim.Proc, m *blk.Mirror) {
		m.Read(p, 5, got)
		if m.Rebuild(p) {
			t.Error("Rebuild claimed a leg whose conn has ended")
		}
	})
	if a, _ := m.Down(); !a {
		t.Error("the failed leg is no longer marked down after Rebuild")
	}
}

// TestMirrorWriteFailedLeg: a leg whose commit fails is marked down, so
// that Rebuild copies the block later, and the write succeeds on the
// other leg; with no leg left, Write reports the failure.
func TestMirrorWriteFailedLeg(t *testing.T) {
	var err, none error
	cl, va, vb, m := legFailedAt(t, func(p *sim.Proc, m *blk.Mirror) {
		err = m.Write(p, 3, pat(2048, 33))
		none = m.Write(p, 6, pat(2048, 66)) // leg A is down: leg B alone
	})
	if err != nil || none != nil {
		t.Fatalf("Write(3) = %v and Write(6) = %v with one leg left, want nil", err, none)
	}
	if a, b := m.Down(); !a || b {
		t.Errorf("down flags %v,%v; want leg A down only", a, b)
	}
	if !bytes.Equal(vb.HostMem(cl)[3*2048:4*2048], pat(2048, 33)) {
		t.Error("the surviving leg lacks the write")
	}
	if bytes.Equal(va.HostMem(cl)[3*2048:4*2048], pat(2048, 33)) {
		t.Error("the failed leg holds the write: the test did not fail it in time")
	}

	cl, conns, _, _, m := mirrorSetup(t, 16, 2048)
	defer cl.Close()
	cl.Env.Go("io", func(p *sim.Proc) {
		conns[0][2].Abandon()
		conns[1][2].Abandon()
		err = m.Write(p, 3, pat(2048, 33))
		none = m.Write(p, 3, pat(2048, 33))
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !errors.Is(err, core.ErrPeerDead) || none == nil {
		t.Errorf("Write with both hosts' ends gone = %v, then %v; want an error wrapping ErrPeerDead, then an error", err, none)
	}
	if a, b := m.Down(); !a || !b {
		t.Errorf("down flags %v,%v; want both legs down", a, b)
	}
}

// TestMirrorReplaceLeg: a leg whose conn has ended comes back through
// a fresh client on a new conn, and Rebuild copies onto it the blocks
// written while it was down.
func TestMirrorReplaceLeg(t *testing.T) {
	cl, conns, va, _, m := mirrorSetup(t, 16, 2048)
	defer cl.Close()
	rebuilt, done := false, false
	cl.Env.Go("io", func(p *sim.Proc) {
		conns[0][2].Abandon()
		for b := 3; b <= 4; b++ {
			check(t, m.Write(p, b, pat(2048, byte(b))))
		}
		if a, b := m.Down(); !a || b {
			t.Errorf("down flags %v,%v after writes over an ended conn; want leg A down only", a, b)
		}
		if bytes.Equal(va.HostMem(cl)[3*2048:4*2048], pat(2048, 3)) {
			t.Error("the ended leg holds a write: the test did not fail it")
		}
		m.Replace(0, blk.Open(cl, va, 2, cl.Nodes[2].EP.Dial(p, 0, 0), 0))
		if a, _ := m.Down(); !a {
			t.Error("the replaced leg is up before Rebuild")
		}
		rebuilt, done = m.Rebuild(p), true
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !done || !rebuilt {
		t.Fatalf("Rebuild over the replaced leg: done %v, rebuilt %v; want both", done, rebuilt)
	}
	if a, b := m.Down(); a || b {
		t.Errorf("down flags %v,%v after Rebuild; want both legs up", a, b)
	}
	for b := 3; b <= 4; b++ {
		if !bytes.Equal(va.HostMem(cl)[b*2048:(b+1)*2048], pat(2048, byte(b))) {
			t.Errorf("host 0 lacks block %d after Rebuild", b)
		}
	}
}

// TestMirrorReplaceChecks: only a down leg can be replaced, and only by
// a client of the same geometry on the same host.
func TestMirrorReplaceChecks(t *testing.T) {
	cl, conns, va, vb, m := mirrorSetup(t, 16, 2048)
	defer cl.Close()
	rejects := func(what string, c *blk.Client) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Replace by %s not rejected", what)
			}
		}()
		m.Replace(0, c)
	}
	rejects("a client for an up leg", blk.Open(cl, va, 2, conns[2][0], 0))
	cl.Env.Go("io", func(p *sim.Proc) {
		conns[0][2].Abandon()
		check(t, m.Write(p, 3, pat(2048, 3))) // leg A goes down
	})
	cl.Env.RunUntil(30 * sim.Second)
	rejects("a client on another host", blk.Open(cl, vb, 2, conns[2][1], 0))
	rejects("a client of another geometry", blk.Open(cl, blk.NewVolume(cl, 0, 8, 2048, 1), 2, conns[2][0], 0))
	if a, _ := m.Down(); !a {
		t.Error("leg A is not down")
	}
}

func TestMirrorGeometryChecks(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(3)
	cl := cluster.New(cfg)
	conns := cl.FullMesh()
	va := blk.NewVolume(cl, 0, 8, 512, 1)
	vb := blk.NewVolume(cl, 1, 8, 1024, 1)
	a := blk.Open(cl, va, 2, conns[2][0], 0)
	b := blk.Open(cl, vb, 2, conns[2][1], 0)
	defer func() {
		if recover() == nil {
			t.Error("mismatched geometry not rejected")
		}
	}()
	blk.OpenMirror(a, b)
}
