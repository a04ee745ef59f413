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

// TestJournalSnapshot checks that Journal returns every incomplete
// issued operation — queued writes and pending reads — in issue order
// with the original descriptors, and empties once they complete.
func TestJournalSnapshot(t *testing.T) {
	cl := cluster.New(cluster.OneLink1G(2))
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	src := ep0.Alloc(64 * 1024)
	dst := ep1.Alloc(64 * 1024)
	done := false
	cl.Env.Go("app", func(p *sim.Proc) {
		h1 := must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: 32 * 1024, Kind: frame.OpWrite}))
		h2 := must(c01.Do(p, core.Op{Remote: dst + 32768, Local: src + 32768, Size: 4096, Kind: frame.OpRead}))
		h3 := must(c01.Do(p, core.Op{Remote: dst + 40960, Local: src + 40960, Size: 8, Kind: frame.OpWrite, Flags: frame.Notify}))
		j := c01.Journal()
		if len(j) != 3 {
			t.Fatalf("journal has %d ops, want 3: %+v", len(j), j)
		}
		if j[0].Kind != frame.OpWrite || j[0].Size != 32*1024 || j[0].Remote != dst {
			t.Errorf("journal[0] = %+v, want the 32 KiB write", j[0])
		}
		if j[1].Kind != frame.OpRead || j[1].Size != 4096 {
			t.Errorf("journal[1] = %+v, want the read", j[1])
		}
		if j[2].Flags != frame.Notify || j[2].Size != 8 {
			t.Errorf("journal[2] = %+v, want the notifying write", j[2])
		}
		h1.Wait(p)
		h2.Wait(p)
		h3.Wait(p)
		if j := c01.Journal(); len(j) != 0 {
			t.Errorf("journal after completion has %d ops, want 0", len(j))
		}
		done = true
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !done {
		t.Fatal("workload did not finish")
	}
}

// TestJournalOpsIsJournalLength samples a stream of 20 back-to-back
// 8 KiB writes every 5 µs: Health's JournalOps must be len(Journal()) at
// every sample, including while an op's frames are all sent and only
// their acknowledgement is outstanding.
func TestJournalOpsIsJournalLength(t *testing.T) {
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	const ops, n = 20, 8 << 10
	src, dst := cl.Nodes[0].EP.Alloc(ops*n), cl.Nodes[1].EP.Alloc(ops*n)
	done := false
	cl.Env.Go("writer", func(p *sim.Proc) {
		hs := make([]*core.Handle, ops)
		for i := range hs {
			off := uint64(i * n)
			hs[i] = must(c01.Do(p, core.Op{Remote: dst + off, Local: src + off, Size: n, Kind: frame.OpWrite}))
		}
		for _, h := range hs {
			h.Wait(p)
		}
		done = true
	})
	samples, busy, off := 0, 0, 0
	var sample func()
	sample = func() {
		if done {
			return
		}
		samples++
		got, want := c01.Health().JournalOps, len(c01.Journal())
		if want > 0 {
			busy++
		}
		if got != want {
			off++
		}
		cl.Env.Rearm(sim.Daemon(nil), 5*sim.Microsecond, sample)
	}
	sample()
	cl.Env.RunUntil(sim.Second)
	if !done || busy < 100 {
		t.Fatalf("staging: done=%v, %d of %d samples saw outstanding work", done, busy, samples)
	}
	if off != 0 {
		t.Errorf("Health().JournalOps != len(Journal()) in %d of %d samples", off, samples)
	}
}

// TestJournalAbandonReplayOnNewConn is the replay-onto-new-conn story a
// replicated service layer builds on: a backend dies mid-transfer, the
// parked connection's journal is snapshotted, the connection abandoned
// (so the condemned epoch can never rebirth and double-apply), and the
// journal replayed onto a healthy replica with translated addresses —
// landing every incomplete operation exactly once, byte-verified, on
// the survivor.
func TestJournalAbandonReplayOnNewConn(t *testing.T) {
	cfg := cluster.OneLink1G(3)
	cfg.Core.Reconnect = true
	cfg.Core.DeadInterval = 5 * sim.Millisecond
	cfg.Core.RTOMax = 2 * sim.Millisecond
	cl := cluster.New(cfg)
	ep0 := cl.Nodes[0].EP
	const n = 64 * 1024
	src := ep0.Alloc(2 * n)
	base1 := cl.Nodes[1].EP.Alloc(2 * n)
	base2 := cl.Nodes[2].EP.Alloc(2 * n)
	for i := uint64(0); i < 2*n; i++ {
		ep0.Mem()[src+i] = byte(i*7 + 3)
	}
	done := false
	cl.Env.Go("client", func(p *sim.Proc) {
		c1 := ep0.Dial(p, 1, 0)
		c2 := ep0.Dial(p, 2, 0)
		h1 := must(c1.Do(p, core.Op{Remote: base1, Local: src, Size: n, Kind: frame.OpWrite}))
		h2 := must(c1.Do(p, core.Op{Remote: base1 + n, Local: src + n, Size: n, Kind: frame.OpWrite}))
		cl.PauseNode(1) // backend dies with both writes in flight
		for c1.State() != core.Reconnecting && c1.Err() == nil {
			p.Sleep(sim.Millisecond)
		}
		if c1.State() != core.Reconnecting {
			t.Fatal("conn failed terminally instead of parking (Reconnect on)")
		}
		j := c1.Journal()
		if len(j) != 2 {
			t.Fatalf("journal has %d ops, want 2", len(j))
		}
		c1.Abandon()
		if c1.Err() == nil || c1.State() == core.Reconnecting {
			t.Fatalf("after Abandon: conn %v, err %v", c1.State(), c1.Err())
		}
		h1.Wait(p)
		h2.Wait(p)
		if !errors.Is(h1.Err(), core.ErrPeerDead) || !errors.Is(h2.Err(), core.ErrPeerDead) {
			t.Errorf("abandoned handles: err1=%v err2=%v, want ErrPeerDead", h1.Err(), h2.Err())
		}
		hs, err := replayOn(p, c2, j, base1, base2, 0)
		if err != nil {
			t.Fatalf("replayOn: %v", err)
		}
		for i, h := range hs {
			h.Wait(p)
			if h.Err() != nil {
				t.Errorf("replayed op %d failed: %v", i, h.Err())
			}
		}
		if !bytes.Equal(cl.Nodes[2].EP.Mem()[base2:base2+2*n], ep0.Mem()[src:src+2*n]) {
			t.Error("replica 2 bytes differ after replay")
		}
		c2.Close(p)
		done = true
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !done {
		t.Fatal("client did not finish")
	}
	if ep0.Stats.Abandons != 1 {
		t.Errorf("Abandons = %d, want 1", ep0.Stats.Abandons)
	}
	// The condemned epoch must never come back: resuming the dead
	// backend re-establishes nothing (the abandoned conn is terminal)
	// and replays nothing onto node 1.
	cl.ResumeNode(1)
	cl.Env.RunUntil(cl.Env.Now() + 100*sim.Millisecond)
	if ep0.Stats.Reconnects != 0 {
		t.Errorf("Reconnects = %d after resume, want 0 (epoch was condemned)", ep0.Stats.Reconnects)
	}
	if got := cl.Env.PendingEvents(); got != 0 {
		t.Errorf("PendingEvents = %d after teardown, want 0", got)
	}
}

// replayOn re-issues every operation in journal on the destination
// connection dst, translating remote addresses by (dstBase - srcBase):
// an operation that addressed srcBase+off on the dead peer addresses
// dstBase+off on the new one. Write payloads are re-read from local
// memory, so the caller's buffers must still hold the data (they do for
// any operation whose handle has not completed — the issue-time
// snapshot was taken from the same addresses). It returns the handles
// in journal order. Deadlines are not carried over — the journal
// entries already expired once; dl sets fresh ones (0 = none).
func replayOn(p *sim.Proc, dst *core.Conn, journal []core.Op, srcBase, dstBase uint64, dl sim.Time) ([]*core.Handle, error) {
	hs := make([]*core.Handle, 0, len(journal))
	for _, op := range journal {
		op.Remote = op.Remote - srcBase + dstBase
		op.Deadline = dl
		h, err := dst.Do(p, op)
		if err != nil {
			return hs, err
		}
		hs = append(hs, h)
	}
	return hs, nil
}
