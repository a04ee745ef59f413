package core_test

import (
	"bytes"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// TestAckReqLostFrameOrAck: the bit is a hint, not a mechanism anything
// depends on. Drop first the frame that carries it, then — once a copy
// got through — the ACK it solicits: the transfer still completes intact
// through the ordinary NACK/RTO repair, the retransmission repeats the
// bit, and the connection closes without leaving an event behind.
func TestAckReqLostFrameOrAck(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Core.Window = 4 // below AckEvery: every window-closing frame carries the bit
	cl, c01, _ := pairCluster(t, cfg)
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const n = 12 * 1444
	src, dst := ep0.Alloc(n), ep1.Alloc(n)
	fill(ep0.Mem()[src:src+n], 7)

	framesDropped, acksDropped, repeats := 0, 0, 0
	var lostSeq uint32
	solicited := false // an AckReq frame reached the wire: its ACK is the next one out
	cl.Nodes[0].NICs[0].OutPort().SetDropFilter(func(f *phys.Frame) bool {
		_, _, h, _, err := frame.Decode(f.Buf)
		if err != nil || !h.AckReq {
			return false
		}
		if framesDropped == 0 {
			framesDropped, lostSeq = 1, h.Seq
			return true
		}
		if h.Seq == lostSeq {
			repeats++ // the retransmission of the dropped frame still asks
		}
		solicited = true
		return false
	})
	cl.Nodes[1].NICs[0].OutPort().SetDropFilter(func(f *phys.Frame) bool {
		if typ, _ := decodeType(f); typ != frame.TypeAck || !solicited || acksDropped > 0 {
			return false
		}
		acksDropped++
		return true
	})

	done := false
	cl.Env.Go("xfer", func(p *sim.Proc) {
		c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite}).Wait(p)
		c01.Close(p)
		done = true
	})
	cl.Env.RunUntil(sim.Second)
	if !done {
		t.Fatal("transfer or close did not complete")
	}
	if framesDropped != 1 || acksDropped != 1 {
		t.Fatalf("dropped %d AckReq frames and %d solicited ACKs, want one of each", framesDropped, acksDropped)
	}
	if repeats == 0 {
		t.Error("the retransmission of the dropped frame did not carry AckReq")
	}
	if !bytes.Equal(ep1.Mem()[dst:dst+n], ep0.Mem()[src:src+n]) {
		t.Error("data corrupted")
	}
	st0, st1 := ep0.Stats, ep1.Stats
	if st0.Retransmissions == 0 {
		t.Error("no retransmission: the dropped frame was never repaired")
	}
	if st0.AckReqSent == 0 || st1.AckReqRecv == 0 {
		t.Errorf("AckReqSent %d, AckReqRecv %d: the bit never flowed", st0.AckReqSent, st1.AckReqRecv)
	}
	if pend := cl.Env.PendingEvents(); pend != 0 {
		t.Errorf("%d events still queued after Close", pend)
	}
}

// TestAckReqSilentAtDefaults pins "the degenerate case is the paper's
// protocol": at the default Config (Window 128 >= AckEvery 32, no
// congestion window) no frame carries the bit, whatever the traffic —
// bulk, small, backward-fenced, a Solicit forward fence, reads — and
// however much of it is lost and repaired across two rails.
func TestAckReqSilentAtDefaults(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Link.LossProb = 0.03
	cfg.Seed = 17
	cl, c01, c10 := pairCluster(t, cfg)
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const bulk, small, rd = 400 * 1444, 64, 8 << 10
	src0, dst1 := ep0.Alloc(bulk+small), ep1.Alloc(bulk+small)
	src1, dst0 := ep1.Alloc(bulk), ep0.Alloc(bulk)
	rdst := ep0.Alloc(rd)
	fill(ep0.Mem()[src0:src0+bulk+small], 2)
	fill(ep1.Mem()[src1:src1+bulk], 6)
	done := 0
	cl.Env.Go("fwd", func(p *sim.Proc) {
		w := func(off uint64, size int, flags frame.OpFlags) *core.Handle {
			return c01.MustDo(p, core.Op{Remote: dst1 + off, Local: src0 + off, Size: size, Kind: frame.OpWrite, Flags: flags})
		}
		hs := []*core.Handle{w(0, bulk, 0)}
		for i := 0; i < 16; i++ {
			hs = append(hs, w(bulk, small, 0))
		}
		hs = append(hs, w(bulk, small, frame.FenceBefore|frame.Notify))
		hs = append(hs, w(bulk, small, frame.FenceAfter|frame.Solicit))
		hs = append(hs, c01.MustDo(p, core.Op{Remote: dst1, Local: rdst, Size: rd, Kind: frame.OpRead}))
		for _, h := range hs {
			h.Wait(p)
		}
		done++
	})
	cl.Env.Go("back", func(p *sim.Proc) {
		c10.MustDo(p, core.Op{Remote: dst0, Local: src1, Size: bulk, Kind: frame.OpWrite}).Wait(p)
		done++
	})
	cl.Env.RunUntil(30 * sim.Second)
	if done != 2 {
		t.Fatalf("workload did not complete (%d/2 loops)", done)
	}
	if !bytes.Equal(ep1.Mem()[dst1:dst1+bulk+small], ep0.Mem()[src0:src0+bulk+small]) ||
		!bytes.Equal(ep0.Mem()[dst0:dst0+bulk], ep1.Mem()[src1:src1+bulk]) ||
		!bytes.Equal(ep0.Mem()[rdst:rdst+rd], ep0.Mem()[src0:src0+rd]) {
		t.Fatal("data corrupted")
	}
	for node, st := range []core.Stats{ep0.Stats, ep1.Stats} {
		if st.Retransmissions == 0 {
			t.Errorf("node %d repaired nothing: the loss case is vacuous", node)
		}
		if st.AckReqSent != 0 || st.AckReqRecv != 0 {
			t.Errorf("node %d: AckReqSent %d, AckReqRecv %d at the default Config, want 0 and 0",
				node, st.AckReqSent, st.AckReqRecv)
		}
	}
}
