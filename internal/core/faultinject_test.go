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

// decodeType peeks a wire frame's MultiEdge type (panics on garbage:
// these tests only inject against frames this stack encoded).
func decodeType(f *phys.Frame) (frame.Type, uint32) {
	_, _, h, _, err := frame.Decode(f.Buf)
	if err != nil {
		return 0, 0
	}
	return h.Type, h.Seq
}

// xferOnce runs one n-byte write with a drop filter installed on node
// 0's NIC-0 uplink and returns whether it completed by the horizon and
// whether the data arrived intact.
func xferOnce(t *testing.T, n int, filter func(f *phys.Frame) bool,
	rxFilter func(f *phys.Frame) bool) (bool, bool, *cluster.Cluster) {
	t.Helper()
	cfg := cluster.OneLink1G(2)
	cl := cluster.New(cfg)
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)
	fill(ep0.Mem()[src:src+uint64(n)], 5)
	cl.Nodes[0].NICs[0].OutPort().SetDropFilter(filter)
	if rxFilter != nil {
		cl.Nodes[1].NICs[0].OutPort().SetDropFilter(rxFilter)
	}
	done := false
	cl.Env.Go("xfer", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		done = true
	})
	cl.Env.RunUntil(30 * sim.Second)
	intact := bytes.Equal(ep1.Mem()[dst:dst+uint64(n)], ep0.Mem()[src:src+uint64(n)])
	return done, intact, cl
}

// TestLossPositionSweep kills exactly one data frame at every position
// of a 64-frame transfer, one run per position: the ARQ must repair
// each one and deliver intact data. Random LossProb cannot pin "the
// loss was THIS frame"; the deterministic filter can.
func TestLossPositionSweep(t *testing.T) {
	const n = 64 * 1444 // exactly 64 full data frames
	for pos := 0; pos < 64; pos += 1 {
		pos := pos
		dataSeen := -1
		filter := func(f *phys.Frame) bool {
			typ, _ := decodeType(f)
			if typ != frame.TypeData {
				return false
			}
			dataSeen++
			return dataSeen == pos
		}
		done, intact, cl := xferOnce(t, n, filter, nil)
		if !done || !intact {
			t.Fatalf("loss at data position %d: done=%v intact=%v", pos, done, intact)
		}
		if r := cl.Nodes[0].EP.Stats.Retransmissions; r == 0 {
			t.Fatalf("loss at position %d: no retransmission recorded", pos)
		}
	}
}

// TestDoubleLossSamePosition kills a frame AND its first retransmission:
// repair of the repair must still converge.
func TestDoubleLossSamePosition(t *testing.T) {
	const n = 64 * 1444
	kills := 0
	var killSeq uint32
	filter := func(f *phys.Frame) bool {
		typ, seq := decodeType(f)
		if typ != frame.TypeData {
			return false
		}
		switch kills {
		case 0:
			if seq == 31 {
				killSeq = seq
				kills++
				return true
			}
		case 1:
			if seq == killSeq {
				kills++
				return true
			}
		}
		return false
	}
	done, intact, cl := xferOnce(t, n, filter, nil)
	if !done || !intact {
		t.Fatalf("double loss: done=%v intact=%v", done, intact)
	}
	if kills != 2 {
		t.Fatalf("injected %d losses, want 2", kills)
	}
	if r := cl.Nodes[0].EP.Stats.Retransmissions; r < 2 {
		t.Fatalf("retransmissions = %d, want >= 2", r)
	}
}

// TestNackLossRepaired kills the receiver's first NACK: the sender
// never hears about the gap, so repair must come from the re-armed NACK
// timer (or RTO) — not stall forever.
func TestNackLossRepaired(t *testing.T) {
	const n = 64 * 1444
	dataSeen := -1
	dropData := func(f *phys.Frame) bool {
		typ, _ := decodeType(f)
		if typ != frame.TypeData {
			return false
		}
		dataSeen++
		return dataSeen == 10
	}
	nacksKilled := 0
	dropNack := func(f *phys.Frame) bool {
		typ, _ := decodeType(f)
		if typ == frame.TypeNack && nacksKilled == 0 {
			nacksKilled++
			return true
		}
		return false
	}
	done, intact, cl := xferOnce(t, n, dropData, dropNack)
	if !done || !intact {
		t.Fatalf("NACK loss: done=%v intact=%v", done, intact)
	}
	if nacksKilled != 1 {
		t.Fatalf("no NACK was ever sent/killed")
	}
	if got := cl.Nodes[1].EP.Stats.CtrlNacksSent; got < 2 {
		t.Fatalf("receiver sent %d NACKs; the lost one was never re-sent", got)
	}
}

// TestAckLossTolerated kills every explicit ACK for the first 10 ms:
// piggy-backing is absent in a one-way run, so the sender must survive
// on RTO-driven duplicate/ACK convergence once ACKs flow again.
func TestAckLossTolerated(t *testing.T) {
	const n = 200 * 1444
	var cl *cluster.Cluster
	acksKilled := 0
	dropAck := func(f *phys.Frame) bool {
		typ, _ := decodeType(f)
		if typ == frame.TypeAck && cl != nil && cl.Env.Now() < 10*sim.Millisecond {
			acksKilled++
			return true
		}
		return false
	}
	cfg := cluster.OneLink1G(2)
	cl = cluster.New(cfg)
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)
	fill(ep0.Mem()[src:src+uint64(n)], 5)
	cl.Nodes[1].NICs[0].OutPort().SetDropFilter(dropAck)
	done := false
	cl.Env.Go("xfer", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		done = true
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !done {
		t.Fatal("transfer stalled under ACK loss")
	}
	if acksKilled == 0 {
		t.Fatal("no ACKs were killed; test exercised nothing")
	}
	if !bytes.Equal(ep1.Mem()[dst:dst+uint64(n)], ep0.Mem()[src:src+uint64(n)]) {
		t.Error("data corrupted")
	}
}

// TestProbeLossDelaysRestore repairs the cable but kills the first two
// probe frames (zero-size writes, recognizable by Total == 0): the rail
// must stay shed until a later probe survives, then be re-admitted
// exactly once.
func TestProbeLossDelaysRestore(t *testing.T) {
	const n = 24 << 20
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Core.MemBytes = 64 << 20
	cl := cluster.New(cfg)
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)
	fill(ep0.Mem()[src:src+uint64(n)], 9)

	cl.Env.At(2*sim.Millisecond, func() { cl.FailLink(0, 1) })
	cl.Env.At(25*sim.Millisecond, func() { cl.RestoreLink(0, 1) })
	probesKilled := 0
	var firstProbeAt, restoreProbeAt sim.Time
	cl.Nodes[0].NICs[1].OutPort().SetDropFilter(func(f *phys.Frame) bool {
		_, _, h, _, err := frame.Decode(f.Buf)
		if err != nil || h.Type != frame.TypeData || h.Total != 0 {
			return false
		}
		if probesKilled < 2 && cl.Env.Now() >= 25*sim.Millisecond {
			probesKilled++
			if probesKilled == 1 {
				firstProbeAt = cl.Env.Now()
			}
			return true
		}
		if restoreProbeAt == 0 && cl.Env.Now() >= 25*sim.Millisecond {
			restoreProbeAt = cl.Env.Now()
		}
		return false
	})

	done := false
	cl.Env.Go("xfer", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		done = true
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !done {
		t.Fatal("transfer did not complete")
	}
	st := cl.Nodes[0].EP.Stats
	if probesKilled != 2 {
		t.Fatalf("killed %d probes, want 2 (probing stopped retrying?)", probesKilled)
	}
	if st.LinkRestores != 1 {
		t.Fatalf("LinkRestores = %d, want exactly 1", st.LinkRestores)
	}
	if restoreProbeAt <= firstProbeAt {
		t.Fatalf("surviving probe at %v not after killed probe at %v", restoreProbeAt, firstProbeAt)
	}
	if !bytes.Equal(ep1.Mem()[dst:dst+uint64(n)], ep0.Mem()[src:src+uint64(n)]) {
		t.Error("data corrupted")
	}
}
