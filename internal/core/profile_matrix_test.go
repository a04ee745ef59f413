package core_test

import (
	"bytes"
	"strings"
	"testing"

	"multiedge/internal/chaos"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// matrixFaults are the fabric conditions every profile must survive
// (applied by matrixRun).
var matrixFaults = []string{"clean", "loss5", "dup3", "flap"}

// matrixProfiles are the configurations the protocol thread can be put
// in: its two scheduling paths, a configured class, what large endpoints
// actually run — and the ordering engine's degenerate predicate, strict
// sequence order. The last two keep the sender window-limited below
// AckEvery for the whole run (a congestion window in slow start, a small
// flow-control window), so frame.Header.AckReq meets every fault.
var matrixProfiles = []struct {
	name   string
	apply  func(*cluster.Config)
	ackReq bool // window-limited below AckEvery: the bit must flow
}{
	{name: "scan", apply: func(*cluster.Config) {}},
	{name: "strict", apply: func(c *cluster.Config) { c.Core.Strict = true }},
	{name: "queued", apply: func(c *cluster.Config) { c.Core.SchedQueue = true }},
	{name: "queued+class3", apply: func(c *cluster.Config) {
		c.Core.SchedQueue = true
		c.Core.QoS = []core.QoSClass{{Weight: 3}}
	}},
	{name: "production", apply: productionProfile},
	{name: "production+cwnd4", ackReq: true, apply: func(c *cluster.Config) {
		productionProfile(c)
		c.Core.CongestionControl.InitWindow = 4
	}},
	{name: "window8", ackReq: true, apply: func(c *cluster.Config) { c.Core.Window = 8 }},
}

// productionProfile is everything on, as the benchmark's fanin workload
// and the medbench stress modes configure a large endpoint.
func productionProfile(c *cluster.Config) {
	c.Core.SchedQueue = true
	c.Core.Reconnect = true
	c.Core.RTOMax = 64 * sim.Millisecond
	c.Core.CongestionControl = core.CCConfig{Enable: true}
}

// matrixResult is what two runs of one cell must agree on.
type matrixResult struct {
	rep cluster.NetReport
	end sim.Time // when the simulation drained
}

// matrixRun drives one byte-verified bidirectional workload over two
// rails. Forward: a striped multi-frame write with, right behind it and
// still in its shadow, a coalesced SQ batch (32 x 64 B posted writes,
// rung once, drained from the CQ) and a FenceBefore+Notify flag write on
// whose notification the receiver checks that the big write and all 32
// slots have already landed; then a read of what the big write landed.
// Backward: a run of small writes and a large one. It returns the
// traffic report with the drain time, and both nodes' allocated memory.
// fault is one of matrixFaults.
func matrixRun(t *testing.T, profile func(*cluster.Config), fault string) (matrixResult, [2][]byte) {
	t.Helper()
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Seed = 5
	cfg.Core.CoalesceLimit = 64
	profile(&cfg)
	if fault == "loss5" { // 5 % loss on both rails
		cfg.Link.LossProb = 0.05
	}
	cl, c01, c10 := pairCluster(t, cfg)
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	r := chaos.New(cl, 11)
	switch fault {
	case "dup3": // every 3rd frame on either rail arrives twice
		for l := 0; l < 2; l++ {
			r.DuplicateEveryNth(0, 0, 0, l, 3)
		}
	case "flap": // rail 1 dies mid-transfer and comes back
		r.FlapLink(cl.Env.Now()+500*sim.Microsecond, 2*sim.Millisecond, 0, 1)
	}

	const big, small, back, rd = 300 * 1444, 64, 16 << 10, 4 << 10
	src0, dst1 := ep0.Alloc(big+32*small), ep1.Alloc(big+32*small)
	src1, dst0 := ep1.Alloc(32*small+back), ep0.Alloc(32*small+back)
	rdst, flag := ep0.Alloc(rd), ep1.Alloc(8)
	fill(ep0.Mem()[src0:src0+big+32*small], 4)
	fill(ep1.Mem()[src1:src1+32*small+back], 9)
	done, fenceHeld := 0, false
	cl.Env.Go("fwd", func(p *sim.Proc) {
		bigW := must(c01.Do(p, core.Op{Remote: dst1, Local: src0, Size: big, Kind: frame.OpWrite}))
		for i := 0; i < 32; i++ {
			off := uint64(big + i*small)
			noErr(c01.Post(core.Op{Remote: dst1 + off, Local: src0 + off, Size: small, Kind: frame.OpWrite}))
		}
		must(c01.Ring(p))
		flagW := must(c01.Do(p, core.Op{Remote: flag, Local: src0, Size: 8, Kind: frame.OpWrite,
			Flags: frame.FenceBefore | frame.Notify}))
		bigW.Wait(p)
		for i := 0; i < 32; i++ {
			if comp := c01.WaitCQ(p); comp.Err != nil {
				t.Errorf("batch completion: %v", comp.Err)
			}
		}
		flagW.Wait(p)
		must(c01.Do(p, core.Op{Remote: dst1, Local: rdst, Size: rd, Kind: frame.OpRead})).Wait(p)
		done++
	})
	cl.Env.Go("flag", func(p *sim.Proc) {
		c10.WaitNotify(p)
		fenceHeld = bytes.Equal(ep1.Mem()[dst1:dst1+big+32*small], ep0.Mem()[src0:src0+big+32*small])
		done++
	})
	cl.Env.Go("back", func(p *sim.Proc) {
		var h *core.Handle
		for i := 0; i < 32; i++ {
			off := uint64(i * small)
			h = must(c10.Do(p, core.Op{Remote: dst0 + off, Local: src1 + off, Size: small, Kind: frame.OpWrite}))
			if i%8 == 7 {
				h.Wait(p)
			}
		}
		off := uint64(32 * small)
		must(c10.Do(p, core.Op{Remote: dst0 + off, Local: src1 + off, Size: back, Kind: frame.OpWrite})).Wait(p)
		done++
	})
	end := cl.Env.Run()
	if done != 3 {
		t.Fatalf("workload did not complete (%d/3 loops)", done)
	}
	if !fenceHeld {
		t.Fatal("flag notified before the big write and the 32 batch slots had landed")
	}
	if !bytes.Equal(ep1.Mem()[dst1:dst1+big+32*small], ep0.Mem()[src0:src0+big+32*small]) {
		t.Fatal("forward writes corrupted")
	}
	if !bytes.Equal(ep0.Mem()[dst0:dst0+32*small+back], ep1.Mem()[src1:src1+32*small+back]) {
		t.Fatal("reverse writes corrupted")
	}
	if !bytes.Equal(ep0.Mem()[rdst:rdst+rd], ep0.Mem()[src0:src0+rd]) {
		t.Fatal("read-back corrupted")
	}
	rep := cl.Collect()
	if bit := map[string]uint64{"clean": 1, "loss5": rep.LinkErrDrops,
		"dup3": rep.Proto.Duplicates, "flap": rep.LinkFailDrops}[fault]; bit == 0 {
		t.Fatalf("fault %q never touched a frame: the cell is vacuous", fault)
	}
	if rep.Proto.CoalescedSubOps != 32 {
		t.Fatalf("%d sub-ops coalesced, want the whole batch of 32", rep.Proto.CoalescedSubOps)
	}
	return matrixResult{rep, end}, [2][]byte{ep0.Mem()[:ep0.Alloc(0)], ep1.Mem()[:ep1.Alloc(0)]}
}

// withoutQos blanks the counters that exist only to say "QoS is
// configured", so a configured class can be compared with the implicit
// one.
func withoutQos(r matrixResult) matrixResult {
	r.rep.Proto.QosOpsAdmitted, r.rep.Proto.QosSchedFrames = 0, 0
	return r
}

// TestProfileFaultMatrix runs every profile under every fault: each
// transfer byte-verified, the fence witnessed, and two same-seed runs
// equal in traffic report and end time. Inside each fault it pins the
// identities that let one mechanism stand in for the deleted ones: the
// implicit class is a configured {Weight: 1} in all but its counters,
// and strict sequence order — a predicate of the same ordering engine —
// leaves both memories as the scan profile does.
func TestProfileFaultMatrix(t *testing.T) {
	for _, fault := range matrixFaults {
		fault := fault
		for _, pr := range matrixProfiles {
			pr := pr
			t.Run(pr.name+"/"+fault, func(t *testing.T) {
				r1, _ := matrixRun(t, pr.apply, fault)
				r2, _ := matrixRun(t, pr.apply, fault)
				if r1 != r2 {
					t.Fatalf("not deterministic: end %v vs %v, reports equal=%v", r1.end, r2.end, r1.rep == r2.rep)
				}
				if pr.ackReq && r1.rep.Proto.AckReqSent == 0 {
					t.Error("no frame carried AckReq: the row is vacuous")
				}
			})
		}
		t.Run("identities/"+fault, func(t *testing.T) {
			queued := func(c *cluster.Config) { c.Core.SchedQueue = true }
			ri, _ := matrixRun(t, queued, fault)
			rc, _ := matrixRun(t, func(c *cluster.Config) {
				queued(c)
				c.Core.QoS = []core.QoSClass{{Weight: 1}}
			}, fault)
			if rc.rep.Proto.QosSchedFrames == 0 {
				t.Error("configured class counted no scheduled frames: comparison is vacuous")
			}
			if withoutQos(rc) != ri {
				t.Errorf("implicit class differs from configured {Weight: 1}: end %v vs %v, reports equal=%v",
					ri.end, rc.end, withoutQos(rc).rep == ri.rep)
			}
			_, mem0 := matrixRun(t, func(*cluster.Config) {}, fault)
			rs, mems := matrixRun(t, func(c *cluster.Config) { c.Core.Strict = true }, fault)
			if rs.rep.Proto.HeldFrames == 0 {
				t.Error("strict order held no frame: comparison is vacuous")
			}
			for node := range mem0 {
				if !bytes.Equal(mem0[node], mems[node]) {
					t.Errorf("node %d memory differs between strict and scan", node)
				}
			}
		})
	}
}

// TestImplicitClassInvisible: SchedQueue with QoS empty runs on the
// class scheduler, but nothing observable says "QoS" — no Stats.Qos*
// counter moves and no qos_* series is registered.
func TestImplicitClassInvisible(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Core.SchedQueue = true
	cfg.Obs = cluster.ObsOptions{Metrics: true, SampleEvery: -1}
	cl, c01, _ := pairCluster(t, cfg)
	const n = 64 << 10
	src, dst := cl.Nodes[0].EP.Alloc(n), cl.Nodes[1].EP.Alloc(n)
	cl.Env.Go("app", func(p *sim.Proc) {
		c01.SetClass(2) // stored, ignored: no class table to index
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		for i := 0; i < 4; i++ {
			noErr(c01.Post(core.Op{Remote: dst, Local: src, Size: 256, Kind: frame.OpWrite, Class: 3}))
		}
		must(c01.Ring(p))
		drainCQ(p, c01, 4)
	})
	cl.Env.Run()
	st := cl.Collect().Proto
	if st.DataFramesSent == 0 {
		t.Fatal("no traffic: test is vacuous")
	}
	if st.QosOpsAdmitted|st.QosOpsThrottled|st.QosAdmissionWaits|st.QosRateDeferrals|st.QosSchedFrames != 0 {
		t.Errorf("Qos counters moved without QoS configured: %+v", st)
	}
	for _, s := range cl.Obs.Gather().Samples {
		if strings.HasPrefix(s.Name, "qos_") {
			t.Errorf("series %s registered without QoS configured", s.Name)
		}
	}
}

// TestHealthReportsClassQueueDepths: the scheduler depths in a health
// snapshot are the sums over the class queues, so a backlogged
// two-class endpoint reports them non-zero, and core_sched_queue_depth
// is their total.
func TestHealthReportsClassQueueDepths(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Core.SchedQueue = true
	cfg.Core.AckEvery = 1 // every data frame leaves the receiver control work
	cfg.Core.QoS = []core.QoSClass{{Weight: 1}, {Weight: 2}}
	cfg.Obs = cluster.ObsOptions{Metrics: true, SampleEvery: -1}
	cl := cluster.New(cfg)
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const conns, n = 8, 64 << 10
	for i := 0; i < conns; i++ {
		i := i
		cl.Env.Go("c", func(p *sim.Proc) {
			c := ep0.Dial(p, 1, 0)
			c.SetClass(i % 2)
			src, dst := ep0.Alloc(n), ep1.Alloc(n)
			must(c.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		})
	}
	maxCtrl, maxSend := 0, 0
	var watch func()
	watch = func() {
		for node, ep := range []*core.Endpoint{ep0, ep1} {
			h := ep.Health()
			maxCtrl, maxSend = max(maxCtrl, h.SchedCtrlQ), max(maxSend, h.SchedSendQ)
			g, _ := cl.Obs.Gather().Get("core_sched_queue_depth", obs.NodeLabel(node))
			if int(g) != h.SchedCtrlQ+h.SchedSendQ {
				t.Fatalf("core_sched_queue_depth = %v, health says %d+%d", g, h.SchedCtrlQ, h.SchedSendQ)
			}
		}
		cl.Env.Rearm(sim.Daemon(nil), 20*sim.Microsecond, watch)
	}
	cl.Env.Rearm(sim.Daemon(nil), 0, watch)
	cl.Env.Run()
	if maxSend == 0 || maxCtrl == 0 {
		t.Errorf("backlogged endpoint reported depths ctrl=%d send=%d, want both non-zero", maxCtrl, maxSend)
	}
}
