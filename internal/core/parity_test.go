package core_test

// Frozen golden for the Op API: the legacy positional RDMAOperation
// wrapper is gone (ISSUE 7 retired it), so the old legacy-vs-Op parity
// test became an Op-vs-golden test. The golden constants below were
// captured while the wrapper still existed, from a run where both
// surfaces produced bit-identical simulations; the Op path must keep
// reproducing them exactly — same virtual end time, same protocol
// statistics on both endpoints — even on lossy, reordering two-rail
// hardware. Any diff is a behaviour change in the issue path and must
// come with a deliberate golden update.

import (
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// parityOp is one step of the parity workload.
type parityOp struct {
	remote, local uint64
	size          int
	kind          frame.OpType
	flags         frame.OpFlags
	wait          bool
}

// parityWorkload mixes sizes, kinds and every flag across both rails.
func parityWorkload(src, dst uint64) []parityOp {
	return []parityOp{
		{dst, src, 64, frame.OpWrite, 0, false},
		{dst + 64, src, 9000, frame.OpWrite, frame.FenceAfter, false},
		{dst, src, 8, frame.OpWrite, frame.FenceBefore | frame.Notify, false},
		{dst + 64*1024, src + 128*1024, 4096, frame.OpRead, 0, true},
		{dst, src, 200 * 1024, frame.OpWrite, 0, false},
		{dst + 32, src, 0, frame.OpWrite, frame.Notify, false},
		{dst + 128, src, 1500, frame.OpWrite, frame.Solicit, true},
		{dst, src, 32 * 1024, frame.OpWrite, frame.FenceBefore | frame.FenceAfter, true},
	}
}

func runParity(t *testing.T) (sim.Time, core.Stats, core.Stats) {
	t.Helper()
	cfg := cluster.TwoLinkUnordered1G(0)
	cfg.Link.LossProb = 0.03
	cfg.Seed = 271
	cfg.Nodes = 2
	cl := cluster.New(cfg)
	c01, c10 := cl.Pair()
	const n = 256 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	for i := range cl.Nodes[0].EP.Mem()[src : src+n] {
		cl.Nodes[0].EP.Mem()[src+uint64(i)] = byte(i * 13)
	}
	cl.Env.Go("sender", func(p *sim.Proc) {
		var hs []*core.Handle
		for _, op := range parityWorkload(src, dst) {
			h := must(c01.Do(p, core.Op{Remote: op.remote, Local: op.local,
				Size: op.size, Kind: op.kind, Flags: op.flags}))
			if op.wait {
				h.Wait(p)
			} else {
				hs = append(hs, h)
			}
		}
		for _, h := range hs {
			h.Wait(p)
		}
	})
	cl.Env.Go("receiver", func(p *sim.Proc) {
		c10.WaitNotify(p)
		c10.WaitNotify(p)
	})
	end := cl.Env.RunUntil(30 * sim.Second)
	return end, cl.Nodes[0].EP.Stats, cl.Nodes[1].EP.Stats
}

// The frozen golden: virtual end time plus the behaviour-bearing
// counters of both endpoints, captured from the last run in which the
// Op path and the retired RDMAOperation wrapper agreed bit-for-bit.
//
// parityGoldenEnd alone was re-baselined with AckReq (ISSUE 20), from
// 5 177 126 ns: op 2 of the workload is a bare forward fence, whose last
// frame now asks for its acknowledgement instead of waiting out an
// AckDelay, and op 7 is a Solicit write that overtakes a predecessor on
// the other rail, which now gets a second prompt ACK when the straggler
// lands. The same frames and the same ACKs, sent earlier: every counter
// below is unchanged.
const (
	parityGoldenEnd = sim.Time(3785926)

	paritySenderOpsStarted   = 8
	paritySenderOpsCompleted = 8
	paritySenderFramesSent   = 178
	paritySenderBytesSent    = 248140
	paritySenderRetrans      = 14
	paritySenderCtrlAcks     = 0
	paritySenderCtrlNacks    = 0

	parityRecvFramesRecv  = 178
	parityRecvBytesRecv   = 248140
	parityRecvReadsServed = 1
	parityRecvNotifies    = 2
	parityRecvDuplicates  = 5
	parityRecvOOOArrivals = 64
	parityRecvCtrlNacks   = 11
)

func TestOpAPIParityGolden(t *testing.T) {
	end, a, b := runParity(t)
	check := func(what string, got, want uint64) {
		if got != want {
			t.Errorf("%s: got %d, golden %d", what, got, want)
		}
	}
	if end != parityGoldenEnd {
		t.Errorf("end time: got %v (%d), golden %d", end, int64(end), int64(parityGoldenEnd))
	}
	check("sender OpsStarted", a.OpsStarted, paritySenderOpsStarted)
	check("sender OpsCompleted", a.OpsCompleted, paritySenderOpsCompleted)
	check("sender DataFramesSent", a.DataFramesSent, paritySenderFramesSent)
	check("sender DataBytesSent", a.DataBytesSent, paritySenderBytesSent)
	check("sender Retransmissions", a.Retransmissions, paritySenderRetrans)
	check("sender CtrlAcksSent", a.CtrlAcksSent, paritySenderCtrlAcks)
	check("sender CtrlNacksSent", a.CtrlNacksSent, paritySenderCtrlNacks)
	check("receiver DataFramesRecv", b.DataFramesRecv, parityRecvFramesRecv)
	check("receiver DataBytesRecv", b.DataBytesRecv, parityRecvBytesRecv)
	check("receiver ReadsServed", b.ReadsServed, parityRecvReadsServed)
	check("receiver Notifies", b.Notifies, parityRecvNotifies)
	check("receiver Duplicates", b.Duplicates, parityRecvDuplicates)
	check("receiver OOOArrivals", b.OOOArrivals, parityRecvOOOArrivals)
	check("receiver CtrlNacksSent", b.CtrlNacksSent, parityRecvCtrlNacks)
	if t.Failed() {
		t.Logf("full sender stats: %+v", a)
		t.Logf("full receiver stats: %+v", b)
	}
}
