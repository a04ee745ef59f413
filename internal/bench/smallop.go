package bench

import (
	"fmt"
	"strings"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// Small-operation throughput: the workload the submission-queue path
// exists for. Millions of tiny one-way writes pay the full per-op host
// issue cost (syscall + descriptor + copy) on the eager path; the SQ
// path posts descriptors cheaply, charges one doorbell per batch and
// coalesces the writes into shared MultiData frames, so both the host
// issue cost and the per-frame protocol/wire overhead amortize.

// SmallOpResult is one small-op throughput measurement.
type SmallOpResult struct {
	Config string
	Size   int // bytes per operation
	Count  int // operations measured
	Batch  int // ops per doorbell; 0 = eager per-op issue
	MOpsS  float64
	GoodMB float64 // payload goodput, MB/s
	// Issue-to-drain latency of one doorbell batch (or, on the eager
	// side, one lane group of 64 writes): one sample per batch.
	P50Us, P95Us, P99Us float64
	// Protocol evidence.
	Doorbells       uint64
	CoalescedFrames uint64
	DataFrames      uint64
}

func (r SmallOpResult) String() string {
	mode := "eager"
	if r.Batch > 0 {
		mode = fmt.Sprintf("sq/batch=%d", r.Batch)
	}
	return fmt.Sprintf("%-7s %-12s %4dB x%-6d  %6.3f Mops/s  %7.1f MB/s  doorbells=%d coalesced-frames=%d data-frames=%d",
		r.Config, mode, r.Size, r.Count, r.MOpsS, r.GoodMB, r.Doorbells, r.CoalescedFrames, r.DataFrames)
}

// tailSolicit marks the last operation of a batch Solicit so batch
// completion costs one round trip instead of an AckDelay, in both
// modes (the same idiom the block-storage mirror uses for commits).
func tailSolicit(i, n int) frame.OpFlags {
	if i == n-1 {
		return frame.Solicit
	}
	return 0
}

// postBatch posts writes of slots 0..n-1 through the submission queue,
// the last one solicited, rings the doorbell once and drains the n
// completions.
func postBatch(p *sim.Proc, c *core.Conn, sl slots, n int) {
	for i := 0; i < n; i++ {
		c.MustPost(sl.op(i, frame.OpWrite, tailSolicit(i, n)))
	}
	c.MustRing(p)
	for i := 0; i < n; i++ {
		c.WaitCQ(p)
	}
}

// mustRun issues op on c and waits for it through Conn.Run, which
// allocates nothing. An error panics: a caller's ops must complete.
func mustRun(p *sim.Proc, c *core.Conn, op core.Op) {
	if err := c.Run(p, op); err != nil {
		panic(err)
	}
}

// RunSmallOps measures one-way small-write throughput on cfg. batch = 0
// issues every operation eagerly (Do); batch > 0 routes them through
// the submission queue, ringing the doorbell every batch posts and
// draining the completion queue per batch.
func RunSmallOps(cfg cluster.Config, size, count, batch int) SmallOpResult {
	if batch > 0 {
		cfg.Core.CoalesceLimit = size
	}
	cl := cluster.New(cfg)
	defer cl.Close()
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	lanes := batch
	if lanes <= 0 {
		lanes = 64 // eager pipelining depth, matched to the SQ batch
	}
	sl := newSlots(ep0, ep1, lanes, size)

	var start, end sim.Time
	var prev, net cluster.NetReport
	var lat LatencyRecorder
	cl.Env.Go("smallops", func(p *sim.Proc) {
		// Warm up the path.
		mustRun(p, c01, sl.op(0, frame.OpWrite, 0))
		start = cl.Env.Now()
		prev = cl.Collect()
		hs := make([]*core.Handle, 0, lanes)
		for done := 0; done < count; {
			n := min(lanes, count-done)
			t0 := cl.Env.Now()
			if batch > 0 {
				postBatch(p, c01, sl, n)
			} else {
				for i := 0; i < n; i++ {
					hs = append(hs, c01.MustDo(p, sl.op(i, frame.OpWrite, tailSolicit(i, n))))
				}
				for _, h := range hs {
					h.Wait(p)
				}
				hs = hs[:0]
			}
			lat.Record(cl.Env.Now() - t0)
			done += n
		}
		end = cl.Env.Now()
		net = cl.Collect().Sub(prev)
	})
	cl.Env.RunUntil(600 * sim.Second)
	r := SmallOpResult{Config: cfg.Name, Size: size, Count: count, Batch: batch,
		P50Us: lat.Percentile(50).Micros(), P95Us: lat.Percentile(95).Micros(), P99Us: lat.Percentile(99).Micros()}
	if elapsed := end - start; elapsed > 0 {
		r.MOpsS = float64(count) / 1e6 / elapsed.Seconds()
		r.GoodMB = float64(size*count) / 1e6 / elapsed.Seconds()
	}
	r.Doorbells = ep0.Stats.Doorbells
	r.CoalescedFrames = ep0.Stats.CoalescedFrames
	r.DataFrames = net.Proto.DataFramesSent
	return r
}

// RenderSmallOps prints the eager-versus-batched small-op comparison on
// the paper's 1L-10G configuration (the setup where host issue cost,
// not the wire, bounds small-message rate). The results slice carries
// one entry per run for bench-trajectory output.
func RenderSmallOps(count int) (string, []SmallOpResult) {
	var b strings.Builder
	var results []SmallOpResult
	fmt.Fprintf(&b, "Small-operation throughput, 1L-10G, %d one-way writes per run\n", count)
	fmt.Fprintf(&b, "(batched = submission queue + doorbell batching + frame coalescing)\n\n")
	for _, size := range []int{16, 64, 256} {
		eager := RunSmallOps(cluster.OneLink10G(2), size, count, 0)
		sq := RunSmallOps(cluster.OneLink10G(2), size, count, 64)
		results = append(results, eager, sq)
		fmt.Fprintf(&b, "  %s\n  %s\n", eager, sq)
		if eager.MOpsS > 0 {
			fmt.Fprintf(&b, "  -> %.2fx op rate\n\n", sq.MOpsS/eager.MOpsS)
		}
	}
	return b.String(), results
}
