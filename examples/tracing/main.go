// Tracing: the frame-level analysis behind the paper's network-traffic
// results. A striped transfer over two lossy links is traced at both
// endpoints; the run prints per-kind event counts, a bucketed timeline,
// a sampled throughput series, and operation progress polling.
package main

import (
	"fmt"

	"multiedge"
	"multiedge/internal/trace"
)

func main() {
	cfg := multiedge.TwoLinkUnordered1G(2)
	cfg.Link.LossProb = 0.02
	cl := multiedge.NewCluster(cfg)
	defer cl.Close()
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP

	tr := trace.New(cl.Env, 1<<16)
	ep1.SetTrace(tr)
	ep0.SetTrace(trace.New(cl.Env, 1<<16))

	const n = 2 << 20
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)

	// Sample receive throughput (MB/s) every 250 us for 15 ms.
	var lastBytes uint64
	sampler := trace.NewSampler(cl.Env, 250*multiedge.Microsecond, 15*multiedge.Millisecond,
		func() float64 {
			b := ep1.Stats.DataBytesRecv
			mbps := float64(b-lastBytes) / 1e6 / (250 * multiedge.Microsecond).Seconds()
			lastBytes = b
			return mbps
		})

	cl.Env.Go("xfer", func(p *multiedge.Proc) {
		h := c01.MustDo(p, multiedge.Op{Remote: dst, Local: src, Size: n, Kind: multiedge.OpWrite})
		for !h.Test() {
			done, total := h.Progress()
			fmt.Printf("[%v] progress %d/%d bytes acknowledged\n", cl.Env.Now(), done, total)
			p.Sleep(3 * multiedge.Millisecond)
		}
	})
	cl.Env.Run()

	fmt.Println()
	fmt.Print("receiver ", tr.Summary())
	fmt.Println("\nreceiver timeline (2 ms buckets):")
	fmt.Print(tr.Timeline(2 * multiedge.Millisecond))
	fmt.Println("\nreceive throughput over time (MB/s):")
	fmt.Print(sampler.S.Render(64, 6))
}
