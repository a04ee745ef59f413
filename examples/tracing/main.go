// Tracing: the frame-level analysis behind the paper's network-traffic
// results. A striped transfer over two lossy links is recorded at both
// endpoints with the traffic view (obs.TrafficKinds); the run prints
// per-kind event counts on each side, the receiver's bucketed timeline, a
// sampled throughput series, and operation progress polling.
package main

import (
	"fmt"
	"strings"

	"multiedge"
	"multiedge/internal/obs"
)

func main() {
	cfg := multiedge.TwoLinkUnordered1G(2)
	cfg.Link.LossProb = 0.02
	cl := multiedge.NewCluster(cfg)
	defer cl.Close()
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP

	tx := obs.NewRecorder(0, 1<<16, obs.TrafficKinds)
	rx := obs.NewRecorder(1, 1<<16, obs.TrafficKinds)
	ep0.SetRecorder(tx)
	ep1.SetRecorder(rx)

	const n = 2 << 20
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)

	// Sample receive throughput (MB/s) every millisecond while the
	// transfer runs: sampler ticks never keep the run alive on their own.
	const every = multiedge.Millisecond
	var lastBytes uint64
	reg := obs.New(cl.Env)
	mbps := reg.Sample("rx_MBps", 1, nil, every, func() float64 {
		b := ep1.Stats.DataBytesRecv
		v := float64(b-lastBytes) / 1e6 / every.Seconds()
		lastBytes = b
		return v
	})

	cl.Env.Go("xfer", func(p *multiedge.Proc) {
		h := must(c01.Do(p, multiedge.Op{Remote: dst, Local: src, Size: n, Kind: multiedge.OpWrite}))
		for !h.Test() {
			done, total := h.Progress()
			fmt.Printf("[%v] progress %d/%d bytes acknowledged\n", cl.Env.Now(), done, total)
			p.Sleep(3 * multiedge.Millisecond)
		}
	})
	cl.Env.Run()
	reg.Quiesce()

	fmt.Println()
	fmt.Print("sender ", tx.Summary())
	fmt.Print("receiver ", rx.Summary())
	fmt.Println("\nreceiver timeline (2 ms buckets):")
	fmt.Print(rx.Timeline(2 * multiedge.Millisecond))
	fmt.Println("\nreceive throughput over time (MB/s, one # per 10):")
	for i, t := range mbps.Times {
		v := mbps.Values[i]
		fmt.Printf("%12v %7.1f %s\n", t, v, strings.Repeat("#", int(v/10)))
	}
}

// must returns the handle of an issued operation and panics if the
// issue failed: every operation here is valid.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
