// Striping: spatial parallelism over two 1-GBit/s links. A bulk
// transfer is striped frame-by-frame across both rails (IPPS'07 §2.5);
// the run shows the aggregated throughput, the out-of-order arrival
// fraction, and the backward/forward fence API ordering a control
// message behind the bulk data.
package main

import (
	"bytes"
	"fmt"

	"multiedge"
)

func main() {
	for _, ordered := range []bool{false, true} {
		run(ordered)
	}
}

func run(strict bool) {
	cfg := multiedge.TwoLinkUnordered1G(2)
	label := "2Lu-1G (out-of-order delivery)"
	if strict {
		cfg = multiedge.TwoLink1G(2)
		label = "2L-1G (strictly ordered)"
	}
	cl := multiedge.NewCluster(cfg)
	defer cl.Close()
	c01, c10 := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP

	const n = 2 << 20 // 2 MiB
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)
	flagAddr := ep1.Alloc(8)
	for i := 0; i < n; i++ {
		ep0.Mem()[src+uint64(i)] = byte(i * 31)
	}

	var start, end multiedge.Time
	cl.Env.Go("sender", func(p *multiedge.Proc) {
		start = cl.Env.Now()
		// Bulk data: free to be reordered across the two rails.
		h := must(c01.Do(p, multiedge.Op{Remote: dst, Local: src, Size: n, Kind: multiedge.OpWrite}))
		// The "done" flag must not be performed before the data: a
		// backward fence (and a notification for the receiver).
		must(c01.Do(p, multiedge.Op{Remote: flagAddr, Local: src, Size: 8, Kind: multiedge.OpWrite, Flags: multiedge.FenceBefore | multiedge.Notify}))
		h.Wait(p)
		end = cl.Env.Now()
	})
	var checked bool
	cl.Env.Go("receiver", func(p *multiedge.Proc) {
		c10.WaitNotify(p) // fenced: all 2 MiB are in place now
		checked = bytes.Equal(ep1.Mem()[dst:dst+n], ep0.Mem()[src:src+n])
	})
	cl.Env.Run()

	mbs := float64(n) / 1e6 / (end - start).Seconds()
	st := ep1.Stats
	fmt.Printf("%s\n", label)
	fmt.Printf("  throughput %7.1f MB/s over %d links (nominal 250)\n", mbs, c01.Links())
	fmt.Printf("  out-of-order arrivals %.0f%%, frames held for ordering: %d\n",
		st.OOOFraction()*100, st.HeldFrames)
	if checked {
		fmt.Printf("  fenced flag arrived after all data: contents verified\n\n")
	} else {
		fmt.Printf("  DATA MISMATCH\n\n")
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
