// Failures: MultiEdge's end-to-end reliability under transient loss
// (IPPS'07 §2.4) and under hard link failure. First, bulk transfers
// cross links that randomly drop frames; the receiver's NACKs and the
// sender's coarse retransmission timeout repair every gap, and the
// delivered bytes are verified identical. Then a cable is pulled
// outright mid-transfer: the sender's dead-link detection sheds the
// rail, the transfer continues at the survivor's speed, and when the
// cable is plugged back in a probe re-admits the rail.
package main

import (
	"bytes"
	"fmt"

	"multiedge"
)

func main() {
	for _, loss := range []float64{0, 0.01, 0.05, 0.15} {
		run(loss)
	}
	fmt.Println()
	hardFailure()
}

// hardFailure pulls one of the two rails 5 ms into a 32 MiB transfer
// and plugs it back in at 100 ms.
func hardFailure() {
	cfg := multiedge.TwoLinkUnordered1G(2)
	cfg.Core.MemBytes = 64 << 20
	cl := multiedge.NewCluster(cfg)
	defer cl.Close()
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP

	const n = 32 << 20
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)
	for i := 0; i < n; i++ {
		ep0.Mem()[src+uint64(i)] = byte(i*13 + 7)
	}

	cl.Env.At(5*multiedge.Millisecond, func() {
		fmt.Printf("[%v] rail 1 cable pulled\n", cl.Env.Now())
		cl.FailLink(0, 1)
	})
	cl.Env.At(100*multiedge.Millisecond, func() {
		fmt.Printf("[%v] rail 1 cable re-plugged\n", cl.Env.Now())
		cl.RestoreLink(0, 1)
	})

	var start, end multiedge.Time
	cl.Env.Go("sender", func(p *multiedge.Proc) {
		start = cl.Env.Now()
		c01.MustDo(p, multiedge.Op{Remote: dst, Local: src, Size: n, Kind: multiedge.OpWrite}).Wait(p)
		end = cl.Env.Now()
	})
	cl.Env.RunUntil(10 * multiedge.Second)

	st := ep0.Stats
	ok := bytes.Equal(ep1.Mem()[dst:dst+n], ep0.Mem()[src:src+n])
	verdict := "verified byte-identical"
	if !ok {
		verdict = "CORRUPTED"
	}
	fmt.Printf("hard failure: 32 MiB in %v  throughput %.1f MB/s  "+
		"link deaths %d  restores %d  -> %s\n",
		end-start, float64(n)/1e6/(end-start).Seconds(),
		st.LinkDeadEvents, st.LinkRestores, verdict)
}

func run(loss float64) {
	cfg := multiedge.TwoLinkUnordered1G(2)
	cfg.Link.LossProb = loss
	cfg.Seed = 42
	cl := multiedge.NewCluster(cfg)
	defer cl.Close()
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP

	const n = 1 << 20
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)
	for i := 0; i < n; i++ {
		ep0.Mem()[src+uint64(i)] = byte(i*7 + 3)
	}

	var start, end multiedge.Time
	done := false
	cl.Env.Go("sender", func(p *multiedge.Proc) {
		start = cl.Env.Now()
		c01.MustDo(p, multiedge.Op{Remote: dst, Local: src, Size: n, Kind: multiedge.OpWrite}).Wait(p)
		end = cl.Env.Now()
		done = true
	})
	cl.Env.RunUntil(120 * multiedge.Second)

	if !done {
		fmt.Printf("loss %5.1f%%: transfer did not complete (unexpected)\n", loss*100)
		return
	}
	ok := bytes.Equal(ep1.Mem()[dst:dst+n], ep0.Mem()[src:src+n])
	st0, st1 := ep0.Stats, ep1.Stats
	verdict := "verified byte-identical"
	if !ok {
		verdict = "CORRUPTED"
	}
	fmt.Printf("loss %5.1f%%: 1 MiB in %-10v  throughput %6.1f MB/s  "+
		"retransmissions %4d  NACKs %3d  duplicates %3d  -> %s\n",
		loss*100, end-start, float64(n)/1e6/(end-start).Seconds(),
		st0.Retransmissions, st1.CtrlNacksSent, st1.Duplicates, verdict)
}
