package multiedge_test

import (
	"fmt"

	"multiedge"
)

// Example_quickstart reproduces the README flow: a remote write with a
// completion notification between two simulated nodes. The simulation
// is deterministic, so the timestamps are exact.
func Example_quickstart() {
	cl := multiedge.NewCluster(multiedge.OneLink1G(2))
	c01, c10 := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP

	msg := []byte("hello")
	src := ep0.Alloc(len(msg))
	dst := ep1.Alloc(len(msg))
	copy(ep0.Mem()[src:], msg)

	cl.Env.Go("writer", func(p *multiedge.Proc) {
		h := must(c01.Do(p, multiedge.Op{Remote: dst, Local: src, Size: len(msg), Kind: multiedge.OpWrite, Flags: multiedge.Notify}))
		h.Wait(p)
	})
	cl.Env.Go("reader", func(p *multiedge.Proc) {
		n := c10.WaitNotify(p)
		fmt.Printf("[%v] node 1 received %q from node %d\n",
			cl.Env.Now(), ep1.Mem()[n.Addr:n.Addr+uint64(n.Len)], n.From)
	})
	cl.Env.Run()
	// Output:
	// [60.488us] node 1 received "hello" from node 0
}

// Example_fences shows the paper's ordering API: bulk data striped over
// two links reorders freely, while a backward-fenced flag write is
// performed only after everything issued before it.
func Example_fences() {
	cl := multiedge.NewCluster(multiedge.TwoLinkUnordered1G(2))
	c01, c10 := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP

	const n = 64 * 1024
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)
	flag := ep1.Alloc(1)
	for i := 0; i < n; i++ {
		ep0.Mem()[src+uint64(i)] = byte(i)
	}

	cl.Env.Go("sender", func(p *multiedge.Proc) {
		must(c01.Do(p, multiedge.Op{Remote: dst, Local: src, Size: n, Kind: multiedge.OpWrite}))
		must(c01.Do(p, multiedge.Op{Remote: flag, Local: src, Size: 1, Kind: multiedge.OpWrite, Flags: multiedge.FenceBefore | multiedge.Notify}))
	})
	cl.Env.Go("receiver", func(p *multiedge.Proc) {
		c10.WaitNotify(p)
		complete := true
		for i := 0; i < n; i++ {
			if ep1.Mem()[dst+uint64(i)] != byte(i) {
				complete = false
			}
		}
		fmt.Printf("fenced flag arrived with all %d bytes in place: %v\n", n, complete)
	})
	cl.Env.Run()
	// Output:
	// fenced flag arrived with all 65536 bytes in place: true
}

// Example_blockstore shows the storage domain: a passive volume host,
// a fenced commit record, and a read-back over a second connection.
func Example_blockstore() {
	cl := multiedge.NewCluster(multiedge.TwoLinkUnordered1G(3))
	conns := cl.FullMesh()
	vol := multiedge.NewVolume(cl, 0, 64, 4096, 2)

	writer := multiedge.OpenVolume(cl, vol, 1, conns[1][0], 0)
	reader := multiedge.OpenVolume(cl, vol, 2, conns[2][0], 1)

	var wrote multiedge.Signal
	cl.Env.Go("writer", func(p *multiedge.Proc) {
		block := make([]byte, 4096)
		copy(block, "hello, block 7")
		if err := writer.Write(p, 7, block); err != nil {
			fmt.Println(err)
			return
		}
		wrote.Fire(cl.Env)
	})
	cl.Env.Go("reader", func(p *multiedge.Proc) {
		p.Wait(&wrote)
		seq, block, err := reader.ReadCommit(p, 0)
		got := make([]byte, 4096)
		if err == nil {
			err = reader.Read(p, block, got)
		}
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("commit #%d covers block %d: %q\n", seq, block, got[:14])
	})
	cl.Env.Run()
	// Output:
	// commit #1 covers block 7: "hello, block 7"
}

// Example_hybridRails demonstrates heterogeneous rails: a 1-GbE rail
// next to a 10-GbE rail with least-backlog (adaptive) striping, the
// incremental-upgrade scenario edge-based scaling invites.
func Example_hybridRails() {
	run := func(adaptive bool) float64 {
		cfg := multiedge.HybridRails(2)
		cfg.Core.AdaptiveStripe = adaptive
		cl := multiedge.NewCluster(cfg)
		c01, _ := cl.Pair()
		ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
		const n, ops = 1 << 20, 8
		src, dst := ep0.Alloc(n), ep1.Alloc(n)
		var start, end multiedge.Time
		cl.Env.Go("xfer", func(p *multiedge.Proc) {
			start = cl.Env.Now()
			hs := make([]*multiedge.Handle, ops)
			for i := range hs {
				// Back-to-back writes so initiation copies overlap the wire.
				hs[i] = must(c01.Do(p, multiedge.Op{Remote: dst, Local: src, Size: n, Kind: multiedge.OpWrite}))
			}
			for _, h := range hs {
				h.Wait(p)
			}
			end = cl.Env.Now()
		})
		cl.Env.Run()
		return float64(n*ops) / 1e6 / (end - start).Seconds()
	}
	fmt.Printf("round-robin striping:    %.0f MB/s (paced by the 1-GbE rail)\n", run(false))
	fmt.Printf("least-backlog striping: %.0f MB/s (both rails full)\n", run(true))
	// Output:
	// round-robin striping:    229 MB/s (paced by the 1-GbE rail)
	// least-backlog striping: 1064 MB/s (both rails full)
}
