// Quickstart: a two-node MultiEdge cluster, one remote write with a
// completion notification — the smallest end-to-end use of the API.
package main

import (
	"fmt"

	"multiedge"
)

func main() {
	// Build the paper's 1L-1G configuration with two nodes.
	cl := multiedge.NewCluster(multiedge.OneLink1G(2))
	defer cl.Close()

	// Establish a connection between node 0 and node 1.
	c01, c10 := cl.Pair()

	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	msg := []byte("hello over raw Ethernet frames")
	src := ep0.Alloc(len(msg))
	dst := ep1.Alloc(len(msg))
	copy(ep0.Mem()[src:], msg)

	// Node 0: write the buffer into node 1's memory and ask for a
	// remote notification; wait until every frame is acknowledged. Do
	// returns an error for invalid ranges or a closed connection —
	// MustDo is the panicking shorthand when the caller guarantees both.
	cl.Env.Go("writer", func(p *multiedge.Proc) {
		h, err := c01.Do(p, multiedge.Op{
			Remote: dst, Local: src, Size: len(msg),
			Kind: multiedge.OpWrite, Flags: multiedge.Notify,
		})
		if err != nil {
			panic(err)
		}
		h.Wait(p)
		fmt.Printf("[%v] writer: operation %d acknowledged end-to-end\n", cl.Env.Now(), h.OpID())
	})

	// Node 1: block until the notification says the data has been
	// performed, then read it straight out of local memory.
	cl.Env.Go("reader", func(p *multiedge.Proc) {
		n := c10.WaitNotify(p)
		data := ep1.Mem()[n.Addr : n.Addr+uint64(n.Len)]
		fmt.Printf("[%v] reader: %d bytes from node %d: %q\n", cl.Env.Now(), n.Len, n.From, data)
	})

	cl.Env.Run()

	st := ep0.Stats
	fmt.Printf("protocol: %d data frames, %d explicit ACKs, %d retransmissions\n",
		st.DataFramesSent, cl.Nodes[1].EP.Stats.CtrlAcksSent, st.Retransmissions)
}
