// MPI-style message passing over MultiEdge: the paper's §1 thesis is
// that one edge-based interconnect can serve multiple application
// domains; this example runs a message-passing program (numerical
// integration of pi with Allreduce, plus an Alltoall exchange) on the
// same transport the DSM examples use.
package main

import (
	"fmt"

	"multiedge"
)

const (
	ranks     = 8
	intervals = 1 << 20
)

func main() {
	cfg := multiedge.TwoLinkUnordered1G(ranks)
	cfg.Core.MemBytes = 32 << 20
	cl := multiedge.NewCluster(cfg)
	defer cl.Close()
	comms := multiedge.NewComms(cl, cl.FullMesh())

	for _, c := range comms {
		c := c
		cl.Env.Go(fmt.Sprintf("rank%d", c.Rank()), func(p *multiedge.Proc) {
			// Each rank integrates its strip of 4/(1+x^2) over [0,1).
			var local float64
			for i := c.Rank(); i < intervals; i += c.Size() {
				x := (float64(i) + 0.5) / intervals
				local += 4 / (1 + x*x)
			}
			local /= intervals

			pi := c.Allreduce(p, []float64{local})[0]
			c.Barrier(p)
			if c.Rank() == 0 {
				fmt.Printf("[%v] pi = %.12f (%d ranks, %d intervals)\n",
					cl.Env.Now(), pi, c.Size(), intervals)
			}

			// Personalized all-to-all: rank r sends "r->j" to rank j.
			send := make([][]byte, c.Size())
			for j := range send {
				send[j] = []byte(fmt.Sprintf("%d->%d", c.Rank(), j))
			}
			recv := c.Alltoall(p, send)
			if c.Rank() == 3 {
				fmt.Printf("[%v] rank 3 received:", cl.Env.Now())
				for j, b := range recv {
					_ = j
					fmt.Printf(" %s", b)
				}
				fmt.Println()
			}
			c.Barrier(p)
		})
	}
	cl.Env.Run()

	var eager, rndv, stalls uint64
	for _, c := range comms {
		eager += c.Stats.EagerSent
		rndv += c.Stats.RndvSent
		stalls += c.Stats.SendStalls
	}
	fmt.Printf("messages: %d eager, %d rendezvous, %d credit stalls\n", eager, rndv, stalls)
}
