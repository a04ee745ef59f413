// Service layer: a named service replicated over three backends, a
// client stub with session affinity, and a mid-run backend kill the
// stub absorbs by journaling the in-flight call and re-landing it —
// exactly once — on a surviving replica.
package main

import (
	"bytes"
	"fmt"

	"multiedge"
)

func main() {
	// Five nodes: client 0, backends 1-3, relay 4. The functional
	// options turn on the recovery layer (supervised redial) and
	// heartbeats so an idle connection notices a dead peer.
	cfg := multiedge.OneLink1G(5)
	cfg.Core.RTOMax = 2 * multiedge.Millisecond
	cfg.Core.MaxRetries = 3
	cl := multiedge.NewCluster(cfg,
		multiedge.WithReconnect(3),
		multiedge.WithHeartbeat(multiedge.Millisecond, 5*multiedge.Millisecond))
	defer cl.Close()

	// Register "kv": one 64-KiB region per replica, plus a relay for
	// clients whose direct path to a backend breaks.
	reg := multiedge.NewRegistry()
	svc, err := multiedge.Serve(reg, "kv", 1<<16,
		[]*multiedge.Endpoint{cl.Nodes[1].EP, cl.Nodes[2].EP, cl.Nodes[3].EP},
		multiedge.WithRelay(cl.Nodes[4].EP, 4))
	if err != nil {
		panic(err)
	}
	fmt.Printf("serving %q: %d replicas of %d bytes\n", svc.Name, svc.Replicas(), svc.Size)

	// A stub on node 0: affinity keeps each session token on one
	// replica; the budget bounds how long a call rides a broken path
	// before failing over.
	stub, err := multiedge.Connect(cl.Nodes[0].EP, reg, "kv",
		multiedge.WithBalancer(multiedge.NewAffinity(multiedge.NewRoundRobin())),
		multiedge.WithFailoverBudget(10*multiedge.Millisecond))
	if err != nil {
		panic(err)
	}

	ep0 := cl.Nodes[0].EP
	const n = 8192
	src, chk := ep0.Alloc(n), ep0.Alloc(n)
	for i := 0; i < n; i++ {
		ep0.Mem()[src+uint64(i)] = byte(i*7 + 1)
	}

	cl.Env.Go("client", func(p *multiedge.Proc) {
		// First call binds session token 1 to a backend.
		must(stub.Call(p, 1, multiedge.Op{
			Remote: 0, Local: src, Size: n, Kind: multiedge.OpWrite,
		}))
		bound := -1
		for b, calls := range stub.Stats.PerBackend {
			if calls > 0 {
				bound = b
			}
		}
		fmt.Printf("[%v] session 1 bound to backend %d (node %d)\n",
			cl.Env.Now(), bound, svc.Backends[bound].Node)

		// Kill the bound backend's node, then rewrite the region: the
		// call journals off the dead connection and lands on a
		// survivor.
		cl.PauseNode(svc.Backends[bound].Node)
		fmt.Printf("[%v] killed node %d\n", cl.Env.Now(), svc.Backends[bound].Node)
		must(stub.Call(p, 1, multiedge.Op{
			Remote: 0, Local: src, Size: n, Kind: multiedge.OpWrite,
		}))

		// Read it back from wherever session 1 lives now.
		must(stub.Call(p, 1, multiedge.Op{
			Remote: 0, Local: chk, Size: n, Kind: multiedge.OpRead,
		}))
		if !bytes.Equal(ep0.Mem()[chk:chk+n], ep0.Mem()[src:src+n]) {
			panic("read-back mismatch")
		}
		fmt.Printf("[%v] verified %d bytes after failover: failovers=%d condemned=%d journaled=%d eligible=%v\n",
			cl.Env.Now(), n, stub.Stats.Failovers, stub.Stats.BackendsCondemned,
			stub.Stats.JournaledOps, stub.EligibleBackends())
		stub.Close(p)
	})
	cl.Env.RunUntil(30 * multiedge.Second)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
