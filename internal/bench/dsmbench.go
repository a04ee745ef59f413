package bench

import (
	"fmt"
	"strings"

	"multiedge/internal/cluster"
	"multiedge/internal/dsm"
	"multiedge/internal/sim"
)

// DSM primitive benchmarks: the building blocks of the paper's
// application results measured in isolation.

// DSMResult is one DSM primitive measurement.
type DSMResult struct {
	Name      string
	Nodes     int
	LatencyUs float64
}

func buildDSM(cfg cluster.Config, shared int) (*cluster.Cluster, *dsm.System) {
	cfg.Core.MemBytes = shared + (16 << 20)
	cl := cluster.New(cfg)
	sys := dsm.New(cl, cl.FullMesh(), dsm.Config{SharedBytes: shared})
	return cl, sys
}

// RunPageFetch measures the cold remote page-fetch latency.
func RunPageFetch(cfg cluster.Config) DSMResult {
	cfg.Nodes = 2
	cl, sys := buildDSM(cfg, 1<<20)
	defer cl.Close()
	addr := sys.AllocAt(64*dsm.PageSize, 1) // homed at node 1
	const iters = 32
	var total sim.Time
	cl.Env.Go("reader", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			t0 := cl.Env.Now()
			sys.Insts[0].RSlice(p, addr+uint64(i*dsm.PageSize), 8)
			total += cl.Env.Now() - t0
		}
	})
	cl.Env.RunUntil(60 * sim.Second)
	return DSMResult{Name: "page-fetch", Nodes: 2, LatencyUs: total.Micros() / iters}
}

// RunLockHandoff measures lock transfer latency between two contending
// nodes (acquire at one node while the other just released).
func RunLockHandoff(cfg cluster.Config) DSMResult {
	cfg.Nodes = 3 // manager on a third node: full message path
	cl, sys := buildDSM(cfg, 1<<20)
	defer cl.Close()
	const iters = 40
	var start, end sim.Time
	for idx, in := range sys.Insts[:2] {
		idx, in := idx, in
		cl.Env.Go(fmt.Sprintf("w%d", idx), func(p *sim.Proc) {
			in.Barrier(p)
			if idx == 0 {
				start = cl.Env.Now()
			}
			for i := 0; i < iters; i++ {
				in.Acquire(p, 2) // homed at node 2
				in.Release(p, 2)
			}
			if idx == 0 {
				end = cl.Env.Now()
			}
			in.Barrier(p)
		})
	}
	cl.Env.Go("idle", func(p *sim.Proc) {
		sys.Insts[2].Barrier(p)
		sys.Insts[2].Barrier(p)
	})
	cl.Env.RunUntil(60 * sim.Second)
	return DSMResult{Name: "lock-handoff", Nodes: 3, LatencyUs: (end - start).Micros() / (2 * iters)}
}

// RunDSMBarrier measures barrier latency at a node count.
func RunDSMBarrier(cfg cluster.Config, nodes int) DSMResult {
	cfg.Nodes = nodes
	cl, sys := buildDSM(cfg, 1<<20)
	defer cl.Close()
	const iters = 25
	var start, end sim.Time
	done := 0
	for _, in := range sys.Insts {
		in := in
		cl.Env.Go(fmt.Sprintf("b%d", in.Node()), func(p *sim.Proc) {
			in.Barrier(p)
			if in.Node() == 0 {
				start = cl.Env.Now()
			}
			for i := 0; i < iters; i++ {
				in.Barrier(p)
			}
			done++
			if t := cl.Env.Now(); t > end {
				end = t
			}
		})
	}
	cl.Env.RunUntil(60 * sim.Second)
	r := DSMResult{Name: "barrier", Nodes: nodes}
	if done == nodes {
		r.LatencyUs = (end - start).Micros() / iters
	}
	return r
}

// RenderDSM renders the DSM primitive costs.
func RenderDSM() string {
	var b strings.Builder
	fmt.Fprintln(&b, "DSM primitive costs (1L-1G)")
	pf := RunPageFetch(cluster.OneLink1G(2))
	fmt.Fprintf(&b, "  cold page fetch (4 KB):    %8.1f us\n", pf.LatencyUs)
	lh := RunLockHandoff(cluster.OneLink1G(3))
	fmt.Fprintf(&b, "  lock acquire+release:      %8.1f us (remote manager, contended)\n", lh.LatencyUs)
	fmt.Fprintln(&b, "  barrier latency vs nodes:")
	for _, n := range []int{2, 4, 8, 16} {
		r := RunDSMBarrier(cluster.OneLink1G(n), n)
		fmt.Fprintf(&b, "    %2d nodes: %8.1f us\n", n, r.LatencyUs)
	}
	return b.String()
}
