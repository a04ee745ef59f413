// DSM grid: a shared-memory Jacobi heat-diffusion stencil over the
// GeNIMA-style DSM. Rows are block-distributed; each sweep reads the
// neighbour rows at the slab boundaries (remote page fetches) and the
// nodes meet at a barrier — the classic SDSM application shape.
package main

import (
	"fmt"

	"multiedge"
	"multiedge/internal/dsm"
)

const (
	nodes  = 4
	side   = 128 // grid side (side x side float64 cells)
	sweeps = 20
)

func main() {
	cfg := multiedge.OneLink1G(nodes)
	cfg.Core.MemBytes = 32 << 20
	cl := multiedge.NewCluster(cfg)
	defer cl.Close()
	sys := multiedge.NewDSM(cl, cl.FullMesh(), multiedge.DSMConfig{SharedBytes: 4 << 20})

	// Two grids (ping-pong), rows homed at their owners.
	gridA := sys.AllocOwned(8 * side * side)
	gridB := sys.AllocOwned(8 * side * side)

	// Hot edge at row 0.
	init := make([]byte, 8*side)
	for c := 0; c < side; c++ {
		dsm.SetF64(init, c, 100)
	}
	sys.WriteShared(gridA, init)
	sys.WriteShared(gridB, init)

	for _, in := range sys.Insts {
		in := in
		cl.Env.Go(fmt.Sprintf("worker-%d", in.Node()), func(p *multiedge.Proc) {
			lo := in.Node()*side/nodes + 1
			hi := (in.Node() + 1) * side / nodes
			if in.Node() == 0 {
				lo = 1 // row 0 is the fixed hot boundary
			}
			if in.Node() == nodes-1 {
				hi = side - 1
			}
			src, dst := gridA, gridB
			for s := 0; s < sweeps; s++ {
				// Read own rows plus one halo row on each side.
				first, last := lo-1, hi+1
				rd := in.RSlice(p, src+uint64(8*side*first), 8*side*(last-first))
				wr := in.WSlice(p, dst+uint64(8*side*lo), 8*side*(hi-lo))
				at := func(r, c int) float64 { return dsm.F64(rd, (r-first)*side+c) }
				for r := lo; r < hi; r++ {
					for c := 1; c < side-1; c++ {
						v := 0.25 * (at(r-1, c) + at(r+1, c) + at(r, c-1) + at(r, c+1))
						dsm.SetF64(wr, (r-lo)*side+c, v)
					}
				}
				in.Compute(p, multiedge.Time(5*(hi-lo)*side)*4*multiedge.Nanosecond)
				in.Barrier(p)
				src, dst = dst, src
			}
		})
	}
	cl.Env.Run()

	// The result of an even number of sweeps is in gridA.
	out := sys.ReadShared(gridA, 8*side*side)
	fmt.Printf("heat diffusion, %dx%d grid, %d sweeps on %d nodes (virtual time %v)\n",
		side, side, sweeps, nodes, cl.Env.Now())
	for _, r := range []int{0, 2, 8, 32, side - 1} {
		fmt.Printf("  row %3d: center temperature %6.2f\n", r, dsm.F64(out, r*side+side/2))
	}
	var st dsm.Stats
	for _, in := range sys.Insts {
		st.Add(in.Stats)
	}
	fmt.Printf("dsm: %d page fetches, %d diff writes, %d diff messages, %d barriers\n",
		st.Fetches, st.DiffOps, st.DiffMsgs, st.Barriers)
}
