package bench

import (
	"fmt"
	"multiedge/internal/apps"
	"multiedge/internal/cluster"
	"multiedge/internal/sim"
	"strings"
)

// AppPoint is one application measurement within a figure.
type AppPoint struct {
	apps.Result
	SeqTime sim.Time // matching 1-node baseline
	Speedup float64
}

// FigureSpec describes one of the paper's application figures.
type FigureSpec struct {
	Figure     string
	Config     func(nodes int) cluster.Config
	NodeCounts []int
}

// AppFigures maps the paper's Figures 3-6 to their cluster setups
// (IPPS'07 §3-4): Fig 3 is 16 nodes on one 1-GBit/s link, Fig 4 is 4
// nodes on 10-GBit/s, Fig 5 adds the second link with strict ordering,
// Fig 6 relaxes the ordering.
func AppFigures() []FigureSpec {
	return []FigureSpec{
		{Figure: "3", Config: cluster.OneLink1G, NodeCounts: []int{1, 2, 4, 8, 16}},
		{Figure: "4", Config: cluster.OneLink10G, NodeCounts: []int{1, 2, 4}},
		{Figure: "5", Config: cluster.TwoLink1G, NodeCounts: []int{16}},
		{Figure: "6", Config: cluster.TwoLinkUnordered1G, NodeCounts: []int{16}},
	}
}

// RunApp executes one application at one scale on one configuration.
func RunApp(cfg cluster.Config, name string, size apps.Size) apps.Result {
	app := apps.Build(name, size, cfg.Nodes)
	res, sys := apps.Run(cfg, app)
	defer sys.Cl.Close() // the DSM service loops would pin the cluster
	if msg := app.Verify(sys); msg != "" {
		panic("bench: " + msg)
	}
	return res
}

// RunFigure produces all points of one application figure: every app in
// Table-1 order at every node count, with a shared sequential baseline
// for speedups. The baseline for every figure is the 1-node 1L-1G run
// (the paper's sequential execution).
func RunFigure(spec FigureSpec, size apps.Size) []AppPoint {
	var out []AppPoint
	for _, name := range apps.Names {
		seqCfg := cluster.OneLink1G(1)
		seq := RunApp(seqCfg, name, size)
		for _, n := range spec.NodeCounts {
			cfg := spec.Config(n)
			var res apps.Result
			if cfg.Name == seqCfg.Name && n == 1 {
				res = seq
			} else {
				res = RunApp(cfg, name, size)
			}
			out = append(out, AppPoint{
				Result:  res,
				SeqTime: seq.Elapsed,
				Speedup: apps.Speedup(seq.Elapsed, res.Elapsed),
			})
		}
	}
	return out
}

// Table1Row is one row of the paper's Table 1, measured on this
// reproduction's problem sizes.
type Table1Row struct {
	Name      string
	Problem   string
	SeqExec   sim.Time
	Footprint int // shared bytes
}

// ProblemDesc describes the reproduction's problem size for an app.
func ProblemDesc(name string, size apps.Size) string {
	if size != apps.SizeSmall {
		return "custom"
	}
	switch name {
	case "Barnes":
		return "4K particles, 3 steps"
	case "FFT":
		return "2^18 complex values"
	case "LU":
		return "512x512 matrix, 32x32 blocks"
	case "Radix":
		return "256K integers, radix 256"
	case "Raytrace":
		return "balls scene 256x256"
	case "Water-Nsquared":
		return "1K molecules, 2 steps"
	case "Water-Spatial":
		return "12K molecules, 16^3 cells"
	case "Water-SpatialFL":
		return "12K mols, 16^3 cells, fine locks"
	}
	return "?"
}

// RunTable1 measures the sequential execution time and footprint of
// every application (the reproduction's version of Table 1).
func RunTable1(size apps.Size) []Table1Row {
	var rows []Table1Row
	for _, name := range apps.Names {
		app := apps.Build(name, size, 1)
		res, sys := apps.Run(cluster.OneLink1G(1), app)
		sys.Cl.Close()
		rows = append(rows, Table1Row{
			Name:      name,
			Problem:   ProblemDesc(name, size),
			SeqExec:   res.Elapsed,
			Footprint: app.SharedBytes(),
		})
	}
	return rows
}

// ScalingPoint is one entry of the large-configuration experiment the
// paper's §6 calls for: application speedups beyond 16 nodes on flat
// and multi-switch fabrics.
type ScalingPoint struct {
	App     string
	Fabric  string
	Nodes   int
	Speedup float64
}

// RunScaling measures well-scaling applications at 8/16/32 nodes on the
// flat fabric and on a two-level tree (8 nodes per edge switch, 2-wide
// trunks: 4:1 oversubscription).
func RunScaling(size apps.Size) []ScalingPoint {
	appsToRun := []string{"Barnes", "Water-Nsquared", "Raytrace"}
	var out []ScalingPoint
	for _, name := range appsToRun {
		seq := RunApp(cluster.OneLink1G(1), name, size)
		for _, n := range []int{8, 16, 32} {
			flat := RunApp(cluster.OneLink1G(n), name, size)
			out = append(out, ScalingPoint{App: name, Fabric: "flat", Nodes: n,
				Speedup: apps.Speedup(seq.Elapsed, flat.Elapsed)})
			tree := RunApp(cluster.TreeOneLink1G(n, 8, 2), name, size)
			out = append(out, ScalingPoint{App: name, Fabric: "tree8x2", Nodes: n,
				Speedup: apps.Speedup(seq.Elapsed, tree.Elapsed)})
		}
	}
	return out
}

// RenderScaling renders the large-configuration experiment.
func RenderScaling(pts []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Scaling beyond the paper (16 -> 32 nodes, flat vs 4:1-oversubscribed tree)")
	fmt.Fprintf(&b, "%-16s %-8s %8s %8s %8s\n", "application", "fabric", "8", "16", "32")
	type key struct{ app, fab string }
	rows := map[key][3]float64{}
	idx := map[int]int{8: 0, 16: 1, 32: 2}
	order := []key{}
	for _, p := range pts {
		k := key{p.App, p.Fabric}
		if _, ok := rows[k]; !ok {
			order = append(order, k)
		}
		r := rows[k]
		r[idx[p.Nodes]] = p.Speedup
		rows[k] = r
	}
	for _, k := range order {
		r := rows[k]
		fmt.Fprintf(&b, "%-16s %-8s %8.2f %8.2f %8.2f\n", k.app, k.fab, r[0], r[1], r[2])
	}
	return b.String()
}
