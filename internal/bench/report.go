package bench

import (
	"fmt"
	"strings"

	"multiedge/internal/cluster"
	"multiedge/internal/sim"
)

// Reporting: text renderings of every table and figure in the paper's
// evaluation, regenerated from this reproduction's measurements.

// RenderFig2 runs and renders one panel of Figure 2 for all four
// configurations: "a" latency, "b" throughput, "c" CPU utilization.
func RenderFig2(panel string, sizes []int) string {
	var b strings.Builder
	title := map[string]string{
		"a": "Figure 2(a): latency (us) — ping-pong one-way; one-/two-way initiation overhead",
		"b": "Figure 2(b): throughput (MBytes/s)",
		"c": "Figure 2(c): protocol CPU utilization (%, of 200%)",
	}[panel]
	fmt.Fprintln(&b, title)
	for _, bm := range Benchmarks {
		fmt.Fprintf(&b, "\n%s\n", bm)
		fmt.Fprintf(&b, "%10s", "size")
		for _, cfg := range Configs() {
			fmt.Fprintf(&b, "%10s", cfg.Name)
		}
		fmt.Fprintln(&b)
		for _, sz := range sizes {
			fmt.Fprintf(&b, "%10d", sz)
			for _, cfg := range Configs() {
				r := RunMicro(bm, cfg, sz)
				switch panel {
				case "a":
					fmt.Fprintf(&b, "%10.2f", r.LatencyUs)
				case "b":
					fmt.Fprintf(&b, "%10.1f", r.ThroughputMBs)
				case "c":
					fmt.Fprintf(&b, "%10.1f", r.CPUPct)
				}
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// RenderNetStats runs the micro-benchmarks at a large size and reports
// the paper's §4 network-level statistics: out-of-order fraction, extra
// traffic, and dropped frames.
func RenderNetStats(size int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Network-level statistics (micro-benchmarks, %d-byte operations)\n", size)
	fmt.Fprintf(&b, "%-8s %-10s %8s %8s %8s %8s %8s\n",
		"config", "benchmark", "ooo%", "extra%", "acks", "retrans", "drops")
	for _, cfg := range Configs() {
		for _, bm := range Benchmarks {
			r := RunMicro(bm, cfg, size)
			p := r.Net.Proto
			fmt.Fprintf(&b, "%-8s %-10s %8.1f %8.2f %8d %8d %8d\n",
				cfg.Name, bm,
				p.OOOFraction()*100, p.ExtraTrafficFraction()*100,
				p.CtrlAcksSent, p.Retransmissions,
				r.Net.SwitchDrops+r.Net.LinkErrDrops)
		}
	}
	return b.String()
}

// RenderTable1 renders the reproduction's Table 1.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 1: benchmark applications (reproduction scale)")
	fmt.Fprintf(&b, "%-18s %-34s %14s %12s\n", "Application", "Problem Size", "Seq. Exec.", "Footprint")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-34s %14v %9d KB\n", r.Name, r.Problem, r.SeqExec, r.Footprint/1024)
	}
	return b.String()
}

// RenderAppFigure renders one of Figures 3-6: speedups, execution-time
// breakdowns and network statistics per application.
func RenderAppFigure(spec FigureSpec, pts []AppPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: application statistics (%s)\n\n", spec.Figure, spec.Config(2).Name)
	fmt.Fprintf(&b, "%-18s %5s %10s %7s | %7s %7s %7s %7s %7s | %6s %6s %6s %6s %6s\n",
		"application", "nodes", "time", "spdup",
		"comp%", "data%", "lock%", "barr%", "ovhd%",
		"prot%", "ooo%", "extra%", "intr%", "drops")
	for _, p := range pts {
		bd := p.MeanBreakdown()
		tot := float64(p.Elapsed)
		if tot == 0 {
			tot = 1
		}
		pc := func(v float64) float64 { return v / tot * 100 }
		intrPct := 0.0
		if f := p.Net.NICRxFrames; f > 0 {
			intrPct = float64(p.Net.Interrupts) / float64(f) * 100
		}
		fmt.Fprintf(&b, "%-18s %5d %10v %7.2f | %7.1f %7.1f %7.1f %7.1f %7.1f | %6.1f %6.1f %6.2f %6.1f %6d\n",
			p.Name, p.Nodes, p.Elapsed, p.Speedup,
			pc(float64(bd.Compute)), pc(float64(bd.Data)), pc(float64(bd.Lock)),
			pc(float64(bd.Barrier)), pc(float64(bd.Overhead)),
			p.ProtoCPUFrac*100,
			p.Net.Proto.OOOFraction()*100,
			p.Net.Proto.ExtraTrafficFraction()*100,
			intrPct,
			p.Net.SwitchDrops+p.Net.LinkErrDrops)
	}
	return b.String()
}

// RenderAblation sweeps the design choices DESIGN.md calls out: frame-
// vs byte-striping and selective-repeat vs go-back-N, on the dual-link
// configuration, with and without loss.
func RenderAblation(size int) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablations: one-way throughput (MB/s) on 2 x 1-GBit/s links")
	type variant struct {
		name string
		mod  func(*cluster.Config)
	}
	variants := []variant{
		{"frame-stripe+SR", func(c *cluster.Config) {}},
		{"byte-stripe+SR", func(c *cluster.Config) { c.Core.ByteStripe = true }},
		{"frame-stripe+GBN", func(c *cluster.Config) { c.Core.GoBackN = true }},
		{"byte-stripe+GBN", func(c *cluster.Config) { c.Core.ByteStripe = true; c.Core.GoBackN = true }},
	}
	for _, loss := range []float64{0, 0.001} {
		fmt.Fprintf(&b, "\nloss probability %.3f\n", loss)
		for _, v := range variants {
			cfg := cluster.TwoLinkUnordered1G(2)
			cfg.Link.LossProb = loss
			v.mod(&cfg)
			r := RunOneWay(cfg, size)
			fmt.Fprintf(&b, "  %-18s %8.1f MB/s   extra %5.2f%%  retrans %d\n",
				v.name, r.ThroughputMBs,
				r.Net.Proto.ExtraTrafficFraction()*100, r.Net.Proto.Retransmissions)
		}
	}
	// Window sweep.
	fmt.Fprintln(&b, "\nflow-control window sweep (one-way, 1L-10G)")
	for _, w := range []int{16, 32, 64, 128, 256} {
		cfg := cluster.OneLink10G(2)
		cfg.Core.Window = w
		r := RunOneWay(cfg, size)
		fmt.Fprintf(&b, "  window %4d: %8.1f MB/s\n", w, r.ThroughputMBs)
	}
	// Delayed-ack sweep.
	fmt.Fprintln(&b, "\ndelayed-ack threshold sweep (one-way, 1L-1G)")
	for _, a := range []int{1, 4, 16, 32, 64} {
		cfg := cluster.OneLink1G(2)
		cfg.Core.AckEvery = a
		r := RunOneWay(cfg, size)
		fmt.Fprintf(&b, "  ack every %3d: %8.1f MB/s   extra %5.2f%%\n",
			a, r.ThroughputMBs, r.Net.Proto.ExtraTrafficFraction()*100)
	}
	// Interrupt avoidance (§2.6): mask the NIC while the protocol
	// thread polls. Only matters when frames arrive faster than they
	// are processed — irrelevant at 1-GbE (the thread drains and sleeps
	// between frames anyway), decisive at 10-GbE.
	fmt.Fprintln(&b, "\ninterrupt avoidance (§2.6): masked polling vs per-frame interrupts")
	for _, g := range []struct {
		name string
		mk   func(int) cluster.Config
	}{{"1L-1G", cluster.OneLink1G}, {"1L-10G", cluster.OneLink10G}} {
		for _, rx := range []bool{false, true} {
			cfg := g.mk(2)
			cfg.NIC.RxIntrUnmaskable = rx
			mode := "masked polling"
			if rx {
				mode = "every frame interrupts"
			}
			r := RunOneWay(cfg, size)
			fmt.Fprintf(&b, "  %-7s %-22s %8.1f MB/s   interrupts/rx-frame %.2f\n",
				g.name, mode, r.ThroughputMBs,
				float64(r.Net.Interrupts)/float64(r.Net.NICRxFrames))
		}
	}

	// Hard link failure: edge-based scaling also means edge-based fault
	// tolerance — the striper sheds a dead rail and continues at the
	// survivors' rate instead of stalling every window on it.
	fmt.Fprintln(&b, "\nhard link failure (one of two 1-GbE rails dies at 2 ms, 8 MiB one-way)")
	on := RunLinkFailure(true, 8<<20, 2*sim.Millisecond, 0)
	fmt.Fprintf(&b, "  dead-link detection on:  %8.1f MB/s   dead %d  restores %d  burned frames %d\n",
		on.ThroughputMBs, on.DeadEvents, on.Restores, on.FailDrops)
	off := RunLinkFailure(false, 8<<20, 2*sim.Millisecond, 0)
	fmt.Fprintf(&b, "  dead-link detection off: %8.1f MB/s   dead %d  restores %d  burned frames %d\n",
		off.ThroughputMBs, off.DeadEvents, off.Restores, off.FailDrops)
	rep := RunLinkFailure(true, 8<<20, 2*sim.Millisecond, 30*sim.Millisecond)
	fmt.Fprintf(&b, "  repaired at 30 ms:       %8.1f MB/s   dead %d  restores %d  burned frames %d\n",
		rep.ThroughputMBs, rep.DeadEvents, rep.Restores, rep.FailDrops)
	b.WriteString(RenderFutureWork(size))
	return b.String()
}

// RenderFutureWork runs the paper's §6 future-work directions: hybrid
// NIC offload and multi-switch tree fabrics.
func RenderFutureWork(size int) string {
	var b strings.Builder
	fmt.Fprintln(&b, "\nfuture work (IPPS'07 §6): NIC offload (one-way, 10-GbE)")
	edge := RunOneWay(cluster.OneLink10G(2), size)
	off := RunOneWay(cluster.OneLink10GOffload(2), size)
	fmt.Fprintf(&b, "  edge protocol:    %8.1f MB/s  host CPU %5.1f%%\n", edge.ThroughputMBs, edge.CPUPct)
	fmt.Fprintf(&b, "  NIC offload:      %8.1f MB/s  host CPU %5.1f%%\n", off.ThroughputMBs, off.CPUPct)

	// The design goal itself, §1: "scale the link bandwidth with the
	// number of links". The paper evaluates up to two rails; the model
	// extends the sweep to four.
	fmt.Fprintln(&b, "\nedge scaling: one-way throughput vs number of 1-GbE rails (§1 thesis)")
	for rails := 1; rails <= 4; rails++ {
		cfg := cluster.TwoLinkUnordered1G(2)
		cfg.LinksPerNode = rails
		cfg.Name = fmt.Sprintf("%dL-1G", rails)
		r := RunOneWay(cfg, size)
		fmt.Fprintf(&b, "  %d rail(s): %8.1f MB/s   ooo %5.1f%%   extra %5.2f%%\n",
			rails, r.ThroughputMBs, r.Net.Proto.OOOFraction()*100,
			r.Net.Proto.ExtraTrafficFraction()*100)
	}

	// Heterogeneous rails: the incremental-upgrade scenario edge-based
	// scaling invites (add a 10-GbE rail next to the 1-GbE one).
	// Round-robin gives every rail the same frame count, so the slow
	// rail paces the window; least-backlog striping fills both.
	fmt.Fprintln(&b, "\nedge scaling, heterogeneous rails: 1-GbE + 10-GbE (one-way)")
	hyb := cluster.HybridRails(2)
	rr := hyb
	rr.Core.AdaptiveStripe = false
	ha := RunOneWay(hyb, size)
	hr := RunOneWay(rr, size)
	fmt.Fprintf(&b, "  adaptive (least-backlog): %8.1f MB/s   ooo %5.1f%%   extra %5.2f%%\n",
		ha.ThroughputMBs, ha.Net.Proto.OOOFraction()*100, ha.Net.Proto.ExtraTrafficFraction()*100)
	fmt.Fprintf(&b, "  round-robin:              %8.1f MB/s   ooo %5.1f%%   extra %5.2f%%\n",
		hr.ThroughputMBs, hr.Net.Proto.OOOFraction()*100, hr.Net.Proto.ExtraTrafficFraction()*100)

	fmt.Fprintln(&b, "\nfuture work: two-level switch tree (one-way pair, 1-GbE)")
	flat := RunOneWay(cluster.OneLink1G(2), size)
	fmt.Fprintf(&b, "  flat switch:                %8.1f MB/s\n", flat.ThroughputMBs)
	intra := RunOneWay(cluster.TreeOneLink1G(4, 4, 1), size)
	fmt.Fprintf(&b, "  tree, intra-edge pair:      %8.1f MB/s\n", intra.ThroughputMBs)
	// Cross-core pair: put the two endpoints in different groups.
	cross := RunTreeCrossPair(size)
	fmt.Fprintf(&b, "  tree, cross-core pair:      %8.1f MB/s\n", cross)
	return b.String()
}
