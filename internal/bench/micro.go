// Package bench drives the paper's evaluation (IPPS'07 §3-4): the three
// micro-benchmarks (ping-pong, one-way, two-way) over the four cluster
// configurations, parameter sweeps over transfer size, and the
// application experiment runner for Figures 3-6.
package bench

import (
	"fmt"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// MicroResult is one micro-benchmark measurement point.
type MicroResult struct {
	Config    string
	Benchmark string
	Size      int

	// LatencyUs is the ping-pong one-way latency; for one-way and
	// two-way it is the host overhead to initiate an operation
	// (IPPS'07 Figure 2(a) plots exactly these).
	LatencyUs float64
	// ThroughputMBs is payload throughput in MBytes/s; for two-way it
	// is the sum of both directions (Figure 2(b)).
	ThroughputMBs float64
	// CPUPct is protocol CPU utilization as a percentage of 200%
	// (two CPUs, Figure 2(c)); App/Proto are the node-0 components.
	CPUPct           float64
	AppCPU, ProtoCPU float64

	// Net is the network-level report for the measurement window.
	Net cluster.NetReport

	// Obs is the run's observability registry; nil unless the config's
	// ObsOptions enabled it.
	Obs *obs.Registry
}

func (r MicroResult) String() string {
	return fmt.Sprintf("%-7s %-9s %8dB  lat %8.2fus  thr %8.1fMB/s  cpu %5.1f%%",
		r.Config, r.Benchmark, r.Size, r.LatencyUs, r.ThroughputMBs, r.CPUPct)
}

// pingIters picks an iteration count inversely related to size so runs
// stay bounded.
func pingIters(size int) int {
	switch {
	case size <= 4096:
		return 200
	case size <= 65536:
		return 60
	default:
		return 16
	}
}

// onewayCount picks how many back-to-back operations one-way/two-way
// issue for a given size.
func onewayCount(size int) int {
	total := 24 << 20 // ~24 MB per run
	n := total / (size + 64)
	if n > 4000 {
		n = 4000
	}
	if n < 24 {
		n = 24
	}
	return n
}

// RunPingPong measures request-reply latency and throughput: node 0
// writes size bytes to node 1 with a notification; node 1 replies in
// kind (IPPS'07 §3: "requests and replies carry the same amount of
// data"). Reported latency is one-way (RTT/2).
func RunPingPong(cfg cluster.Config, size int) MicroResult {
	iters := pingIters(size)
	warm := iters / 10
	if warm < 2 {
		warm = 2
	}
	cl := cluster.New(cfg)
	defer cl.Close()
	c01, c10 := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	s0, d0 := ep0.Alloc(size), ep0.Alloc(size)
	s1, d1 := ep1.Alloc(size), ep1.Alloc(size)

	var start, end sim.Time
	var snap0 [2]sim.Utilization
	var prev cluster.NetReport
	var net cluster.NetReport
	cl.Env.Go("pong", func(p *sim.Proc) {
		for i := 0; i < warm+iters; i++ {
			c10.WaitNotify(p)
			mustDo(p, c10, core.Op{Remote: d0, Local: s1, Size: size, Kind: frame.OpWrite, Flags: frame.Notify})
		}
	})
	cl.Env.Go("ping", func(p *sim.Proc) {
		for i := 0; i < warm+iters; i++ {
			if i == warm {
				start = cl.Env.Now()
				snap0[0] = cl.Nodes[0].CPUs.App.Snapshot(cl.Env)
				snap0[1] = cl.Nodes[0].CPUs.Proto.Snapshot(cl.Env)
				prev = cl.Collect()
			}
			mustDo(p, c01, core.Op{Remote: d1, Local: s0, Size: size, Kind: frame.OpWrite, Flags: frame.Notify})
			c01.WaitNotify(p)
		}
		end = cl.Env.Now()
		net = cl.Collect().Sub(prev)
		cl.Obs.Quiesce() // stop samplers so the event queue can drain
	})
	cl.Env.RunUntil(600 * sim.Second)
	elapsed := end - start
	r := MicroResult{Config: cfg.Name, Benchmark: "ping-pong", Size: size, Net: net, Obs: cl.Obs}
	if elapsed > 0 {
		r.LatencyUs = elapsed.Micros() / float64(2*iters)
		r.ThroughputMBs = float64(size*2*iters) / 1e6 / elapsed.Seconds()
		r.AppCPU = snap0[0].Since(cl.Env, cl.Nodes[0].CPUs.App)
		r.ProtoCPU = snap0[1].Since(cl.Env, cl.Nodes[0].CPUs.Proto)
		r.CPUPct = (r.AppCPU + r.ProtoCPU) * 100
	}
	return r
}

// RunOneWay measures streaming throughput and initiation overhead: node
// 0 issues back-to-back remote writes (IPPS'07 §3). Latency reported is
// the mean host overhead per initiation.
func RunOneWay(cfg cluster.Config, size int) MicroResult {
	count := onewayCount(size)
	cl := cluster.New(cfg)
	defer cl.Close()
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	src := ep0.Alloc(size)
	dst := ep1.Alloc(size)

	var start, end sim.Time
	var overhead sim.Time
	var snap0 [2]sim.Utilization
	var prev, net cluster.NetReport
	cl.Env.Go("oneway", func(p *sim.Proc) {
		// Warm up the path.
		mustRun(p, c01, core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite})
		start = cl.Env.Now()
		snap0[0] = cl.Nodes[0].CPUs.App.Snapshot(cl.Env)
		snap0[1] = cl.Nodes[0].CPUs.Proto.Snapshot(cl.Env)
		prev = cl.Collect()
		hs := make([]*core.Handle, 0, count)
		for i := 0; i < count; i++ {
			t0 := cl.Env.Now()
			hs = append(hs, mustDo(p, c01, core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite}))
			overhead += cl.Env.Now() - t0
		}
		for _, h := range hs {
			h.Wait(p)
		}
		end = cl.Env.Now()
		net = cl.Collect().Sub(prev)
		cl.Obs.Quiesce()
	})
	cl.Env.RunUntil(600 * sim.Second)
	elapsed := end - start
	r := MicroResult{Config: cfg.Name, Benchmark: "one-way", Size: size, Net: net, Obs: cl.Obs}
	if elapsed > 0 {
		r.LatencyUs = overhead.Micros() / float64(count)
		r.ThroughputMBs = float64(size*count) / 1e6 / elapsed.Seconds()
		r.AppCPU = snap0[0].Since(cl.Env, cl.Nodes[0].CPUs.App)
		r.ProtoCPU = snap0[1].Since(cl.Env, cl.Nodes[0].CPUs.Proto)
		r.CPUPct = (r.AppCPU + r.ProtoCPU) * 100
	}
	return r
}

// RunTwoWay runs simultaneous one-way transfers in both directions; the
// reported throughput is the sum of both (IPPS'07 §3).
func RunTwoWay(cfg cluster.Config, size int) MicroResult {
	count := onewayCount(size)
	cl := cluster.New(cfg)
	defer cl.Close()
	c01, c10 := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	s0, d0 := ep0.Alloc(size), ep0.Alloc(size)
	s1, d1 := ep1.Alloc(size), ep1.Alloc(size)

	var start, end [2]sim.Time
	var overhead sim.Time
	var snap0 [2]sim.Utilization
	var prev, net cluster.NetReport
	finished := 0
	run := func(idx int, c *core.Conn, src, dst uint64) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			mustRun(p, c, core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite})
			start[idx] = cl.Env.Now()
			if idx == 0 {
				snap0[0] = cl.Nodes[0].CPUs.App.Snapshot(cl.Env)
				snap0[1] = cl.Nodes[0].CPUs.Proto.Snapshot(cl.Env)
				prev = cl.Collect()
			}
			hs := make([]*core.Handle, 0, count)
			for i := 0; i < count; i++ {
				t0 := cl.Env.Now()
				hs = append(hs, mustDo(p, c, core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite}))
				if idx == 0 {
					overhead += cl.Env.Now() - t0
				}
			}
			for _, h := range hs {
				h.Wait(p)
			}
			end[idx] = cl.Env.Now()
			if idx == 0 {
				net = cl.Collect().Sub(prev)
			}
			if finished++; finished == 2 {
				cl.Obs.Quiesce()
			}
		}
	}
	cl.Env.Go("fwd", run(0, c01, s0, d1))
	cl.Env.Go("rev", run(1, c10, s1, d0))
	cl.Env.RunUntil(600 * sim.Second)
	r := MicroResult{Config: cfg.Name, Benchmark: "two-way", Size: size, Net: net, Obs: cl.Obs}
	e0, e1 := end[0]-start[0], end[1]-start[1]
	if e0 > 0 && e1 > 0 {
		r.LatencyUs = overhead.Micros() / float64(count)
		r.ThroughputMBs = float64(size*count)/1e6/e0.Seconds() +
			float64(size*count)/1e6/e1.Seconds()
		r.AppCPU = snap0[0].Since(cl.Env, cl.Nodes[0].CPUs.App)
		r.ProtoCPU = snap0[1].Since(cl.Env, cl.Nodes[0].CPUs.Proto)
		r.CPUPct = (r.AppCPU + r.ProtoCPU) * 100
	}
	return r
}

// Sizes is the transfer-size sweep of Figure 2.
var Sizes = []int{4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// Configs returns the four paper configurations at micro-benchmark scale
// (two nodes).
func Configs() []cluster.Config {
	return []cluster.Config{
		cluster.OneLink1G(2),
		cluster.TwoLink1G(2),
		cluster.TwoLinkUnordered1G(2),
		cluster.OneLink10G(2),
	}
}

// RunMicro dispatches by benchmark name ("ping-pong", "one-way",
// "two-way").
func RunMicro(name string, cfg cluster.Config, size int) MicroResult {
	switch name {
	case "ping-pong":
		return RunPingPong(cfg, size)
	case "one-way":
		return RunOneWay(cfg, size)
	case "two-way":
		return RunTwoWay(cfg, size)
	}
	panic("bench: unknown micro-benchmark " + name)
}

// Benchmarks lists the three micro-benchmark names.
var Benchmarks = []string{"ping-pong", "one-way", "two-way"}

// RunTreeCrossPair measures one-way throughput between nodes in
// different edge groups of a two-level tree (three store-and-forward
// hops).
func RunTreeCrossPair(size int) float64 {
	cfg := cluster.TreeOneLink1G(4, 2, 1) // nodes 0,1 | 2,3
	cfg.Core.MemBytes = 64 << 20
	cl := cluster.New(cfg)
	defer cl.Close()
	conns := cl.FullMesh()
	count := onewayCount(size)
	src := cl.Nodes[0].EP.Alloc(size)
	dst := cl.Nodes[2].EP.Alloc(size)
	var start, end sim.Time
	cl.Env.Go("xfer", func(p *sim.Proc) {
		mustRun(p, conns[0][2], core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite})
		start = cl.Env.Now()
		hs := make([]*core.Handle, 0, count)
		for i := 0; i < count; i++ {
			hs = append(hs, mustDo(p, conns[0][2], core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite}))
		}
		for _, h := range hs {
			h.Wait(p)
		}
		end = cl.Env.Now()
	})
	cl.Env.RunUntil(600 * sim.Second)
	if end <= start {
		return 0
	}
	return float64(size*count) / 1e6 / (end - start).Seconds()
}

// RunTracedOneWay runs a one-way transfer with the frame-level traffic
// view (obs.TrafficKinds) recorded at both endpoints and renders both
// summaries and the receiver's 1-ms-bucket timeline (the paper's
// traffic-over-time analysis).
func RunTracedOneWay(cfg cluster.Config, size int) string {
	cfg.Nodes = 2
	cl := cluster.New(cfg)
	defer cl.Close()
	c01, _ := cl.Pair()
	tr0 := obs.NewRecorder(0, 1<<16, obs.TrafficKinds)
	tr1 := obs.NewRecorder(1, 1<<16, obs.TrafficKinds)
	cl.Nodes[0].EP.SetRecorder(tr0)
	cl.Nodes[1].EP.SetRecorder(tr1)
	src := cl.Nodes[0].EP.Alloc(size)
	dst := cl.Nodes[1].EP.Alloc(size)
	cl.Env.Go("xfer", func(p *sim.Proc) {
		mustRun(p, c01, core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite})
	})
	cl.Env.RunUntil(600 * sim.Second)
	return "sender " + tr0.Summary() + "receiver " + tr1.Summary() +
		"\nreceiver timeline (1 ms buckets)\n" + tr1.Timeline(sim.Millisecond)
}

// LinkFailureResult summarizes one hard-link-failure run.
type LinkFailureResult struct {
	ThroughputMBs float64
	DeadEvents    uint64
	Restores      uint64
	FailDrops     uint64 // frames burned on the dead rail
}

// RunLinkFailure streams total bytes from node 0 to node 1 over the
// 2Lu-1G configuration while rail 1 is hard-failed at failAt (pulled
// cable) and, if repairAt > 0, repaired again at repairAt. detect
// toggles the sender's dead-link detection (the receiver's stale-NACK
// escape stays on — without it a dead rail is a livelock, not a
// slowdown; see DESIGN.md §4).
func RunLinkFailure(detect bool, total int, failAt, repairAt sim.Time) LinkFailureResult {
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Core.MemBytes = total + (1 << 20)
	if !detect {
		cfg.Core.DeadLinkThreshold = 0
	}
	cl := cluster.New(cfg)
	defer cl.Close()
	c01, _ := cl.Pair()
	src := cl.Nodes[0].EP.Alloc(total)
	dst := cl.Nodes[1].EP.Alloc(total)
	cl.Env.At(failAt, func() { cl.FailLink(0, 1) })
	if repairAt > 0 {
		cl.Env.At(repairAt, func() { cl.RestoreLink(0, 1) })
	}
	var start, end sim.Time
	cl.Env.Go("xfer", func(p *sim.Proc) {
		start = cl.Env.Now()
		mustDo(p, c01, core.Op{Remote: dst, Local: src, Size: total, Kind: frame.OpWrite}).Wait(p)
		end = cl.Env.Now()
	})
	cl.Env.RunUntil(600 * sim.Second)
	r := LinkFailureResult{
		DeadEvents: cl.Nodes[0].EP.Stats.LinkDeadEvents,
		Restores:   cl.Nodes[0].EP.Stats.LinkRestores,
		FailDrops:  cl.Collect().LinkFailDrops,
	}
	if end > start {
		r.ThroughputMBs = float64(total) / 1e6 / (end - start).Seconds()
	}
	return r
}
