package bench

import (
	"fmt"
	"strings"

	"multiedge/internal/cluster"
	"multiedge/internal/frame"
	"multiedge/internal/hostmodel"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
	"multiedge/internal/tcp"
)

// Transport comparison: MultiEdge against the TCP-like kernel stack, on
// identical hardware — the quantitative version of the paper's §5
// claim that "using TCP/IP imposes significant overheads" and that
// VIA-type transports over Gigabit Ethernet beat it.

// TCPResult is one TCP measurement.
type TCPResult struct {
	Bytes            int
	ThroughputMBs    float64
	LatencyUs        float64 // one-way (ping-pong RTT/2)
	CPUPct           float64 // sender app+protocol CPUs, of 200%
	Segs, Retransmit uint64
}

// tcpPair builds two TCP stacks on the standard hardware.
func tcpPair(seed int64, lp phys.LinkParams, nicP phys.NICParams) (*sim.Env, []*tcp.Stack, []hostmodel.CPUs) {
	env := sim.NewEnv(seed)
	swp := phys.DefaultSwitchParams()
	sw := phys.NewSwitch(env, "sw", swp)
	var stacks []*tcp.Stack
	var cpus []hostmodel.CPUs
	for i := 0; i < 2; i++ {
		addr := frame.NewAddr(i, 0)
		nic := phys.NewNIC(env, fmt.Sprintf("n%d/nic", i), addr, nicP)
		nic.AttachUplink(sw.AttachStation(addr, nic, lp, swp.QueueCap))
		c := hostmodel.NewCPUs(fmt.Sprintf("n%d", i))
		cpus = append(cpus, c)
		stacks = append(stacks, tcp.NewStack(env, i, tcp.DefaultParams(), c, nic))
	}
	return env, stacks, cpus
}

// RunTCPOneWay streams total bytes through the TCP-like transport and
// measures throughput and sender CPU.
func RunTCPOneWay(lp phys.LinkParams, nicP phys.NICParams, total int) TCPResult {
	env, stacks, cpus := tcpPair(1, lp, nicP)
	defer env.Close()
	var start, end sim.Time
	var snapA, snapP sim.Utilization
	const chunk = 256 << 10
	env.Go("client", func(p *sim.Proc) {
		sk := stacks[0].Dial(p, frame.NewAddr(1, 0))
		// Warm past slow start.
		sk.Send(p, make([]byte, chunk))
		start = env.Now()
		snapA = cpus[0].App.Snapshot(env)
		snapP = cpus[0].Proto.Snapshot(env)
		buf := make([]byte, chunk)
		for off := 0; off < total; off += chunk {
			sk.Send(p, buf)
		}
	})
	env.Go("server", func(p *sim.Proc) {
		sk := stacks[1].Accept(p)
		sk.Recv(p, chunk)
		for off := 0; off < total; off += chunk {
			sk.Recv(p, chunk)
		}
		end = env.Now()
	})
	env.RunUntil(600 * sim.Second)
	r := TCPResult{Bytes: total, Segs: stacks[0].SegsSent, Retransmit: stacks[0].Retransmits}
	if end > start {
		r.ThroughputMBs = float64(total) / 1e6 / (end - start).Seconds()
		r.CPUPct = (snapA.Since(env, cpus[0].App) + snapP.Since(env, cpus[0].Proto)) * 100
	}
	return r
}

// RunTCPPingPong measures TCP round-trip latency at a message size.
func RunTCPPingPong(lp phys.LinkParams, nicP phys.NICParams, size, iters int) TCPResult {
	env, stacks, _ := tcpPair(2, lp, nicP)
	defer env.Close()
	var start, end sim.Time
	env.Go("client", func(p *sim.Proc) {
		sk := stacks[0].Dial(p, frame.NewAddr(1, 0))
		buf := make([]byte, size)
		sk.Send(p, buf)
		sk.Recv(p, size) // warm-up
		start = env.Now()
		for i := 0; i < iters; i++ {
			sk.Send(p, buf)
			sk.Recv(p, size)
		}
		end = env.Now()
	})
	env.Go("server", func(p *sim.Proc) {
		sk := stacks[1].Accept(p)
		for i := 0; i < iters+1; i++ {
			sk.Send(p, sk.Recv(p, size))
		}
	})
	env.RunUntil(600 * sim.Second)
	r := TCPResult{Bytes: size}
	if end > start {
		r.LatencyUs = (end - start).Micros() / float64(2*iters)
	}
	return r
}

// RenderTransportComparison renders MultiEdge vs the TCP-like baseline.
func RenderTransportComparison() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Transport comparison: MultiEdge vs TCP-like kernel stack (same hardware)")
	for _, tc := range []struct {
		name string
		lp   phys.LinkParams
		nicP phys.NICParams
		cfg  cluster.Config
	}{
		{"1-GbE", phys.Gigabit(), phys.DefaultNICParams(), cluster.OneLink1G(2)},
		{"10-GbE", phys.TenGigabit(), phys.Myri10GNICParams(), cluster.OneLink10G(2)},
	} {
		me := RunOneWay(tc.cfg, 1<<20)
		tcpR := RunTCPOneWay(tc.lp, tc.nicP, 24<<20)
		meLat := RunPingPong(tc.cfg, 64)
		tcpLat := RunTCPPingPong(tc.lp, tc.nicP, 64, 60)
		fmt.Fprintf(&b, "\n%s one-way:\n", tc.name)
		fmt.Fprintf(&b, "  MultiEdge: %8.1f MB/s  cpu %5.1f%%   64B one-way latency %6.2f us\n",
			me.ThroughputMBs, me.CPUPct, meLat.LatencyUs)
		fmt.Fprintf(&b, "  TCP-like:  %8.1f MB/s  cpu %5.1f%%   64B one-way latency %6.2f us\n",
			tcpR.ThroughputMBs, tcpR.CPUPct, tcpLat.LatencyUs)
	}
	return b.String()
}
