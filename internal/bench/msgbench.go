package bench

import (
	"fmt"
	"strings"

	"multiedge/internal/cluster"
	"multiedge/internal/msg"
	"multiedge/internal/sim"
)

// Message-passing benchmarks: the second application domain of the
// paper's §1 thesis, measured over the same transport as everything
// else.

// MsgResult is one message-layer measurement.
type MsgResult struct {
	Name      string
	Nodes     int
	Bytes     int
	LatencyUs float64 // per operation (collective or round trip)
	BWMBs     float64 // payload bandwidth where meaningful
}

// RunMsgPingPong measures message round-trip latency and bandwidth
// between two ranks.
func RunMsgPingPong(cfg cluster.Config, size, iters int) MsgResult {
	cfg.Nodes = 2
	cfg.Core.MemBytes = 64 << 20
	cl := cluster.New(cfg)
	defer cl.Close()
	comms := msg.New(cl, cl.FullMesh())
	payload := make([]byte, size)
	var start, end sim.Time
	cl.Env.Go("r0", func(p *sim.Proc) {
		comms[0].Send(p, 1, 1, payload) // warm-up
		comms[0].Recv(p, 1, 1)
		start = cl.Env.Now()
		for i := 0; i < iters; i++ {
			comms[0].Send(p, 1, 1, payload)
			comms[0].Recv(p, 1, 1)
		}
		end = cl.Env.Now()
	})
	cl.Env.Go("r1", func(p *sim.Proc) {
		for i := 0; i < iters+1; i++ {
			b := comms[1].Recv(p, 0, 1)
			comms[1].Send(p, 0, 1, b)
		}
	})
	cl.Env.RunUntil(600 * sim.Second)
	r := MsgResult{Name: "msg-pingpong", Nodes: 2, Bytes: size}
	if end > start {
		r.LatencyUs = (end - start).Micros() / float64(2*iters)
		r.BWMBs = float64(2*size*iters) / 1e6 / (end - start).Seconds()
	}
	return r
}

// RunCollective measures the mean latency of one collective across all
// ranks (time from entering to every rank having left, averaged over
// iterations).
func RunCollective(name string, nodes, size, iters int) MsgResult {
	cfg := cluster.OneLink1G(nodes)
	cfg.Core.MemBytes = 64 << 20
	cl := cluster.New(cfg)
	defer cl.Close()
	comms := msg.New(cl, cl.FullMesh())
	var start, end sim.Time
	done := 0
	for _, c := range comms {
		c := c
		cl.Env.Go(fmt.Sprintf("r%d", c.Rank()), func(p *sim.Proc) {
			data := make([]byte, size)
			vals := make([]float64, size/8+1)
			c.Barrier(p) // align
			if c.Rank() == 0 {
				start = cl.Env.Now()
			}
			for i := 0; i < iters; i++ {
				switch name {
				case "barrier":
					c.Barrier(p)
				case "bcast":
					var in []byte
					if c.Rank() == 0 {
						in = data
					}
					c.Bcast(p, 0, in)
				case "allreduce":
					c.Allreduce(p, vals)
				case "alltoall":
					send := make([][]byte, nodes)
					for j := range send {
						send[j] = data
					}
					c.Alltoall(p, send)
				default:
					panic("bench: unknown collective " + name)
				}
			}
			done++
			if t := cl.Env.Now(); t > end {
				end = t
			}
		})
	}
	cl.Env.RunUntil(600 * sim.Second)
	r := MsgResult{Name: name, Nodes: nodes, Bytes: size}
	if done == nodes && end > start {
		r.LatencyUs = (end - start).Micros() / float64(iters)
	}
	return r
}

// RenderMessaging renders the message-passing evaluation: point-to-point
// latency/bandwidth against raw RDMA, and collective scaling.
func RenderMessaging() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Message passing over MultiEdge (1L-1G unless noted)")
	fmt.Fprintln(&b, "\npoint-to-point round trip (vs raw remote-write ping-pong)")
	fmt.Fprintf(&b, "%10s %14s %14s %14s\n", "size", "msg lat us", "msg MB/s", "raw lat us")
	for _, sz := range []int{8, 1024, 4096, 65536, 262144} {
		m := RunMsgPingPong(cluster.OneLink1G(2), sz, 40)
		raw := RunPingPong(cluster.OneLink1G(2), sz)
		fmt.Fprintf(&b, "%10d %14.2f %14.1f %14.2f\n", sz, m.LatencyUs, m.BWMBs, raw.LatencyUs)
	}
	fmt.Fprintln(&b, "\ncollectives: latency (us) vs ranks")
	colls := []string{"barrier", "bcast", "allreduce", "alltoall"}
	fmt.Fprintf(&b, "%10s", "ranks")
	for _, c := range colls {
		fmt.Fprintf(&b, "%12s", c)
	}
	fmt.Fprintln(&b)
	for _, n := range []int{2, 4, 8, 16} {
		fmt.Fprintf(&b, "%10d", n)
		for _, c := range colls {
			sz := 1024
			if c == "barrier" {
				sz = 0
			}
			r := RunCollective(c, n, sz, 10)
			fmt.Fprintf(&b, "%12.1f", r.LatencyUs)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
