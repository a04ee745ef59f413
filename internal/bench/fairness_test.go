package bench

import (
	"fmt"
	"testing"

	"multiedge/internal/chaos"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// runFairness drives conns closed-loop writers, all from node 1's
// endpoint to node 0 so every connection contends in one send
// scheduler, and returns each connection's elapsed time from the shared
// start barrier to its last completed op. With identical per-conn work,
// the elapsed-time spread IS the scheduler's service-share skew: a
// starved connection finishes late.
func runFairness(t *testing.T, conns, opsPerConn, size int, qos []core.QoSClass, loss bool) []sim.Time {
	t.Helper()
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 42
	cfg.Core.SchedQueue = true
	cfg.Core.QoS = qos
	cfg.Core.MemBytes = 2*conns*size + (1 << 20)
	cl := cluster.New(cfg)
	server := cl.Nodes[0].EP
	client := cl.Nodes[1].EP

	if loss {
		r := chaos.New(cl, 43)
		r.LossBurst(100*sim.Microsecond, 60*sim.Second, 1, 0, 0.02)
	}

	var startSig sim.Signal
	var start sim.Time
	elapsed := make([]sim.Time, conns)
	dialed := 0
	for j := 0; j < conns; j++ {
		j := j
		remote := server.Alloc(size)
		local := client.Alloc(size)
		cl.Env.Go(fmt.Sprintf("fair%d", j), func(p *sim.Proc) {
			c := client.Dial(p, 0, 0)
			if len(qos) > 0 {
				c.SetClass(j % len(qos))
			}
			if dialed++; dialed == conns {
				start = cl.Env.Now()
				startSig.Fire(cl.Env)
			}
			p.Wait(&startSig)
			for k := 0; k < opsPerConn; k++ {
				mustDo(p, c, core.Op{Remote: remote, Local: local,
					Size: size, Kind: frame.OpWrite}).Wait(p)
			}
			elapsed[j] = cl.Env.Now() - start
			c.Close(p)
		})
	}
	cl.Env.RunUntil(600 * sim.Second)
	if n := cl.Env.PendingEvents(); n != 0 {
		t.Fatalf("%d events still pending after teardown", n)
	}
	if n := server.ActiveConns() + client.ActiveConns(); n != 0 {
		t.Fatalf("%d connections still tabled after teardown", n)
	}
	return elapsed
}

// skew returns max/min over the per-conn elapsed times.
func skew(elapsed []sim.Time) float64 {
	min, max := elapsed[0], elapsed[0]
	for _, e := range elapsed {
		if e == 0 {
			return -1 // a conn never finished: infinite skew
		}
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	return float64(max) / float64(min)
}

// TestSchedulerFairness: at 512 connections in one endpoint scheduler,
// neither the round-robin baseline (QoS off) nor deficit-weighted fair
// queueing over equal-weight classes (QoS on) may starve any
// connection: every conn finishes identical work within a bounded
// multiple of the fastest, with and without 2% loss.
func TestSchedulerFairness(t *testing.T) {
	conns := 512
	if testing.Short() {
		conns = 128
	}
	equal := []core.QoSClass{{Weight: 1}, {Weight: 1}, {Weight: 1}, {Weight: 1}}
	for _, tc := range []struct {
		name  string
		qos   []core.QoSClass
		loss  bool
		bound float64
	}{
		{"rr", nil, false, 1.5},
		{"dwfq", equal, false, 1.5},
		// Loss makes individual conns wait out retransmission timeouts;
		// the bound only excludes starvation-grade skew.
		{"rr-loss", nil, true, 3.0},
		{"dwfq-loss", equal, true, 3.0},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			elapsed := runFairness(t, conns, 16, 256, tc.qos, tc.loss)
			s := skew(elapsed)
			if s < 0 {
				t.Fatalf("a connection never completed its ops (starved)")
			}
			if s > tc.bound {
				t.Errorf("per-conn service skew %.2fx exceeds %.1fx across %d conns", s, tc.bound, conns)
			}
			t.Logf("%d conns: skew %.3fx", conns, s)
		})
	}
}

// TestDWFQWeightedShare: two always-backlogged connections in classes
// weighted 3:1 must see long-run service in that ratio — the deficit
// counter's negative carry-over makes DRR converge on exact weight
// proportions, so the tolerance only absorbs edge effects.
func TestDWFQWeightedShare(t *testing.T) {
	// Solicited acks and a deep pipeline keep both connections wire-
	// saturating; with lazy (delayed) acks the conns would be RTT-bound
	// below link rate and there would be no backlog for weights to
	// shape.
	const (
		size   = 1024
		window = 32
		runFor = 20 * sim.Millisecond
	)
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 42
	cfg.Core.SchedQueue = true
	cfg.Core.QoS = []core.QoSClass{{Weight: 1}, {Weight: 3}, {Weight: 1}}
	cl := cluster.New(cfg)
	server := cl.Nodes[0].EP
	client := cl.Nodes[1].EP

	done := make([]int, 2)
	for j := 0; j < 2; j++ {
		j := j
		remote := server.Alloc(window * size)
		local := client.Alloc(window * size)
		cl.Env.Go(fmt.Sprintf("share%d", j), func(p *sim.Proc) {
			c := client.Dial(p, 0, 0)
			c.SetClass(1 + j) // weights 3 and 1
			var inflight []*core.Handle
			for k := 0; cl.Env.Now() < runFor; k++ {
				off := uint64(k % window * size)
				inflight = append(inflight, mustDo(p, c, core.Op{Remote: remote + off,
					Local: local + off, Size: size, Kind: frame.OpWrite, Flags: frame.Solicit}))
				if len(inflight) >= window {
					inflight[0].Wait(p)
					inflight = inflight[1:]
					done[j]++
				}
			}
			for _, h := range inflight {
				h.Wait(p)
				done[j]++
			}
			c.Close(p)
		})
	}
	cl.Env.RunUntil(600 * sim.Second)
	if done[0] == 0 || done[1] == 0 {
		t.Fatalf("a class got no service: done=%v", done)
	}
	ratio := float64(done[0]) / float64(done[1])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("weight-3 class served %.2fx the weight-1 class, want ~3x (done=%v)", ratio, done)
	}
	t.Logf("3:1 weights served %d:%d ops (%.2fx)", done[0], done[1], ratio)
}
