package svc_test

import (
	"bytes"
	"errors"
	"testing"

	"multiedge/internal/chaos"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
	"multiedge/internal/svc"
)

// recoveryConfig is the cluster shape the service tests share: fast
// failure detection so failover happens within a few virtual
// milliseconds.
func recoveryConfig(nodes int) cluster.Config {
	cfg := cluster.OneLink1G(nodes)
	cfg.Core.Reconnect = true
	cfg.Core.DeadInterval = 5 * sim.Millisecond
	cfg.Core.RTOMax = 2 * sim.Millisecond
	// Idle conns must notice a dead peer too, and a dial to a dead node
	// must fail rather than retry forever.
	cfg.Core.HeartbeatInterval = sim.Millisecond
	cfg.Core.MaxRetries = 3
	return cfg
}

func fill(mem []byte, base uint64, n int, seed byte) {
	for i := 0; i < n; i++ {
		mem[base+uint64(i)] = byte(i)*7 + seed
	}
}

// TestRegistryRegister covers the naming plane: registration,
// duplicate/invalid rejection, lookup, ordering.
func TestRegistryRegister(t *testing.T) {
	cl := cluster.New(recoveryConfig(3))
	reg := svc.NewRegistry()
	s, err := reg.Register("kv", 4096, cl.Nodes[1].EP, cl.Nodes[2].EP)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if s.Replicas() != 2 || s.Backends[0].Node != 1 || s.Backends[1].Node != 2 {
		t.Fatalf("backends = %+v", s.Backends)
	}
	if _, err := reg.Register("kv", 4096, cl.Nodes[1].EP); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := reg.Register("", 4096, cl.Nodes[1].EP); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := reg.Register("bad", 0, cl.Nodes[1].EP); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := reg.Register("none", 4096); err == nil {
		t.Error("backend-less service accepted")
	}
	if _, ok := reg.Lookup("kv"); !ok {
		t.Error("lookup failed")
	}
	if _, err := svc.Connect(cl.Nodes[0].EP, reg, "nope", svc.Options{}); !errors.Is(err, svc.ErrUnknownService) {
		t.Errorf("connect to unknown service: %v", err)
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "kv" {
		t.Errorf("names = %v", names)
	}
}

// TestServiceFailoverExactlyOnce is the tentpole scenario: a replica
// dies with a large write in flight; the stub journals the parked
// connection, condemns its epoch, rebinds the session and re-issues the
// call — which lands exactly once, byte-verified, on a survivor, while
// the dead replica keeps only its pre-kill state.
func TestServiceFailoverExactlyOnce(t *testing.T) {
	cl := cluster.New(recoveryConfig(4))
	reg := svc.NewRegistry()
	const region = 256 * 1024
	s, err := reg.Register("kv", region, cl.Nodes[1].EP, cl.Nodes[2].EP, cl.Nodes[3].EP)
	if err != nil {
		t.Fatal(err)
	}
	ep0 := cl.Nodes[0].EP
	c, err := svc.Connect(ep0, reg, "kv", svc.Options{
		Balancer:       svc.NewAffinity(svc.NewRoundRobin()),
		FailoverBudget: 10 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const nA = 16 * 1024  // pattern A: written before the kill
	const nB = 200 * 1024 // pattern B: in flight when the replica dies
	srcA := ep0.Alloc(nA)
	srcB := ep0.Alloc(nB)
	back := ep0.Alloc(nB)
	fill(ep0.Mem(), srcA, nA, 3)
	fill(ep0.Mem(), srcB, nB, 101)

	const token = 7
	victim := -1 // backend index the session binds to
	killAt := &sim.Signal{}
	cl.Env.Go("killer", func(p *sim.Proc) {
		p.Wait(killAt)
		p.Sleep(500 * sim.Microsecond) // mid-transfer of pattern B
		cl.PauseNode(s.Backends[victim].Node)
	})
	done := false
	cl.Env.Go("worker", func(p *sim.Proc) {
		// Pattern A: write, read back, verify — all on the bound backend.
		if err := c.Call(p, token, core.Op{Remote: 0, Local: srcA, Size: nA, Kind: frame.OpWrite}); err != nil {
			t.Fatalf("write A: %v", err)
		}
		if err := c.Call(p, token, core.Op{Remote: 0, Local: back, Size: nA, Kind: frame.OpRead}); err != nil {
			t.Fatalf("read A: %v", err)
		}
		if !bytes.Equal(ep0.Mem()[back:back+nA], ep0.Mem()[srcA:srcA+nA]) {
			t.Fatal("read-back of pattern A differs")
		}
		for b, n := range c.Stats.PerBackend {
			if n > 0 {
				victim = b
			}
		}
		if victim < 0 {
			t.Fatal("no backend served pattern A")
		}
		// Pattern B: the bound replica dies mid-write; the call must
		// fail over and land on a survivor.
		killAt.Fire(cl.Env)
		if err := c.Call(p, token, core.Op{Remote: nA, Local: srcB, Size: nB, Kind: frame.OpWrite}); err != nil {
			t.Fatalf("write B (with failover): %v", err)
		}
		for i := range ep0.Mem()[back : back+nB] {
			ep0.Mem()[back+uint64(i)] = 0
		}
		if err := c.Call(p, token, core.Op{Remote: nA, Local: back, Size: nB, Kind: frame.OpRead}); err != nil {
			t.Fatalf("read B: %v", err)
		}
		if !bytes.Equal(ep0.Mem()[back:back+nB], ep0.Mem()[srcB:srcB+nB]) {
			t.Fatal("read-back of pattern B differs after failover")
		}
		c.Close(p)
		done = true
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !done {
		t.Fatal("worker did not finish")
	}

	// Failover accounting: one condemned backend, at least one failover
	// with journaled state, and the eligible set is exactly the two
	// survivors.
	if c.Stats.BackendsCondemned != 1 {
		t.Errorf("BackendsCondemned = %d, want 1", c.Stats.BackendsCondemned)
	}
	if c.Stats.Failovers == 0 || c.Stats.JournaledOps == 0 {
		t.Errorf("Failovers = %d, JournaledOps = %d, want both > 0",
			c.Stats.Failovers, c.Stats.JournaledOps)
	}
	el := c.EligibleBackends()
	if len(el) != 2 {
		t.Errorf("eligible = %v, want the 2 survivors", el)
	}
	for _, e := range el {
		if e == victim {
			t.Errorf("dead backend %d still eligible", victim)
		}
	}
	// Exactly-once: the survivor that served the session holds pattern
	// B in full at offset nA; the dead replica kept pattern A intact and
	// never received all of B.
	surv := -1
	for b := range s.Backends {
		if b == victim {
			continue
		}
		mem := s.Backends[b].EP.Mem()
		base := s.Backends[b].Base
		if bytes.Equal(mem[base+nA:base+nA+nB], ep0.Mem()[srcB:srcB+nB]) {
			surv = b
		}
	}
	if surv < 0 {
		t.Error("no survivor holds pattern B in full")
	}
	vmem := s.Backends[victim].EP.Mem()
	vbase := s.Backends[victim].Base
	if !bytes.Equal(vmem[vbase:vbase+nA], ep0.Mem()[srcA:srcA+nA]) {
		t.Error("dead replica lost pattern A")
	}
	if bytes.Equal(vmem[vbase+nA:vbase+nA+nB], ep0.Mem()[srcB:srcB+nB]) {
		t.Error("dead replica holds ALL of pattern B: double apply")
	}
	if ep0.Stats.Abandons == 0 {
		t.Errorf("Abandons = 0, want the condemned epoch counted")
	}
}

// TestServiceRelayRouting: the client↔backend pair is blackholed while
// both still reach the relay; calls flow direct before the fault and
// through the relay after it, byte-verified, without condemning the
// backend.
func TestServiceRelayRouting(t *testing.T) {
	cl := cluster.New(recoveryConfig(3))
	reg := svc.NewRegistry()
	const region = 64 * 1024
	if _, err := reg.Register("kv", region, cl.Nodes[1].EP); err != nil {
		t.Fatal(err)
	}
	relay := svc.StartRelay(cl.Nodes[2].EP, reg, 3, 10*sim.Millisecond)
	ep0 := cl.Nodes[0].EP
	c, err := svc.Connect(ep0, reg, "kv", svc.Options{
		UseRelay:       true,
		FailoverBudget: 10 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := chaos.New(cl, 1)
	r.BlackholePair(2*sim.Millisecond, 0, 0, 1) // client 0 ↔ backend 1, forever

	const n = 4 * 1024
	src1 := ep0.Alloc(n)
	src2 := ep0.Alloc(n)
	back := ep0.Alloc(n)
	fill(ep0.Mem(), src1, n, 11)
	fill(ep0.Mem(), src2, n, 57)
	done := false
	cl.Env.Go("worker", func(p *sim.Proc) {
		// Direct while the path is up.
		if err := c.Call(p, 1, core.Op{Remote: 0, Local: src1, Size: n, Kind: frame.OpWrite}); err != nil {
			t.Fatalf("direct write: %v", err)
		}
		if got := c.Stats.RelayCalls; got != 0 {
			t.Fatalf("RelayCalls = %d before the fault, want 0", got)
		}
		p.Sleep(3 * sim.Millisecond) // blackhole is in force now
		// Relay once the path is severed.
		if err := c.Call(p, 1, core.Op{Remote: n, Local: src2, Size: n, Kind: frame.OpWrite}); err != nil {
			t.Fatalf("relayed write: %v", err)
		}
		if err := c.Call(p, 1, core.Op{Remote: n, Local: back, Size: n, Kind: frame.OpRead}); err != nil {
			t.Fatalf("relayed read: %v", err)
		}
		if !bytes.Equal(ep0.Mem()[back:back+n], ep0.Mem()[src2:src2+n]) {
			t.Fatal("relayed read-back differs")
		}
		c.Close(p)
		relay.Shutdown(p)
		done = true
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !done {
		t.Fatal("worker did not finish")
	}
	if c.Stats.RelayCalls != 2 {
		t.Errorf("RelayCalls = %d, want 2 (write + read)", c.Stats.RelayCalls)
	}
	if c.Stats.BackendsCondemned != 0 {
		t.Errorf("BackendsCondemned = %d, want 0: the backend is alive behind the relay", c.Stats.BackendsCondemned)
	}
	if el := c.EligibleBackends(); len(el) != 1 {
		t.Errorf("eligible = %v, want the relay-reached backend to stay in", el)
	}
	if relay.Stats.Forwarded != 2 || relay.Stats.BackendDead != 0 {
		t.Errorf("relay stats = %+v, want 2 forwarded, 0 dead", relay.Stats)
	}
	// The relayed write really landed on the backend.
	bmem := cl.Nodes[1].EP.Mem()
	s, _ := reg.Lookup("kv")
	if !bytes.Equal(bmem[s.Backends[0].Base+n:s.Backends[0].Base+2*n], ep0.Mem()[src2:src2+n]) {
		t.Error("backend region missing the relayed write")
	}
}

// TestServiceCallBatch: the SQ path issues a batch under one doorbell
// and the batch degrades to eager calls when the backend dies.
func TestServiceCallBatch(t *testing.T) {
	cl := cluster.New(recoveryConfig(3))
	reg := svc.NewRegistry()
	const region = 64 * 1024
	if _, err := reg.Register("kv", region, cl.Nodes[1].EP, cl.Nodes[2].EP); err != nil {
		t.Fatal(err)
	}
	ep0 := cl.Nodes[0].EP
	c, err := svc.Connect(ep0, reg, "kv", svc.Options{
		Balancer:       svc.NewAffinity(svc.NewRoundRobin()),
		FailoverBudget: 10 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const opN = 1024
	const ops = 8
	src := ep0.Alloc(opN * ops)
	back := ep0.Alloc(opN * ops)
	fill(ep0.Mem(), src, opN*ops, 9)
	done := false
	cl.Env.Go("worker", func(p *sim.Proc) {
		batch := make([]core.Op, ops)
		for i := range batch {
			batch[i] = core.Op{Remote: uint64(i * opN), Local: src + uint64(i*opN),
				Size: opN, Kind: frame.OpWrite}
		}
		if err := c.CallBatch(p, 5, batch); err != nil {
			t.Fatalf("batch: %v", err)
		}
		if c.Stats.BatchCalls != 1 || c.Stats.BatchOps != ops {
			t.Fatalf("BatchCalls=%d BatchOps=%d, want 1/%d", c.Stats.BatchCalls, c.Stats.BatchOps, ops)
		}
		if err := c.Call(p, 5, core.Op{Remote: 0, Local: back, Size: opN * ops, Kind: frame.OpRead}); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(ep0.Mem()[back:back+opN*ops], ep0.Mem()[src:src+opN*ops]) {
			t.Fatal("batched writes read back differently")
		}
		// Kill the bound backend; the next batch must still land (via
		// the degraded per-op failover path).
		victim := 0
		for b, n := range c.Stats.PerBackend {
			if n > 0 {
				victim = b
			}
		}
		s, _ := reg.Lookup("kv")
		cl.PauseNode(s.Backends[victim].Node)
		if err := c.CallBatch(p, 5, batch); err != nil {
			t.Fatalf("batch after kill: %v", err)
		}
		for i := range ep0.Mem()[back : back+opN*ops] {
			ep0.Mem()[back+uint64(i)] = 0
		}
		if err := c.Call(p, 5, core.Op{Remote: 0, Local: back, Size: opN * ops, Kind: frame.OpRead}); err != nil {
			t.Fatalf("read back 2: %v", err)
		}
		if !bytes.Equal(ep0.Mem()[back:back+opN*ops], ep0.Mem()[src:src+opN*ops]) {
			t.Fatal("survivor missing the failed-over batch")
		}
		c.Close(p)
		done = true
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !done {
		t.Fatal("worker did not finish")
	}
	if c.Stats.BackendsCondemned != 1 {
		t.Errorf("BackendsCondemned = %d, want 1", c.Stats.BackendsCondemned)
	}
}

// TestServiceBackendKillScenario drives the chaos Runner's KillNode
// against a replicated service with many concurrent sessions: every
// call either lands or fails over; after the dust settles all sessions
// verify their bytes on survivors.
func TestServiceBackendKillScenario(t *testing.T) {
	cl := cluster.New(recoveryConfig(4))
	reg := svc.NewRegistry()
	const region = 128 * 1024
	s, err := reg.Register("kv", region, cl.Nodes[1].EP, cl.Nodes[2].EP, cl.Nodes[3].EP)
	if err != nil {
		t.Fatal(err)
	}
	ep0 := cl.Nodes[0].EP
	c, err := svc.Connect(ep0, reg, "kv", svc.Options{
		Balancer:       svc.NewAffinity(svc.NewRoundRobin()),
		FailoverBudget: 10 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := chaos.New(cl, 99)
	r.KillNode(3*sim.Millisecond, s.Backends[0].Node)

	const sessions = 8
	const opN = 2048
	src := ep0.Alloc(opN * sessions)
	back := ep0.Alloc(opN * sessions)
	fill(ep0.Mem(), src, opN*sessions, 31)
	finished := 0
	for i := 0; i < sessions; i++ {
		tok, off := uint64(i), uint64(i*opN)
		cl.Env.Go("session", func(p *sim.Proc) {
			for round := 0; round < 4; round++ {
				if err := c.Call(p, tok, core.Op{Remote: off, Local: src + off,
					Size: opN, Kind: frame.OpWrite}); err != nil {
					t.Errorf("session %d round %d write: %v", tok, round, err)
					return
				}
				p.Sleep(sim.Millisecond)
			}
			if err := c.Call(p, tok, core.Op{Remote: off, Local: back + off,
				Size: opN, Kind: frame.OpRead}); err != nil {
				t.Errorf("session %d read: %v", tok, err)
				return
			}
			if !bytes.Equal(ep0.Mem()[back+off:back+off+opN], ep0.Mem()[src+off:src+off+opN]) {
				t.Errorf("session %d bytes differ", tok)
			}
			finished++
		})
	}
	closer := false
	cl.Env.Go("closer", func(p *sim.Proc) {
		for finished < sessions {
			p.Sleep(sim.Millisecond)
		}
		c.Close(p)
		closer = true
	})
	cl.Env.RunUntil(60 * sim.Second)
	if finished != sessions || !closer {
		t.Fatalf("finished %d/%d sessions (closer=%v)", finished, sessions, closer)
	}
	if c.Stats.BackendsCondemned != 1 {
		t.Errorf("BackendsCondemned = %d, want exactly the killed replica", c.Stats.BackendsCondemned)
	}
	if len(c.EligibleBackends()) != 2 {
		t.Errorf("eligible = %v, want 2 survivors", c.EligibleBackends())
	}
}
