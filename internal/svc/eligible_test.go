package svc

import (
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// TestEligibleTracksHealth (white-box): the eligible set follows
// Conn.Health — undialed and established backends are in, a
// reconnecting backend STAYS in (affinity can ride out an outage), and
// only condemnation (failed Call past the budget) removes one.
func TestEligibleTracksHealth(t *testing.T) {
	cfg := cluster.OneLink1G(3)
	cfg.Core.Reconnect = true
	cfg.Core.DeadInterval = 5 * sim.Millisecond
	cfg.Core.RTOMax = 2 * sim.Millisecond
	cfg.Core.HeartbeatInterval = sim.Millisecond
	cfg.Core.MaxRetries = 3
	cl := cluster.New(cfg)
	reg := NewRegistry()
	if _, err := reg.Register("kv", 8192, cl.Nodes[1].EP, cl.Nodes[2].EP); err != nil {
		t.Fatal(err)
	}
	ep0 := cl.Nodes[0].EP
	c, err := Connect(ep0, reg, "kv", Options{
		Balancer:       NewAffinity(NewRoundRobin()),
		FailoverBudget: 8 * sim.Millisecond,
		MaxAttempts:    1, // no failover: a budget miss surfaces as an error
	})
	if err != nil {
		t.Fatal(err)
	}
	src := ep0.Alloc(4096)
	done := false
	cl.Env.Go("worker", func(p *sim.Proc) {
		// Before any dial: both backends eligible (lazy conns count).
		if el := c.EligibleBackends(); len(el) != 2 {
			t.Fatalf("eligible before dial = %v, want [0 1]", el)
		}
		if err := c.Call(p, 3, core.Op{Local: src, Size: 4096, Kind: frame.OpWrite}); err != nil {
			t.Fatalf("first call: %v", err)
		}
		bound := -1
		for b, n := range c.Stats.PerBackend {
			if n > 0 {
				bound = b
			}
		}
		// Pause the bound backend's node and wait for the conn to park
		// in Reconnecting: it must remain eligible.
		s, _ := reg.Lookup("kv")
		cl.PauseNode(s.Backends[bound].Node)
		for c.conns[bound].State() != core.Reconnecting && c.conns[bound].Err() == nil {
			p.Sleep(sim.Millisecond)
		}
		if got := c.conns[bound].Health().State; got != "reconnecting" {
			t.Fatalf("health state = %q, want reconnecting", got)
		}
		if el := c.EligibleBackends(); len(el) != 2 {
			t.Errorf("eligible while reconnecting = %v, want both (outages are survivable)", el)
		}
		// A call into the parked conn misses the budget; with
		// MaxAttempts 1 that condemns the backend and errors out.
		if err := c.Call(p, 3, core.Op{Local: src, Size: 4096, Kind: frame.OpWrite}); err == nil {
			t.Error("call on a dead backend with MaxAttempts=1 succeeded")
		}
		el := c.EligibleBackends()
		if len(el) != 1 || el[0] == bound {
			t.Errorf("eligible after condemnation = %v, want only the survivor", el)
		}
		// The next call for the same token rebinds and succeeds.
		if err := c.Call(p, 3, core.Op{Local: src, Size: 4096, Kind: frame.OpWrite}); err != nil {
			t.Errorf("rebound call: %v", err)
		}
		c.Close(p)
		done = true
	})
	cl.Env.RunUntil(30 * sim.Second)
	if !done {
		t.Fatal("worker did not finish")
	}
	if c.Stats.BackendsCondemned != 1 || c.Stats.CallsFailed != 1 {
		t.Errorf("Condemned=%d CallsFailed=%d, want 1/1", c.Stats.BackendsCondemned, c.Stats.CallsFailed)
	}
}
