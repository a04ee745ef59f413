package multiedge_test

import (
	"bytes"
	"fmt"
	"testing"

	"multiedge"
	"multiedge/internal/chaos"
	"multiedge/internal/dsm"
)

// TestPublicAPIQuickstart exercises the README flow through the public
// facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	cl := multiedge.NewCluster(multiedge.OneLink1G(2))
	c01, c10 := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	msg := []byte("facade quickstart")
	src := ep0.Alloc(len(msg))
	dst := ep1.Alloc(len(msg))
	copy(ep0.Mem()[src:], msg)

	var acked, notified bool
	cl.Env.Go("writer", func(p *multiedge.Proc) {
		h := c01.MustDo(p, multiedge.Op{Remote: dst, Local: src, Size: len(msg), Kind: multiedge.OpWrite, Flags: multiedge.Notify})
		h.Wait(p)
		acked = true
	})
	cl.Env.Go("reader", func(p *multiedge.Proc) {
		n := c10.WaitNotify(p)
		notified = bytes.Equal(ep1.Mem()[n.Addr:n.Addr+uint64(n.Len)], msg)
	})
	cl.Env.RunUntil(multiedge.Second)
	if !acked || !notified {
		t.Fatalf("acked=%v notified=%v", acked, notified)
	}
}

// TestPublicAPIRun issues a write and a read through Conn.Run, the
// facade's wait-for-the-error form of Do.
func TestPublicAPIRun(t *testing.T) {
	cl := multiedge.NewCluster(multiedge.OneLink1G(2))
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	msg := []byte("facade run")
	src, dst, back := ep0.Alloc(len(msg)), ep1.Alloc(len(msg)), ep0.Alloc(len(msg))
	copy(ep0.Mem()[src:], msg)
	var werr, rerr error
	cl.Env.Go("runner", func(p *multiedge.Proc) {
		werr = c01.Run(p, multiedge.Op{Remote: dst, Local: src, Size: len(msg), Kind: multiedge.OpWrite})
		rerr = c01.Run(p, multiedge.Op{Remote: dst, Local: back, Size: len(msg), Kind: multiedge.OpRead})
	})
	cl.Env.RunUntil(multiedge.Second)
	if werr != nil || rerr != nil || !bytes.Equal(ep0.Mem()[back:back+uint64(len(msg))], msg) {
		t.Fatalf("write %v, read %v, read back %q", werr, rerr, ep0.Mem()[back:back+uint64(len(msg))])
	}
}

// TestPublicAPIDSM exercises the shared-memory layer through the facade.
func TestPublicAPIDSM(t *testing.T) {
	cfg := multiedge.TwoLinkUnordered1G(3)
	cfg.Core.MemBytes = 8 << 20
	cl := multiedge.NewCluster(cfg)
	sys := multiedge.NewDSM(cl, cl.FullMesh(), multiedge.DSMConfig{SharedBytes: 1 << 20})
	addr := sys.AllocPages(3 * 8)
	done := 0
	for _, in := range sys.Insts {
		in := in
		cl.Env.Go(fmt.Sprintf("n%d", in.Node()), func(p *multiedge.Proc) {
			b := in.WSlice(p, addr+uint64(8*in.Node()), 8)
			dsm.SetU64(b, 0, uint64(in.Node())+100)
			in.Barrier(p)
			all := in.RSlice(p, addr, 3*8)
			for j := 0; j < 3; j++ {
				if dsm.U64(all, j) != uint64(j)+100 {
					t.Errorf("node %d sees slot %d = %d", in.Node(), j, dsm.U64(all, j))
				}
			}
			done++
		})
	}
	cl.Env.RunUntil(10 * multiedge.Second)
	if done != 3 {
		t.Fatalf("done = %d/3", done)
	}
}

// TestPublicAPIService drives the service layer end to end through the
// facade only: functional cluster options, Serve/Connect with every
// ConnectOption, balancer constructors, a live relay, the stats and
// error surface, and a kill-driven failover.
func TestPublicAPIService(t *testing.T) {
	cfg := multiedge.OneLink1G(5)
	cfg.Core.RTOMax = 2 * multiedge.Millisecond
	cfg.Core.MaxRetries = 3
	cl := multiedge.NewCluster(cfg,
		multiedge.WithReconnect(3),
		multiedge.WithHeartbeat(multiedge.Millisecond, 5*multiedge.Millisecond),
		multiedge.WithSchedQueue(),
		multiedge.WithSeed(7))

	reg := multiedge.NewRegistry()
	backends := []*multiedge.Endpoint{cl.Nodes[1].EP, cl.Nodes[2].EP, cl.Nodes[3].EP}
	s, err := multiedge.Serve(reg, "kv", 1<<15, backends,
		multiedge.WithRelay(cl.Nodes[4].EP, 4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Replicas() != 3 {
		t.Fatalf("replicas = %d, want 3", s.Replicas())
	}
	if _, ok := reg.Relay(); !ok {
		t.Fatal("WithRelay did not register a relay")
	}
	if _, err := multiedge.Connect(cl.Nodes[0].EP, reg, "nope"); err == nil {
		t.Fatal("Connect to unknown service succeeded")
	}

	stub, err := multiedge.Connect(cl.Nodes[0].EP, reg, "kv",
		multiedge.WithBalancer(multiedge.NewAffinity(multiedge.NewRoundRobin())),
		multiedge.WithFailoverBudget(10*multiedge.Millisecond),
		multiedge.WithMaxAttempts(3),
		multiedge.WithCallLinks(0))
	if err != nil {
		t.Fatal(err)
	}
	_ = multiedge.NewRandom(42) // balancer constructors are part of the surface
	_ = multiedge.DefaultFailoverBudget
	_ = multiedge.ErrNoBackends
	_ = multiedge.ErrBadCall
	_ = multiedge.ErrNoRelay
	_ = multiedge.ErrRelayFailed

	ep0 := cl.Nodes[0].EP
	const n = 4096
	src := ep0.Alloc(n)
	chk := ep0.Alloc(n)
	for i := 0; i < n; i++ {
		ep0.Mem()[src+uint64(i)] = byte(i * 3)
	}
	done := false
	cl.Env.Go("caller", func(p *multiedge.Proc) {
		if err := stub.Call(p, 1, multiedge.Op{
			Remote: 0, Local: src, Size: n, Kind: multiedge.OpWrite,
		}); err != nil {
			t.Errorf("write call: %v", err)
		}
		// Kill the bound backend; the rewrite must fail over and the
		// read-back must match from the survivor.
		bound := -1
		for b, calls := range stub.Stats.PerBackend {
			if calls > 0 {
				bound = b
			}
		}
		cl.PauseNode(s.Backends[bound].Node)
		if err := stub.Call(p, 1, multiedge.Op{
			Remote: 0, Local: src, Size: n, Kind: multiedge.OpWrite,
		}); err != nil {
			t.Errorf("failover write: %v", err)
		}
		if err := stub.Call(p, 1, multiedge.Op{
			Remote: 0, Local: chk, Size: n, Kind: multiedge.OpRead,
		}); err != nil {
			t.Errorf("read call: %v", err)
		}
		if !bytes.Equal(ep0.Mem()[chk:chk+n], ep0.Mem()[src:src+n]) {
			t.Error("service read-back mismatch after failover")
		}
		stub.Close(p)
		done = true
	})
	cl.Env.RunUntil(30 * multiedge.Second)
	if !done {
		t.Fatal("caller did not finish")
	}
	var st *multiedge.ServiceStats = &stub.Stats
	if st.BackendsCondemned != 1 || st.Failovers == 0 {
		t.Errorf("condemned=%d failovers=%d, want 1/>0", st.BackendsCondemned, st.Failovers)
	}
	if len(stub.EligibleBackends()) != 2 {
		t.Errorf("eligible = %v, want the two survivors", stub.EligibleBackends())
	}
}

// TestPublicAPIQoS drives the multi-tenant QoS surface through the
// facade only: WithQoS class tables (implying the sched queue),
// WithTenantClass on a service stub, the ErrThrottled error surface,
// and the per-class admission accounting it all feeds.
func TestPublicAPIQoS(t *testing.T) {
	cl := multiedge.NewCluster(multiedge.OneLink1G(3),
		multiedge.WithQoS(
			multiedge.QoSClass{Weight: 1},
			multiedge.QoSClass{Weight: 4, RateBps: 250e6, Burst: 16 << 10, MaxQueued: 8, MaxQueuedBytes: 1 << 20},
		),
		multiedge.WithSeed(7))
	_ = multiedge.ErrThrottled // part of the public error surface

	reg := multiedge.NewRegistry()
	if _, err := multiedge.Serve(reg, "kv", 1<<15,
		[]*multiedge.Endpoint{cl.Nodes[1].EP, cl.Nodes[2].EP}); err != nil {
		t.Fatal(err)
	}
	stub, err := multiedge.Connect(cl.Nodes[0].EP, reg, "kv",
		multiedge.WithTenantClass(1))
	if err != nil {
		t.Fatal(err)
	}

	ep0 := cl.Nodes[0].EP
	const n = 2048
	src := ep0.Alloc(n)
	chk := ep0.Alloc(n)
	for i := 0; i < n; i++ {
		ep0.Mem()[src+uint64(i)] = byte(i * 5)
	}
	done := false
	cl.Env.Go("caller", func(p *multiedge.Proc) {
		for i := 0; i < 8; i++ {
			if err := stub.Call(p, 1, multiedge.Op{
				Remote: 0, Local: src, Size: n, Kind: multiedge.OpWrite,
			}); err != nil {
				t.Errorf("write call %d: %v", i, err)
			}
		}
		if err := stub.Call(p, 1, multiedge.Op{
			Remote: 0, Local: chk, Size: n, Kind: multiedge.OpRead,
		}); err != nil {
			t.Errorf("read call: %v", err)
		}
		if !bytes.Equal(ep0.Mem()[chk:chk+n], ep0.Mem()[src:src+n]) {
			t.Error("service read-back mismatch")
		}
		stub.Close(p)
		done = true
	})
	cl.Env.RunUntil(10 * multiedge.Second)
	if !done {
		t.Fatal("caller did not finish")
	}
	// WithTenantClass tagged the stub's conns and ops: every call was
	// admitted under class 1 at the issuing endpoint.
	if got := ep0.Stats.QosOpsAdmitted; got != 9 {
		t.Errorf("QosOpsAdmitted = %d, want 9", got)
	}
}

// TestPublicAPIRelayTypes pins the relay surface: StartRelay wiring, a
// forwarded call when the direct path is blackholed, and RelayStats.
func TestPublicAPIRelayTypes(t *testing.T) {
	cfg := multiedge.OneLink1G(3)
	cfg.Core.RTOMax = 2 * multiedge.Millisecond
	cfg.Core.MaxRetries = 3
	cl := multiedge.NewCluster(cfg,
		multiedge.WithReconnect(0),
		multiedge.WithHeartbeat(multiedge.Millisecond, 5*multiedge.Millisecond))
	reg := multiedge.NewRegistry()
	if _, err := multiedge.Serve(reg, "kv", 8192,
		[]*multiedge.Endpoint{cl.Nodes[1].EP}); err != nil {
		t.Fatal(err)
	}
	var relay *multiedge.Relay = multiedge.StartRelay(cl.Nodes[2].EP, reg, 2, 10*multiedge.Millisecond)
	stub, err := multiedge.Connect(cl.Nodes[0].EP, reg, "kv",
		multiedge.WithRelayFallback(),
		multiedge.WithFailoverBudget(10*multiedge.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ep0 := cl.Nodes[0].EP
	src := ep0.Alloc(1024)
	for i := range ep0.Mem()[src : src+1024] {
		ep0.Mem()[src+uint64(i)] = byte(i ^ 0x5a)
	}
	// Break the direct client->backend path only; the relay still
	// reaches both sides.
	chaos.New(cl, 1).BlackholePair(2*multiedge.Millisecond, 0, 0, 1)
	ok := false
	cl.Env.Go("caller", func(p *multiedge.Proc) {
		p.Sleep(3 * multiedge.Millisecond)
		if err := stub.Call(p, 9, multiedge.Op{
			Remote: 0, Local: src, Size: 1024, Kind: multiedge.OpWrite,
		}); err != nil {
			t.Errorf("relayed call: %v", err)
		}
		stub.Close(p)
		relay.Shutdown(p)
		ok = true
	})
	cl.Env.RunUntil(30 * multiedge.Second)
	if !ok {
		t.Fatal("caller did not finish")
	}
	var rs multiedge.RelayStats = relay.Stats
	if rs.Forwarded == 0 {
		t.Errorf("relay forwarded %d calls, want > 0 (stats %+v)", rs.Forwarded, rs)
	}
	kv, _ := reg.Lookup("kv")
	var b multiedge.ServiceBackend = kv.Backends[0]
	if !bytes.Equal(cl.Nodes[b.Node].EP.Mem()[b.Base:b.Base+1024], ep0.Mem()[src:src+1024]) {
		t.Error("relayed write did not land in the backend region")
	}
}

// TestPublicAPIFences checks the facade exposes the paper's flags with
// working semantics.
func TestPublicAPIFences(t *testing.T) {
	cl := multiedge.NewCluster(multiedge.TwoLinkUnordered1G(2))
	c01, c10 := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const n = 128 * 1024
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)
	for i := 0; i < n; i++ {
		ep0.Mem()[src+uint64(i)] = byte(i)
	}
	ok := false
	cl.Env.Go("w", func(p *multiedge.Proc) {
		c01.MustDo(p, multiedge.Op{Remote: dst, Local: src, Size: n, Kind: multiedge.OpWrite})
		c01.MustDo(p, multiedge.Op{Kind: multiedge.OpWrite, Flags: multiedge.FenceBefore | multiedge.Notify})
	})
	cl.Env.Go("r", func(p *multiedge.Proc) {
		c10.WaitNotify(p)
		ok = bytes.Equal(ep1.Mem()[dst:dst+n], ep0.Mem()[src:src+n])
	})
	cl.Env.RunUntil(10 * multiedge.Second)
	if !ok {
		t.Fatal("fence semantics broken through facade")
	}
}
