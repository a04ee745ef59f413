package cluster

import (
	"bytes"
	"strings"
	"testing"

	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// TestReconnectMetricsMove drives a real supervised reconnect (outage
// longer than DeadInterval) with the registry on and asserts the
// recovery instrumentation added alongside the reconnect subsystem
// actually registers and moves: the reconnect counter, both recovery
// histograms, and the endpoint gauges.
func TestReconnectMetricsMove(t *testing.T) {
	cfg := OneLink1G(2)
	cfg.Core.Reconnect = true
	cfg.Core.DeadInterval = 25 * sim.Millisecond
	cfg.Core.HeartbeatInterval = 5 * sim.Millisecond
	cfg.Core.ReconnectBackoff = 2 * sim.Millisecond
	cfg.Obs = ObsOptions{Metrics: true, SampleEvery: -1, Recorder: true}
	cl := New(cfg)
	c01, _ := cl.Pair()

	src := cl.Nodes[0].EP.Alloc(4 << 10)
	dst := cl.Nodes[1].EP.Alloc(4 << 10)
	done := false
	cl.Env.Go("writer", func(p *sim.Proc) {
		for i := 0; !done; i++ {
			h := c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: 4 << 10, Kind: frame.OpWrite})
			h.Wait(p)
			if h.Err() != nil {
				t.Errorf("transfer %d failed: %v", i, h.Err())
				break
			}
		}
		c01.Close(p)
	})
	cl.Env.Go("driver", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		cl.PauseNode(1)
		p.Sleep(100 * sim.Millisecond) // well past DeadInterval: forces park + redial
		cl.ResumeNode(1)
		p.Sleep(100 * sim.Millisecond)
		done = true
	})
	cl.Env.Run()
	cl.Obs.Quiesce()

	if cl.Nodes[0].EP.Stats.Reconnects == 0 {
		t.Fatal("outage did not drive a supervised reconnect; test is vacuous")
	}
	snap := cl.Obs.Gather()
	n0 := obs.NodeLabel(0)
	if v, ok := snap.Get("core_reconnects_total", n0); !ok || v == 0 {
		t.Fatalf("core_reconnects_total = %v, %v; want > 0", v, ok)
	}
	if v, ok := snap.Get("core_reconnect_outage_us_count", n0); !ok || v == 0 {
		t.Fatalf("core_reconnect_outage_us_count = %v, %v; want > 0", v, ok)
	}
	if v, ok := snap.Get("core_reconnect_outage_us_sum", n0); !ok || v <= 0 {
		t.Fatalf("core_reconnect_outage_us_sum = %v, %v; want > 0 (outage took time)", v, ok)
	}
	if v, ok := snap.Get("core_reconnect_attempts_count", n0); !ok || v == 0 {
		t.Fatalf("core_reconnect_attempts_count = %v, %v; want > 0", v, ok)
	}
	if v, ok := snap.Get("core_rto_expiries_total", n0); !ok || v == 0 {
		t.Fatalf("core_rto_expiries_total = %v, %v; want > 0 during an outage", v, ok)
	}
	// Endpoint gauges must be present (zero is correct after teardown).
	for _, g := range []string{"core_active_conns", "core_sched_queue_depth"} {
		if _, ok := snap.Get(g, n0); !ok {
			t.Fatalf("gauge %s not registered", g)
		}
	}

	// The flight recorder must hold the same story: park, redial, rebirth.
	var kinds []obs.Kind
	for _, ev := range cl.Recorders[0].Events() {
		kinds = append(kinds, ev.Kind)
	}
	for _, want := range []obs.Kind{obs.EvReconnect, obs.EvRedial, obs.EvRebirth} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("recorder missing %v; got %v", want, kinds)
		}
	}
}

// TestQoSMetricsExport is the QoS double-scrape golden test: with the
// registry and a QoS class table on, the per-class qos_* series export
// deterministically (two scrapes byte-identical) carrying a tenant
// label, and the counters for a class that actually carried traffic
// move while an idle class's stay zero.
func TestQoSMetricsExport(t *testing.T) {
	cfg := OneLink1G(2)
	cfg.Core.SchedQueue = true
	cfg.Core.QoS = []core.QoSClass{
		{Weight: 1},
		{Weight: 4, RateBps: 500e6, Burst: 16 << 10, MaxQueued: 8, MaxQueuedBytes: 1 << 20},
		{Weight: 2}, // never used: its counters must export as zeros
	}
	cfg.Obs = ObsOptions{Metrics: true, SampleEvery: -1}
	cl := New(cfg)
	server := cl.Nodes[0].EP
	client := cl.Nodes[1].EP

	const size = 4 << 10
	src := client.Alloc(size)
	dst := server.Alloc(size)
	cl.Env.Go("writer", func(p *sim.Proc) {
		c := client.Dial(p, 0, 0)
		c.SetClass(1)
		for i := 0; i < 32; i++ {
			c.MustDo(p, core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite}).Wait(p)
		}
		c.Close(p)
	})
	cl.Env.Run()
	cl.Obs.Quiesce()

	one := cl.Obs.Gather().Prometheus()
	two := cl.Obs.Gather().Prometheus()
	if !bytes.Equal(one, two) {
		t.Fatalf("double scrape differs:\n--- first\n%s\n--- second\n%s", one, two)
	}
	if !strings.Contains(string(one), `qos_admitted_total{node="1",tenant="1"}`) {
		t.Fatalf("export lacks a tenant-labeled qos_* series:\n%s", one)
	}

	snap := cl.Obs.Gather()
	busy := []obs.Label{obs.NodeLabel(1), obs.L("tenant", "1")}
	idle := []obs.Label{obs.NodeLabel(1), obs.L("tenant", "2")}
	if v, ok := snap.Get("qos_admitted_total", busy...); !ok || v != 32 {
		t.Fatalf("qos_admitted_total{tenant=1} = %v, %v; want 32", v, ok)
	}
	if v, ok := snap.Get("qos_frames_sent_total", busy...); !ok || v == 0 {
		t.Fatalf("qos_frames_sent_total{tenant=1} = %v, %v; want > 0", v, ok)
	}
	if v, ok := snap.Get("qos_bytes_sent_total", busy...); !ok || v < 32*size {
		t.Fatalf("qos_bytes_sent_total{tenant=1} = %v, %v; want >= %d", v, ok, 32*size)
	}
	if v, ok := snap.Get("qos_admitted_total", idle...); !ok || v != 0 {
		t.Fatalf("qos_admitted_total{tenant=2} = %v, %v; want registered zero", v, ok)
	}
	// Quota gauges must read empty after teardown: admission releases
	// every charge exactly once.
	for _, g := range []string{"qos_pending_ops", "qos_pending_bytes"} {
		if v, ok := snap.Get(g, busy...); !ok || v != 0 {
			t.Fatalf("%s{tenant=1} = %v, %v; want 0 after drain", g, v, ok)
		}
	}
}

// TestHealthSamplerTimeline: a cluster with HealthEvery on produces a
// per-node health timeline whose entries track connection state.
func TestHealthSamplerTimeline(t *testing.T) {
	cfg := OneLink1G(2)
	cfg.Obs = ObsOptions{HealthEvery: 5 * sim.Millisecond, SampleEvery: -1}
	cl := New(cfg)
	c01, _ := cl.Pair()
	src := cl.Nodes[0].EP.Alloc(64 << 10)
	dst := cl.Nodes[1].EP.Alloc(64 << 10)
	cl.Env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(2 * sim.Millisecond)
			h := c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: 64 << 10, Kind: frame.OpWrite})
			h.Wait(p)
		}
		c01.Close(p)
	})
	cl.Env.Run()
	cl.Obs.Quiesce()

	logs := cl.Obs.HealthLogs()
	if len(logs) != 2 {
		t.Fatalf("health logs = %d; want one per node", len(logs))
	}
	sawEstablished := false
	var sawBytes uint64
	for _, e := range logs[0].Entries {
		if e.Node != 0 {
			t.Fatalf("node 0 log holds node %d entry", e.Node)
		}
		for _, c := range e.Conns {
			if c.State == "established" {
				sawEstablished = true
			}
			if c.BytesAcked > sawBytes {
				sawBytes = c.BytesAcked
			}
		}
	}
	if len(logs[0].Entries) < 5 {
		t.Fatalf("only %d samples over a ~45ms run at 5ms period", len(logs[0].Entries))
	}
	if !sawEstablished || sawBytes == 0 {
		t.Fatalf("timeline never saw an established conn with acked bytes (established=%v bytes=%d)",
			sawEstablished, sawBytes)
	}
}
