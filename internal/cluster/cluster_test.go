package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

func TestPresetsMatchPaperSetups(t *testing.T) {
	cases := []struct {
		cfg    Config
		links  int
		rate   float64
		strict bool
	}{
		{OneLink1G(16), 1, 125e6, false},
		{TwoLink1G(16), 2, 125e6, true},
		{TwoLinkUnordered1G(16), 2, 125e6, false},
		{OneLink10G(4), 1, 1.25e9, false},
	}
	for _, c := range cases {
		if c.cfg.LinksPerNode != c.links {
			t.Errorf("%s: links = %d, want %d", c.cfg.Name, c.cfg.LinksPerNode, c.links)
		}
		if got := c.cfg.Link.BytesPerSec(); got != c.rate {
			t.Errorf("%s: rate = %v, want %v", c.cfg.Name, got, c.rate)
		}
		if c.cfg.Core.Strict != c.strict {
			t.Errorf("%s: strict = %v, want %v", c.cfg.Name, c.cfg.Core.Strict, c.strict)
		}
	}
	if !OneLink10G(4).NIC.TxIntrUnmaskable {
		t.Error("10G preset must model unmaskable transmit interrupts")
	}
	if OneLink1G(16).NIC.TxIntrUnmaskable {
		t.Error("1G preset must not have unmaskable transmit interrupts")
	}
}

func TestNewBuildsTopology(t *testing.T) {
	cl := New(TwoLink1G(5))
	if len(cl.Nodes) != 5 || len(cl.Switches) != 2 {
		t.Fatalf("nodes=%d switches=%d", len(cl.Nodes), len(cl.Switches))
	}
	for i, n := range cl.Nodes {
		if n.ID != i || len(n.NICs) != 2 {
			t.Errorf("node %d malformed", i)
		}
		if n.NICs[0].Addr() != frame.NewAddr(i, 0) {
			t.Errorf("node %d NIC0 addr %v", i, n.NICs[0].Addr())
		}
	}
}

// New leaves nothing behind in a sync.Pool. What a pool holds lives through
// one collection and dies in the next, so a live-heap reading taken after
// New would depend on how many collections ran since the last Put: the
// benchmark reads the heap before and after the first dial, and fmt's
// printer pool, used for the names, swung bytes_per_conn by 760 B divided
// by the conns of the workload (EXPERIMENTS.md, ISSUE 24, "Steady heap
// readings"). With the collector's own schedule switched off, two readings
// one collection apart must agree to within what the test binary's own
// goroutines allocate meanwhile (±96 B in one run of a hundred), and the
// names are what fmt made of them.
func TestNewLeavesNothingPooled(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	live()
	live() // pools empty
	cl := New(TwoLinkUnordered1G(2))
	defer cl.Close()
	first, second := live(), live()
	if first > second+256 {
		t.Errorf("live heap after New: %d B, one collection later %d B: New parked %d B in a pool",
			first, second, int64(first)-int64(second))
	}
	nic := cl.Nodes[1].NICs[1]
	if got := []string{nic.Name(), nic.Addr().String(), cl.Nodes[1].CPUs.Proto.Name()}; !reflect.DeepEqual(got,
		[]string{"n1/nic1", "1:1", "n1/cpu1-proto"}) {
		t.Errorf("names %q", got)
	}
}

func TestFullMeshEstablishesAllPairs(t *testing.T) {
	cl := New(OneLink1G(6))
	conns := cl.FullMesh()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				if conns[i][j] != nil {
					t.Errorf("self connection %d", i)
				}
				continue
			}
			c := conns[i][j]
			if c == nil || c.State() == core.Dialing || c.RemoteNode() != j {
				t.Errorf("conn %d->%d broken", i, j)
			}
		}
	}
}

func TestCollectAndSub(t *testing.T) {
	cl := New(OneLink1G(2))
	c01, _ := cl.Pair()
	before := cl.Collect()
	src := cl.Nodes[0].EP.Alloc(4096)
	dst := cl.Nodes[1].EP.Alloc(4096)
	cl.Env.Go("w", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: 4096, Kind: frame.OpWrite})).Wait(p)
	})
	cl.Env.RunUntil(sim.Second)
	diff := cl.Collect().Sub(before)
	if diff.Proto.DataFramesSent == 0 || diff.WireFrames == 0 {
		t.Errorf("window diff empty: %+v", diff.Proto)
	}
	if diff.Proto.DataBytesSent != 4096 {
		t.Errorf("window diff payload = %d, want 4096", diff.Proto.DataBytesSent)
	}
}

// TestValidateQoS covers every QoS knob Validate checks: a well-formed
// class table passes, and each malformed knob is rejected with an error
// naming the offending class and field.
func TestValidateQoS(t *testing.T) {
	qosCfg := func(sched bool, classes ...core.QoSClass) Config {
		cfg := OneLink1G(2)
		cfg.Core.SchedQueue = sched
		cfg.Core.QoS = classes
		return cfg
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; "" = must validate
	}{
		{"no-qos", OneLink1G(2), ""},
		{"valid-weights", qosCfg(true, core.QoSClass{Weight: 1}, core.QoSClass{Weight: 8}), ""},
		{"valid-full-knobs", qosCfg(true, core.QoSClass{Weight: 1},
			core.QoSClass{Weight: 2, RateBps: 100e6, Burst: 8 << 10, MaxQueued: 16, MaxQueuedBytes: 1 << 20}), ""},
		{"needs-schedqueue", qosCfg(false, core.QoSClass{Weight: 1}),
			"QoS requires SchedQueue"},
		{"zero-weight", qosCfg(true, core.QoSClass{Weight: 1}, core.QoSClass{Weight: 0}),
			"QoS class 1: weight 0 must be >= 1"},
		{"negative-weight", qosCfg(true, core.QoSClass{Weight: -3}),
			"QoS class 0: weight -3 must be >= 1"},
		{"negative-rate", qosCfg(true, core.QoSClass{Weight: 1, RateBps: -1}),
			"QoS class 0: negative rate limit -1"},
		{"negative-burst", qosCfg(true, core.QoSClass{Weight: 1, RateBps: 1e6, Burst: -64}),
			"QoS class 0: negative burst -64"},
		{"burst-without-rate", qosCfg(true, core.QoSClass{Weight: 1, Burst: 4096}),
			"QoS class 0: burst 4096 without a rate limit"},
		{"negative-op-quota", qosCfg(true, core.QoSClass{Weight: 1, MaxQueued: -2}),
			"QoS class 0: negative queue quota -2"},
		{"negative-byte-quota", qosCfg(true, core.QoSClass{Weight: 1, MaxQueuedBytes: -9}),
			"QoS class 0: negative byte quota -9"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateCongestionControl covers the congestion-control and
// fabric knobs Validate checks: well-formed configurations pass, and
// each malformed knob is rejected with an error naming the offending
// field — zero/negative window bounds, an ECN threshold the queue
// could never reach, and congestion control without the scheduler it
// gates.
func TestValidateCongestionControl(t *testing.T) {
	ccCfg := func(sched bool, cc core.CCConfig) Config {
		cfg := OneLink1G(2)
		cfg.Core.SchedQueue = sched
		cfg.Core.CongestionControl = cc
		return cfg
	}
	mut := func(cfg Config, f func(*Config)) Config { f(&cfg); return cfg }
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; "" = must validate
	}{
		{"cc-off", OneLink1G(2), ""},
		{"cc-valid-defaults", ccCfg(true, core.CCConfig{Enable: true}), ""},
		{"cc-valid-full-knobs", ccCfg(true, core.CCConfig{Enable: true, InitWindow: 8}), ""},
		{"ecn-valid", mut(OneLink1G(2), func(c *Config) { c.EcnThreshold = 8 }), ""},
		{"clos-valid", mut(TreeOneLink1G(8, 4, 1), func(c *Config) { c.Spines = 2 }), ""},
		{"cc-needs-schedqueue", ccCfg(false, core.CCConfig{Enable: true}),
			"CongestionControl requires SchedQueue"},
		{"cc-knobs-without-enable", ccCfg(true, core.CCConfig{InitWindow: 8}),
			"without Enable do nothing"},
		{"cc-negative-bound", ccCfg(true, core.CCConfig{Enable: true, InitWindow: -1}),
			"negative CongestionControl bound"},
		{"cc-init-above-max", mut(ccCfg(true, core.CCConfig{Enable: true, InitWindow: 9}),
			func(c *Config) { c.Core.Window = 4 }), "InitWindow 9 above Window 4"},
		{"negative-spines", mut(OneLink1G(2), func(c *Config) { c.Spines = -1 }),
			"negative Spines"},
		{"spines-without-edges", mut(OneLink1G(4), func(c *Config) { c.Spines = 2 }),
			"without EdgeGroup"},
		{"negative-ecn-threshold", mut(OneLink1G(2), func(c *Config) { c.EcnThreshold = -4 }),
			"negative EcnThreshold"},
		{"ecn-beyond-queue-cap", mut(OneLink1G(2), func(c *Config) {
			c.Switch.QueueCap = 16
			c.EcnThreshold = 32
		}), "beyond switch queue capacity"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-node cluster did not panic")
		}
	}()
	New(Config{Nodes: 0, LinksPerNode: 1})
}

func TestTreeTopologyForwarding(t *testing.T) {
	// 8 nodes, 4 per edge switch: intra-group and inter-group traffic
	// must both work, and inter-group latency must exceed intra-group
	// (one vs three store-and-forward hops).
	cfg := TreeOneLink1G(8, 4, 1)
	cl := New(cfg)
	conns := cl.FullMesh()
	if len(cl.Switches) != 3 { // core + 2 edges
		t.Fatalf("switches = %d, want 3", len(cl.Switches))
	}
	measure := func(from, to int) sim.Time {
		src := cl.Nodes[from].EP.Alloc(64)
		dst := cl.Nodes[to].EP.Alloc(64)
		var t0, t1 sim.Time
		cl.Env.Go("m", func(p *sim.Proc) {
			t0 = cl.Env.Now()
			must(conns[from][to].Do(p, core.Op{Remote: dst, Local: src, Size: 64, Kind: frame.OpWrite, Flags: frame.Notify})).Wait(p)
			t1 = cl.Env.Now()
		})
		cl.Env.RunUntil(cl.Env.Now() + sim.Second)
		return t1 - t0
	}
	intra := measure(0, 1) // same edge switch
	inter := measure(0, 5) // across the core
	if intra <= 0 || inter <= 0 {
		t.Fatalf("latencies intra=%v inter=%v", intra, inter)
	}
	if inter <= intra {
		t.Errorf("inter-group latency %v not above intra-group %v", inter, intra)
	}
}

// TestClosTopologyForwarding: with Spines > 1 the tree fabric becomes
// a two-tier Clos — every edge uplinks to every spine, and remote
// destinations are spread across spines by destination index. All
// cross-group pairs must forward, and both spines must carry traffic.
func TestClosTopologyForwarding(t *testing.T) {
	cfg := TreeOneLink1G(8, 4, 1)
	cfg.Spines = 2
	cl := New(cfg)
	if len(cl.Switches) != 4 { // 2 spines + 2 edges
		t.Fatalf("switches = %d, want 4 (2 spines + 2 edges)", len(cl.Switches))
	}
	// Destination-index spreading must light up both spines: count
	// frames each spine forwards toward group 1 (spines are created
	// before edges, so they are the first two switches).
	var viaSpine [2]int
	for i, sw := range cl.Switches[:2] {
		i := i
		sw.OutPortFor(frame.NewAddr(4, 0)).SetOnTx(func(*phys.Frame) { viaSpine[i]++ })
	}
	conns := cl.FullMesh()
	const n = 4096
	done := 0
	for s := 0; s < 4; s++ { // group 0 → group 1, two dests per spine
		s := s
		src := cl.Nodes[s].EP.Alloc(n)
		dst := cl.Nodes[4+s].EP.Alloc(n)
		for i := 0; i < n; i++ {
			cl.Nodes[s].EP.Mem()[src+uint64(i)] = byte(i*7 + 3 + s)
		}
		cl.Env.Go("x", func(p *sim.Proc) {
			must(conns[s][4+s].Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
			if cl.Nodes[4+s].EP.Mem()[dst] != byte(3+s) {
				t.Errorf("pair %d: payload corrupt", s)
			}
			done++
		})
	}
	cl.Env.RunUntil(10 * sim.Second)
	if done != 4 {
		t.Fatalf("%d/4 cross-spine transfers completed", done)
	}
	if viaSpine[0] == 0 || viaSpine[1] == 0 {
		t.Errorf("spine traffic split %v: destination spreading left a spine idle", viaSpine)
	}
}

func TestTreeTopologyBulkIntegrity(t *testing.T) {
	cfg := TreeOneLink1G(6, 2, 1)
	cl := New(cfg)
	conns := cl.FullMesh()
	const n = 128 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[5].EP.Alloc(n)
	for i := 0; i < n; i++ {
		cl.Nodes[0].EP.Mem()[src+uint64(i)] = byte(i * 11)
	}
	ok := false
	cl.Env.Go("m", func(p *sim.Proc) {
		must(conns[0][5].Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
		ok = true
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !ok {
		t.Fatal("cross-core bulk transfer did not complete")
	}
	for i := 0; i < n; i++ {
		if cl.Nodes[5].EP.Mem()[dst+uint64(i)] != byte(i*11) {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestTreeOversubscriptionCongests(t *testing.T) {
	// All four nodes of group 0 blast nodes of group 1 through a single
	// 1-wide trunk: the trunk must congest (drops) yet the protocol
	// must deliver everything.
	cfg := TreeOneLink1G(8, 4, 1)
	cfg.Core.RTO = 1 * sim.Millisecond
	cl := New(cfg)
	conns := cl.FullMesh()
	const n = 256 * 1024
	done := 0
	for s := 0; s < 4; s++ {
		s := s
		src := cl.Nodes[s].EP.Alloc(n)
		dst := cl.Nodes[4+s].EP.Alloc(n)
		cl.Env.Go(fmt.Sprintf("s%d", s), func(p *sim.Proc) {
			must(conns[s][4+s].Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})).Wait(p)
			done++
		})
	}
	cl.Env.RunUntil(60 * sim.Second)
	if done != 4 {
		t.Fatalf("only %d/4 transfers completed through congested trunk", done)
	}
	r := Collect2(cl)
	if r.SwitchDrops == 0 {
		t.Error("no congestion drops despite 4:1 oversubscription")
	}
}

// Collect2 is a helper aliasing Collect for the test above (kept
// separate to exercise the exported method path).
func Collect2(cl *Cluster) NetReport { return cl.Collect() }

// TestStatsDeclaredOnce is the cluster half of the core test of the same
// name: NetReport.Sub differences every counter of the report, protocol
// counters included, and keeps the two protocol peaks. Filled by
// reflection, so a counter added to core.Stats is covered the day it is
// added.
func TestStatsDeclaredOnce(t *testing.T) {
	peaks := map[string]bool{"Proto.HoldMax": true, "Proto.RtoBackoffMax": true}
	type leaf struct {
		name string
		path []int
	}
	var leaves []leaf
	var walk func(ty reflect.Type, name string, path []int)
	walk = func(ty reflect.Type, name string, path []int) {
		if ty.Kind() != reflect.Struct {
			leaves = append(leaves, leaf{name, append([]int(nil), path...)})
			return
		}
		for i := 0; i < ty.NumField(); i++ {
			sub := ty.Field(i).Name
			if name != "" {
				sub = name + "." + sub
			}
			walk(ty.Field(i).Type, sub, append(path, i))
		}
	}
	walk(reflect.TypeOf(NetReport{}), "", nil)
	put := func(v reflect.Value, x int64) {
		if v.CanUint() {
			v.SetUint(uint64(x))
		} else {
			v.SetInt(x)
		}
	}
	get := func(v reflect.Value) int64 {
		if v.CanUint() {
			return int64(v.Uint())
		}
		return v.Int()
	}
	var cur, prev NetReport
	for i, l := range leaves {
		put(reflect.ValueOf(&cur).Elem().FieldByIndex(l.path), int64(1000+7*i))
		put(reflect.ValueOf(&prev).Elem().FieldByIndex(l.path), int64(10+3*i))
	}
	d := cur.Sub(prev)
	for i, l := range leaves {
		want := int64(1000+7*i) - int64(10+3*i)
		if peaks[l.name] {
			want = int64(1000 + 7*i)
		}
		if got := get(reflect.ValueOf(d).FieldByIndex(l.path)); got != want {
			t.Errorf("%s: Sub gave %d, want %d", l.name, got, want)
		}
	}
}

// must returns v, panicking on err: an issue call a simulated process
// makes cannot report to t, and its failure ends the test.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
