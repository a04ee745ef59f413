package chaos

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// seedBase returns the first seed of the test matrix; CI varies it via
// CHAOS_SEED_BASE so the pinned-seed jobs cover disjoint seed ranges.
func seedBase(t *testing.T) int64 {
	if s := os.Getenv("CHAOS_SEED_BASE"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED_BASE %q: %v", s, err)
		}
		return v
	}
	return 1
}

func topologies() map[string]cluster.Config {
	return map[string]cluster.Config{
		"1L-1G":  cluster.OneLink1G(2),
		"2Lu-1G": cluster.TwoLinkUnordered1G(2),
		"1L-10G": cluster.OneLink10G(2),
	}
}

// flapHeavy is the standard randomized soak scenario: flaps up to
// 500 ms plus loss/corrupt/reorder/duplication bursts, under a
// DeadInterval comfortably above the worst outage so nothing
// legitimately dies, with the adaptive RTO estimator enabled.
func flapHeavy(cfg cluster.Config, seed int64) Options {
	cfg.Core.DeadInterval = 5 * sim.Second
	cfg.Core.RTOMax = 100 * sim.Millisecond
	return Options{
		Config:    cfg,
		Seed:      seed,
		Transfers: 30,
		Bytes:     32 << 10,
		Gap:       100 * sim.Millisecond, // span the whole fault window
		Horizon:   60 * sim.Second,
		Script: func(r *Runner) {
			r.Randomize(RandomizeOptions{
				From:      sim.Millisecond,
				To:        3 * sim.Second,
				Events:    24,
				MaxOutage: 500 * sim.Millisecond,
			})
		},
	}
}

func TestSoakFlapHeavy(t *testing.T) {
	base := seedBase(t)
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	for name, cfg := range topologies() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for seed := base; seed < base+seeds; seed++ {
				res, vs, _ := Run(flapHeavy(cfg, seed))
				for _, v := range vs {
					t.Errorf("seed %d: violation %s", seed, v)
				}
				if res.Completed != 30 || !res.DataOK {
					t.Errorf("seed %d: %d/30 transfers, dataOK=%v (failed ops %d, ended %v)",
						seed, res.Completed, res.DataOK, res.FailedOps, res.EndedAt)
				}
				if res.PeerDead || res.ReceiverDead {
					t.Errorf("seed %d: connection died under sub-DeadInterval faults", seed)
				}
			}
		})
	}
}

// crashRestartSoak is the recovery scenario: supervised reconnect on, a
// deterministic one-way ack-starvation window (guaranteeing the stale-
// incarnation fence fires every seed), then randomized whole-node
// crash-restart cycles, under a paced 30-transfer verified stream.
func crashRestartSoak(cfg cluster.Config, seed int64) Options {
	cfg.Core.Reconnect = true
	cfg.Core.DeadInterval = 50 * sim.Millisecond
	cfg.Core.HeartbeatInterval = 10 * sim.Millisecond
	cfg.Core.MaxReconnects = 20 // overlapping faults can burn several redials
	links := cfg.LinksPerNode
	return Options{
		Config:    cfg,
		Seed:      seed,
		Transfers: 30,
		Bytes:     32 << 10,
		Gap:       100 * sim.Millisecond,
		Horizon:   60 * sim.Second,
		Script: func(r *Runner) {
			// Acks die, data flows: the writer parks and redials while the
			// receiver keeps applying, is reborn by the first ConnReq, and
			// heartbeats into the writer's parked epoch once the direction
			// heals — deterministic StaleEpochDrops.
			for l := 0; l < links; l++ {
				r.SeverDirection(100*sim.Millisecond, 300*sim.Millisecond, 1, 0, l)
			}
			r.Randomize(RandomizeOptions{
				From:          500 * sim.Millisecond,
				To:            3 * sim.Second,
				Events:        8,
				MaxOutage:     30 * sim.Millisecond, // soft faults stay sub-DeadInterval
				CrashRestarts: 3,
				CrashDownMin:  100 * sim.Millisecond,
				CrashDownMax:  250 * sim.Millisecond,
			})
		},
	}
}

func TestSoakCrashRestart(t *testing.T) {
	// The acceptance soak: every transfer completes byte-verified across
	// crash-restarts, the exactly-once invariant (notifies == completed)
	// holds despite replays, and the epoch fence demonstrably fired.
	base := seedBase(t)
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	for name, cfg := range map[string]cluster.Config{
		"1L-1G":  cluster.OneLink1G(2),
		"2Lu-1G": cluster.TwoLinkUnordered1G(2),
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for seed := base; seed < base+seeds; seed++ {
				res, vs, _ := Run(crashRestartSoak(cfg, seed))
				for _, v := range vs {
					t.Errorf("seed %d: violation %s", seed, v)
				}
				if res.Completed != 30 || !res.DataOK {
					t.Errorf("seed %d: %d/30 transfers, dataOK=%v (failed ops %d, ended %v)",
						seed, res.Completed, res.DataOK, res.FailedOps, res.EndedAt)
				}
				if res.PeerDead || res.ReceiverDead {
					t.Errorf("seed %d: connection died despite supervised reconnect", seed)
				}
				p := res.Report.Proto
				if p.Reconnects == 0 || p.ReplayedOps == 0 {
					t.Errorf("seed %d: Reconnects=%d ReplayedOps=%d — recovery path not exercised",
						seed, p.Reconnects, p.ReplayedOps)
				}
				if p.StaleEpochDrops == 0 {
					t.Errorf("seed %d: StaleEpochDrops=0 — epoch fence never fired", seed)
				}
				if p.ReconnectsFailed != 0 {
					t.Errorf("seed %d: %d reconnects exhausted their budget", seed, p.ReconnectsFailed)
				}
			}
		})
	}
}

func TestSoakKillAllRails(t *testing.T) {
	// Node 1 goes permanently dark mid-stream. The writer's pending op
	// must fail with ErrPeerDead within DeadInterval (plus one timer
	// period of detection slack), and the idle receiver must learn of
	// the death through heartbeat silence on its own side.
	const (
		kill = 50 * sim.Millisecond
		di   = 200 * sim.Millisecond
	)
	for name, cfg := range topologies() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cfg.Core.DeadInterval = di
			cfg.Core.HeartbeatInterval = 20 * sim.Millisecond
			res, vs, _ := Run(Options{
				Config:      cfg,
				Seed:        seedBase(t),
				Transfers:   1000, // far more than fit before the kill
				Bytes:       16 << 10,
				Horizon:     5 * sim.Second,
				ExpectDeath: true,
				Script:      func(r *Runner) { r.KillNode(kill, 1) },
			})
			for _, v := range vs {
				t.Errorf("violation %s", v)
			}
			if !res.PeerDead {
				t.Fatalf("writer never observed ErrPeerDead (completed %d, failed %d)",
					res.Completed, res.FailedOps)
			}
			if lim := kill + di + 50*sim.Millisecond; res.FailedAt > lim {
				t.Errorf("death surfaced at %v, want within %v", res.FailedAt, lim)
			}
			if !res.ReceiverDead {
				t.Error("receiver side never detected the death via heartbeats")
			}
			if res.Report.Proto.PeerDeadEvents == 0 || res.Report.LinkFailDrops == 0 {
				t.Errorf("PeerDeadEvents %d, LinkFailDrops %d: detection left no trace",
					res.Report.Proto.PeerDeadEvents, res.Report.LinkFailDrops)
			}
		})
	}
}

func TestSoakReproducible(t *testing.T) {
	// Identical seeds must yield identical NetReports: the chaos stream
	// is private to the Runner and the simulator is deterministic, so
	// two runs of the same Options are bit-identical.
	for _, seed := range []int64{seedBase(t), seedBase(t) + 1} {
		a, _, _ := Run(flapHeavy(cluster.TwoLinkUnordered1G(2), seed))
		b, _, _ := Run(flapHeavy(cluster.TwoLinkUnordered1G(2), seed))
		if a.Report != b.Report {
			t.Fatalf("seed %d: reports differ between identical runs:\n%+v\n%+v",
				seed, a.Report, b.Report)
		}
		if a != b {
			t.Fatalf("seed %d: results differ between identical runs:\n%+v\n%+v", seed, a, b)
		}
	}
}

func TestDuplicateEveryNth(t *testing.T) {
	// Regression for receive-side dedupe: duplicate every 3rd frame on
	// node 0's rail for the whole run. Every duplicate data frame must
	// be dropped without re-applying its payload, every transfer must
	// land intact, and the drops must be visible in DupFramesDropped.
	cfg := cluster.OneLink1G(2)
	res, vs, _ := Run(Options{
		Config:    cfg,
		Seed:      seedBase(t),
		Transfers: 20,
		Bytes:     32 << 10,
		Horizon:   20 * sim.Second,
		Script: func(r *Runner) {
			r.DuplicateEveryNth(sim.Millisecond, 20*sim.Second, 0, 0, 3)
		},
	})
	for _, v := range vs {
		t.Errorf("violation %s", v)
	}
	if res.Completed != 20 || !res.DataOK {
		t.Fatalf("%d/20 transfers, dataOK=%v", res.Completed, res.DataOK)
	}
	if res.Report.Proto.DupFramesDropped == 0 {
		t.Error("no duplicate data frames counted despite duplicating every 3rd frame")
	}
}

func TestPartitionHeals(t *testing.T) {
	// A 300 ms partition between the two nodes under a 5 s DeadInterval:
	// traffic stalls, nobody dies, and the stream completes after the
	// cut heals.
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Core.DeadInterval = 5 * sim.Second
	res, vs, _ := Run(Options{
		Config:    cfg,
		Seed:      seedBase(t),
		Transfers: 20,
		Bytes:     32 << 10,
		Gap:       25 * sim.Millisecond, // keep traffic flowing across the cut
		Horizon:   30 * sim.Second,
		Script: func(r *Runner) {
			r.Partition(10*sim.Millisecond, 310*sim.Millisecond, []int{0})
		},
	})
	for _, v := range vs {
		t.Errorf("violation %s", v)
	}
	if res.Completed != 20 || res.PeerDead {
		t.Fatalf("%d/20 transfers, peerDead=%v after partition healed", res.Completed, res.PeerDead)
	}
}

func TestSoakOpDeadlines(t *testing.T) {
	// Every op carries a deadline; under flaps some waits are released
	// early with ErrDeadlineExceeded but none may be released late, and
	// the un-cancelled transfers still count nothing twice.
	o := flapHeavy(cluster.OneLink1G(2), seedBase(t))
	o.Deadline = 100 * sim.Millisecond
	o.ExpectDeath = true // deadline expiries skew notify counts; skip that check
	res, vs, _ := Run(o)
	for _, v := range vs {
		t.Errorf("violation %s", v)
	}
	if res.PeerDead || res.ReceiverDead {
		t.Error("connection died under sub-DeadInterval faults")
	}
	if res.Completed == 0 && res.Report.Proto.OpDeadlinesExpired == 0 {
		t.Error("nothing completed and nothing expired")
	}
}

// Fault shapes only these tests inject.

// SeverDirection kills only the from→to direction of a rail during
// [at, at+down): from's uplink and the switch ports feeding to go dark,
// while to→from traffic still flows. The classic ack-starvation fault:
// the sender sees total silence and (under Reconnect) parks and
// redials, while the receiver keeps applying data and — once reborn —
// heartbeats into the sender's parked epoch, exercising the stale-
// incarnation fence. On clusters larger than two nodes the downlink
// kill also severs third parties → to; use it on pairwise scenarios.
func (r *Runner) SeverDirection(at, down sim.Time, from, to, link int) {
	oneWay := func(fail bool) {
		ports := []*phys.OutPort{r.cl.RailPorts(from, link)[0]}
		ports = append(ports, r.cl.RailPorts(to, link)[1:]...)
		for _, p := range ports {
			if fail {
				p.Fail()
			} else {
				p.Restore()
			}
		}
	}
	r.at(at, fmt.Sprintf("sever n%d→n%d l%d (down %v)", from, to, link, down),
		func() { oneWay(true) })
	r.at(at+down, fmt.Sprintf("heal n%d→n%d l%d", from, to, link),
		func() { oneWay(false) })
}

// Partition drops every frame crossing the cut between groupA and the
// rest of the cluster during [from, to). Nodes on the same side keep
// talking; the two sides cannot reach each other at all.
func (r *Runner) Partition(from, to sim.Time, groupA []int) {
	inA := make(map[int]bool, len(groupA))
	for _, n := range groupA {
		inA[n] = true
	}
	r.logOnly(from, fmt.Sprintf("partition %v | rest until %v", groupA, to))
	crossing := func(f *phys.Frame) phys.Mangle {
		return phys.Mangle{Drop: inA[f.Src.Node()] != inA[f.Dst.Node()]}
	}
	for node := 0; node < len(r.cl.Nodes); node++ {
		for l := 0; l < r.cl.Cfg.LinksPerNode; l++ {
			r.railEffect(from, to, node, l, crossing)
		}
	}
}
