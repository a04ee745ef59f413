package bench

import (
	"bytes"
	"fmt"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
	"multiedge/internal/svc"
)

// Service-layer stress: thousands of simulated client sessions in a
// closed loop against one replicated service, the workload ISSUE 7's
// service layer exists for. Sessions are spread over client nodes that
// share per-node stubs (sessions are distinguished by balancer token);
// every session byte-verifies its slot through the service at the end.
// The killed variant chaos-kills one backend mid-run and the gates
// require every session to finish verified anyway — in-flight calls on
// the dead replica fail over and land exactly once on a survivor.

// ServeOptions parameterizes one service-bench run.
type ServeOptions struct {
	Clients      int // simulated client sessions
	OpsPerClient int // closed-loop writes per session (plus one verify read)
	Size         int // bytes per operation (one session slot)
	Replicas     int // backend replicas behind the service name

	// KillAt, when nonzero, chaos-kills one backend (permanently) at
	// this virtual time. RenderServe derives it from the no-kill run's
	// midpoint.
	KillAt sim.Time
	Seed   int64

	Obs             cluster.ObsOptions
	DisableRecorder bool
}

// ServeResult is one service-bench measurement plus its gates. Ops
// counts the verify reads too.
type ServeResult struct {
	Outcome
	Clients     int
	ClientNodes int
	Replicas    int
	Killed      bool

	// Service-layer accounting, summed over the per-node stubs.
	Failovers    uint64
	Condemned    uint64
	JournaledOps uint64
	CallsFailed  uint64
	// VerifyRetries counts sessions that had to re-run their
	// transaction because the replica holding their completed writes
	// died before the verify read. Zero unless a backend was killed.
	VerifyRetries int
}

// serveClientNodes caps how many endpoints the sessions spread over.
const serveClientNodes = 32

// serveFailoverBudget is each call's deadline before the stub journals
// the conn and fails over.
const serveFailoverBudget = 150 * sim.Millisecond

func serveFill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i)*13
	}
}

// serveRun is what the sessions of one run share.
type serveRun struct {
	st            *stage
	opts          ServeOptions
	ops           int // calls completed, reads and retry writes included
	verifyRetries int
	verified      bool
}

// session is one closed-loop client: it owns slot i of the service
// region, rewrites it OpsPerClient times with round-varying patterns,
// then reads it back and byte-verifies — through the service, so a
// failed-over session verifies against whichever replica its session
// rebound to.
func (r *serveRun) session(p *sim.Proc, stub *svc.Client, ep *core.Endpoint, i int) {
	size := uint64(r.opts.Size)
	src, back := ep.Alloc(r.opts.Size), ep.Alloc(r.opts.Size)
	call := func(kind frame.OpType, local uint64, timed bool) bool {
		t0 := r.st.now()
		if stub.Call(p, uint64(i), core.Op{Remote: uint64(i) * size, Local: local,
			Size: r.opts.Size, Kind: kind}) != nil {
			r.verified = false
			return false
		}
		if timed {
			r.st.lap(t0)
		}
		r.ops++
		return true
	}
	for k := 0; k < r.opts.OpsPerClient; k++ {
		serveFill(ep.Mem()[src:src+size], byte(i*31+k*7+1))
		if !call(frame.OpWrite, src, true) {
			break
		}
	}
	// Byte-verify the slot through the service: the affinity
	// binding routes the read to the replica holding the
	// session's writes. If the replica died AFTER the session's
	// last write completed there, the rebound read sees a slot
	// the session never wrote — its data died with the replica
	// (writes are single-copy) — so the session retries the
	// transaction once on the new binding, exactly as a real
	// client would. The undisturbed run must never need this.
	verifyOK := false
	for attempt := 0; attempt < 2 && call(frame.OpRead, back, true); attempt++ {
		if bytes.Equal(ep.Mem()[back:back+size], ep.Mem()[src:src+size]) {
			verifyOK = true
			break
		}
		if attempt > 0 {
			break
		}
		r.verifyRetries++
		if !call(frame.OpWrite, src, false) {
			break
		}
	}
	if !verifyOK {
		r.verified = false
	}
	r.st.finish()
}

// RunServe drives opts.Clients closed-loop sessions (serveRun.session)
// against a Replicas-wide service. Affinity balancing keeps a session's
// reads on the replica its writes landed on.
func RunServe(opts ServeOptions) ServeResult {
	clients := max(opts.Clients, 1)
	replicas := opts.Replicas
	if replicas < 1 {
		replicas = 3
	}
	clientNodes := min(clients, serveClientNodes)
	cfg := cluster.OneLink1G(replicas + clientNodes)
	cfg.Seed = opts.Seed
	// The scaled endpoint plus the recovery stack the service layer
	// composes: supervised reconnect with fast detection, bounded dial
	// retries, and idle-side liveness so parked sessions notice a dead
	// replica too.
	cfg.Core.SchedQueue = true
	// Detection and failover tuned for heavy incast: thousands of
	// sessions queue tens of milliseconds behind each other on the
	// backend rails, so the dead-peer verdict (and the failover budget
	// above it) must sit well above the congestion tail or healthy
	// backends get condemned for being slow.
	cfg.Core.Reconnect = true
	cfg.Core.DeadInterval = 50 * sim.Millisecond
	cfg.Core.RTOMax = 2 * sim.Millisecond
	cfg.Core.HeartbeatInterval = 10 * sim.Millisecond
	cfg.Core.MaxRetries = 3
	// The default redial schedule (8 attempts, exponential backoff)
	// outlasts the failover budget: a parked conn is still Reconnecting
	// when the budget fires, so the abandon path journals its in-flight
	// ops instead of finding them already drained by a terminal failure.
	cfg.Core.MemBytes = clients*opts.Size + (2 << 20)
	st := newStage(cfg, opts.Obs, opts.DisableRecorder, clients)
	// Every stub closes its conns, but the dead backend's parked conns
	// fail terminally only once their redial budgets drain.
	st.daemonsLinger = true
	cl := st.cl

	reg := svc.NewRegistry()
	eps := make([]*core.Endpoint, replicas)
	for i := range eps {
		eps[i] = cl.Nodes[i].EP
	}
	s, err := reg.Register("serve", clients*opts.Size, eps...)
	if err != nil {
		panic(err)
	}

	// One stub per client node; FailoverBudget comfortably above both
	// the detection interval (a budget miss must find the conn parked)
	// and the congestion tail (a slow healthy backend is not a failure).
	stubs := make([]*svc.Client, clientNodes)
	for i := range stubs {
		stub, err := svc.Connect(cl.Nodes[replicas+i].EP, reg, "serve", svc.Options{
			Balancer:       svc.NewAffinity(svc.NewRoundRobin()),
			FailoverBudget: serveFailoverBudget,
		})
		if err != nil {
			panic(err)
		}
		stubs[i] = stub
	}
	if opts.KillAt > 0 {
		st.withChaos(opts.Seed+1).KillNode(opts.KillAt, s.Backends[0].Node)
	}

	run := serveRun{st: st, opts: opts, verified: true}
	for i := 0; i < clients; i++ {
		i := i
		node := i % clientNodes
		cl.Env.Go(fmt.Sprintf("serve%d", i), func(p *sim.Proc) {
			run.session(p, stubs[node], cl.Nodes[replicas+node].EP, i)
		})
	}
	cl.Env.Go("serve-closer", func(p *sim.Proc) {
		for st.running > 0 {
			p.Sleep(sim.Millisecond)
		}
		for _, stub := range stubs {
			stub.Close(p)
		}
	})
	st.run()

	r := ServeResult{
		Outcome:       st.outcome("serve", run.ops, opts.Size, run.verified && st.running == 0),
		Clients:       clients,
		ClientNodes:   clientNodes,
		Replicas:      replicas,
		Killed:        opts.KillAt > 0,
		VerifyRetries: run.verifyRetries,
	}
	for _, stub := range stubs {
		r.Failovers += stub.Stats.Failovers
		r.Condemned += stub.Stats.BackendsCondemned
		r.JournaledOps += stub.Stats.JournaledOps
		r.CallsFailed += stub.Stats.CallsFailed
	}
	return r
}

func (r ServeResult) String() string {
	kill := "    -"
	if r.Killed {
		kill = "n0 X" // backend 0's node
	}
	return fmt.Sprintf("%5d clients/%2d nodes/%dR %s  %7d ops  %9.3fms  %9.0f ops/s  p50 %7.1fus  p99 %9.1fus  fo %3d  %s",
		r.Clients, r.ClientNodes, r.Replicas, kill, r.Ops, r.Elapsed.Micros()/1e3, r.OpsPerSec, r.P50Us, r.P99Us, r.Failovers, r.gateColumns())
}

// serveKillP99Bound bounds the chaos-kill run's p99: a call in flight
// on the dead replica pays at most the failover budget before it is
// re-issued, and the retry then rides the ordinary congestion tail. So
// the tail under a kill is bounded by budget + 2x the undisturbed p99 —
// failover is bounded, not open-ended.
func serveKillP99Bound(baseP99Us float64) float64 {
	return serveFailoverBudget.Micros() + 2*baseP99Us
}

// RenderServe runs the service bench twice — undisturbed, then with one
// backend chaos-killed at the undisturbed run's midpoint — and gates:
// both runs byte-verified and leak-free, the killed run's failovers
// exactly cover the per-stub condemnations, and the killed p99 within
// serveKillP99Bound of the baseline.
func RenderServe(clients, opsPerClient, size, replicas int, obsOpts cluster.ObsOptions) Report {
	var rep report
	rep.printf("Service scaling: N client sessions -> %d-replica service, affinity balancing, %d ops/session x %dB\n",
		replicas, opsPerClient, size)
	rep.printf("(per-node stubs, failover budget 150ms; killed row chaos-kills one backend at the baseline midpoint)\n\n")
	opts := ServeOptions{Clients: clients, OpsPerClient: opsPerClient, Size: size,
		Replicas: replicas, Seed: 42, Obs: obsOpts}
	base := RunServe(opts)
	rep.add(base)
	if opts.KillAt = base.Elapsed / 2; opts.KillAt <= 0 {
		opts.KillAt = sim.Millisecond
	}
	killed := RunServe(opts)
	rep.add(killed)
	rep.gate(base.VerifyRetries == 0, "undisturbed run needed %d verify retries — sessions lost data without a kill",
		base.VerifyRetries)
	rep.gate(killed.Condemned > 0 && killed.Failovers >= killed.Condemned,
		"kill run condemned %d backends over %d failovers — the kill was not absorbed", killed.Condemned, killed.Failovers)
	rep.gate(base.P99Us <= 0 || killed.P99Us <= serveKillP99Bound(base.P99Us),
		"killed p99 %.1fus exceeds the failover bound %.1fus (budget + 2x undisturbed p99 %.1fus)",
		killed.P99Us, serveKillP99Bound(base.P99Us), base.P99Us)
	return rep.done()
}

// BenchRow converts one serve measurement into a bench-document row.
func (r ServeResult) BenchRow() BenchRow {
	name := fmt.Sprintf("serve-%d", r.Clients)
	if r.Killed {
		name += "-kill"
	}
	return r.benchRow(name, map[string]float64{
		"replicas":       float64(r.Replicas),
		"client_nodes":   float64(r.ClientNodes),
		"failovers":      float64(r.Failovers),
		"condemned":      float64(r.Condemned),
		"journaled_ops":  float64(r.JournaledOps),
		"verify_retries": float64(r.VerifyRetries),
	})
}
