// Package chaos is a deterministic, seedable fault-injection harness
// for simulated MultiEdge clusters. A Runner schedules a timeline of
// faults — link flaps, loss and corruption bursts, duplication, reorder
// spikes, partitions, node pauses — against the phys/cluster hooks
// (OutPort.Fail/Restore and OutPort.SetMangler), and the soak driver in
// soak.go runs a verifying workload underneath while invariant checkers
// (invariants.go) watch for data corruption, double-apply, stuck
// operations and inconsistent statistics.
//
// Everything is reproducible: fault decisions draw from the Runner's
// private random stream, never the simulation's, so the same seed
// yields the same fault timeline and — because the simulator itself is
// deterministic — the bit-identical run.
package chaos

import (
	"fmt"
	"math/rand"

	"multiedge/internal/cluster"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// Event records one scheduled fault for reports.
type Event struct {
	At   sim.Time
	What string
}

// Runner schedules fault timelines against one cluster. Build the whole
// timeline before starting the simulation; faults fire as daemon events,
// so a pending fault never keeps an otherwise-finished run alive.
type Runner struct {
	cl     *cluster.Cluster
	rng    *rand.Rand // private stream: never perturbs the sim's RNG
	muxes  map[*phys.OutPort]*portMux
	Events []Event
}

// New creates a Runner over cl with its own random stream.
func New(cl *cluster.Cluster, seed int64) *Runner {
	return &Runner{
		cl:    cl,
		rng:   rand.New(rand.NewSource(seed)),
		muxes: make(map[*phys.OutPort]*portMux),
	}
}

// Cluster returns the cluster the Runner injects faults into.
func (r *Runner) Cluster() *cluster.Cluster { return r.cl }

// at schedules fn as a daemon event and logs it.
func (r *Runner) at(t sim.Time, what string, fn func()) {
	r.Events = append(r.Events, Event{At: t, What: what})
	r.cl.Env.AtDaemon(t, fn)
}

// logOnly records a windowed effect that needs no discrete event.
func (r *Runner) logOnly(t sim.Time, what string) {
	r.Events = append(r.Events, Event{At: t, What: what})
}

// ---------------------------------------------------------------------
// Hard failures (Fail/Restore based).
// ---------------------------------------------------------------------

// KillLink hard-fails both directions of node's rail at time at.
func (r *Runner) KillLink(at sim.Time, node, link int) {
	r.at(at, fmt.Sprintf("kill link n%d/l%d", node, link), func() { r.cl.FailLink(node, link) })
}

// RestoreLink repairs a killed link at time at.
func (r *Runner) RestoreLink(at sim.Time, node, link int) {
	r.at(at, fmt.Sprintf("restore link n%d/l%d", node, link), func() { r.cl.RestoreLink(node, link) })
}

// FlapLink kills node's rail at time at and restores it after down.
func (r *Runner) FlapLink(at, down sim.Time, node, link int) {
	r.KillLink(at, node, link)
	r.RestoreLink(at+down, node, link)
}

// PauseNode fails every rail of node at time at: the node goes dark.
func (r *Runner) PauseNode(at sim.Time, node int) {
	r.at(at, fmt.Sprintf("pause node n%d", node), func() { r.cl.PauseNode(node) })
}

// ResumeNode restores every rail of a paused node at time at.
func (r *Runner) ResumeNode(at sim.Time, node int) {
	r.at(at, fmt.Sprintf("resume node n%d", node), func() { r.cl.ResumeNode(node) })
}

// KillAllRails is PauseNode under the name the failure-detection tests
// use: every path to the node dies at once and stays dead.
func (r *Runner) KillAllRails(at sim.Time, node int) { r.PauseNode(at, node) }

// KillNode kills a node permanently at time at — PauseNode with no
// matching resume. The service-layer scenario: one replica of a
// replicated backend dies mid-run and never comes back, so every client
// must journal, condemn and fail its in-flight calls over to the
// survivors.
func (r *Runner) KillNode(at sim.Time, node int) {
	r.at(at, fmt.Sprintf("kill node n%d (permanent)", node), func() { r.cl.PauseNode(node) })
}

// CrashRestart models a node crash-restart: every rail dies at once at
// time at and comes back after down. With core.Config.Reconnect the
// surviving connections park, renegotiate an incarnation and replay;
// without it any outage past DeadInterval legitimately kills them
// (pair with Options.ExpectDeath).
func (r *Runner) CrashRestart(at, down sim.Time, node int) {
	r.at(at, fmt.Sprintf("crash node n%d (down %v)", node, down), func() { r.cl.PauseNode(node) })
	r.at(at+down, fmt.Sprintf("restart node n%d", node), func() { r.cl.ResumeNode(node) })
}

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

// ---------------------------------------------------------------------
// Soft faults (mangler based), active on a [from, to) window.
// ---------------------------------------------------------------------

// portMux composes several windowed effects on one port (a port has a
// single mangler slot). Effects are evaluated in installation order —
// a deterministic order, since timelines are built single-threaded
// before the run — OR-ing fates and summing delays.
type portMux struct {
	env     *sim.Env
	effects []windowed
}

type windowed struct {
	from, to sim.Time // to == 0 means no end
	fn       phys.Mangler
}

func (m *portMux) mangle(f *phys.Frame) phys.Mangle {
	now := m.env.Now()
	var out phys.Mangle
	for _, e := range m.effects {
		if now < e.from || (e.to > 0 && now >= e.to) {
			continue
		}
		g := e.fn(f)
		out.Drop = out.Drop || g.Drop
		out.Corrupt = out.Corrupt || g.Corrupt
		out.Dup = out.Dup || g.Dup
		out.Delay += g.Delay
	}
	return out
}

// addEffect installs fn on port for the window [from, to).
func (r *Runner) addEffect(port *phys.OutPort, from, to sim.Time, fn phys.Mangler) {
	m := r.muxes[port]
	if m == nil {
		m = &portMux{env: r.cl.Env}
		r.muxes[port] = m
		port.SetMangler(m.mangle)
	}
	m.effects = append(m.effects, windowed{from: from, to: to, fn: fn})
}

// railEffect installs fn on both directions of node's rail.
func (r *Runner) railEffect(from, to sim.Time, node, link int, fn phys.Mangler) {
	for _, p := range r.cl.RailPorts(node, link) {
		r.addEffect(p, from, to, fn)
	}
}

// LossBurst drops each frame crossing node's rail with probability prob
// during [from, to). Draws come from the Runner's private stream.
func (r *Runner) LossBurst(from, to sim.Time, node, link int, prob float64) {
	r.logOnly(from, fmt.Sprintf("loss burst n%d/l%d p=%.2f until %v", node, link, prob, to))
	r.railEffect(from, to, node, link, func(_ *phys.Frame) phys.Mangle {
		return phys.Mangle{Drop: r.rng.Float64() < prob}
	})
}

// CorruptBurst flips a byte in each frame crossing node's rail with
// probability prob during [from, to), exercising the frame checksum.
func (r *Runner) CorruptBurst(from, to sim.Time, node, link int, prob float64) {
	r.logOnly(from, fmt.Sprintf("corrupt burst n%d/l%d p=%.2f until %v", node, link, prob, to))
	r.railEffect(from, to, node, link, func(_ *phys.Frame) phys.Mangle {
		return phys.Mangle{Corrupt: r.rng.Float64() < prob}
	})
}

// DuplicateEveryNth delivers every n-th frame on node's rail twice
// during [from, to): the regression knob for receive-side dedupe.
func (r *Runner) DuplicateEveryNth(from, to sim.Time, node, link, n int) {
	r.logOnly(from, fmt.Sprintf("dup every %dth n%d/l%d until %v", n, node, link, to))
	count := 0
	r.railEffect(from, to, node, link, func(_ *phys.Frame) phys.Mangle {
		count++
		return phys.Mangle{Dup: count%n == 0}
	})
}

// ReorderSpike delays each frame on node's rail by a random extra
// latency in [0, maxDelay) during [from, to), so frames overtake each
// other far beyond normal switch jitter.
func (r *Runner) ReorderSpike(from, to sim.Time, node, link int, maxDelay sim.Time) {
	r.logOnly(from, fmt.Sprintf("reorder spike n%d/l%d ±%v until %v", node, link, maxDelay, to))
	r.railEffect(from, to, node, link, func(_ *phys.Frame) phys.Mangle {
		return phys.Mangle{Delay: sim.Time(r.rng.Int63n(int64(maxDelay)))}
	})
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

// BlackholePair drops every frame between nodes a and b — both
// directions, every rail — during [from, to), while each keeps talking
// to everyone else. This is the path-selective fault relay routing
// exists for: a cannot reach b directly, yet both still reach a third
// node that holds connections to each side. to == 0 leaves the pair
// severed forever.
func (r *Runner) BlackholePair(from, to sim.Time, a, b int) {
	r.logOnly(from, fmt.Sprintf("blackhole n%d↔n%d until %v", a, b, to))
	between := func(f *phys.Frame) phys.Mangle {
		x, y := f.Src.Node(), f.Dst.Node()
		return phys.Mangle{Drop: (x == a && y == b) || (x == b && y == a)}
	}
	for _, node := range []int{a, b} {
		for l := 0; l < r.cl.Cfg.LinksPerNode; l++ {
			r.railEffect(from, to, node, l, between)
		}
	}
}

// ---------------------------------------------------------------------
// Randomized timelines.
// ---------------------------------------------------------------------

// RandomizeOptions bounds a randomized fault timeline.
type RandomizeOptions struct {
	From, To  sim.Time // window the faults land in
	Events    int      // number of faults to schedule
	MaxOutage sim.Time // longest flap/burst duration

	// CrashRestarts additionally schedules that many whole-node
	// crash→restart cycles (PauseNode → ResumeNode after a downtime in
	// [CrashDownMin, CrashDownMax]) spread across the window. With
	// core.Config.Reconnect each cycle is a full park → redial →
	// incarnation bump → replay exercise; without it any downtime past
	// DeadInterval kills connections for real. Zero (the default) draws
	// nothing extra from the seed stream, so timelines built by earlier
	// revisions stay bit-identical.
	CrashRestarts              int
	CrashDownMin, CrashDownMax sim.Time
	// CrashNodes limits which nodes crash; nil means any node.
	CrashNodes []int
}

// Randomize schedules opts.Events random faults — flaps, loss bursts,
// corruption bursts, reorder spikes, duplication windows — across
// random rails, with times, targets and intensities drawn from the
// Runner's seeded stream. The timeline is fully determined at call
// time, so identical seeds build identical timelines.
//
// Outages are bounded by MaxOutage; keep DeadInterval comfortably above
// it (and note overlapping flaps can only shorten an outage — a restore
// always clears the port) so a randomized run never legitimately kills
// a connection.
func (r *Runner) Randomize(opts RandomizeOptions) {
	nodes := len(r.cl.Nodes)
	links := r.cl.Cfg.LinksPerNode
	span := int64(opts.To - opts.From)
	for i := 0; i < opts.Events; i++ {
		at := opts.From + sim.Time(r.rng.Int63n(span))
		dur := 1 + sim.Time(r.rng.Int63n(int64(opts.MaxOutage)))
		node := r.rng.Intn(nodes)
		link := r.rng.Intn(links)
		switch r.rng.Intn(5) {
		case 0:
			r.FlapLink(at, dur, node, link)
		case 1:
			r.LossBurst(at, at+dur, node, link, 0.05+0.40*r.rng.Float64())
		case 2:
			r.CorruptBurst(at, at+dur, node, link, 0.02+0.10*r.rng.Float64())
		case 3:
			r.ReorderSpike(at, at+dur, node, link, 50*sim.Microsecond+sim.Time(r.rng.Int63n(int64(sim.Millisecond))))
		case 4:
			r.DuplicateEveryNth(at, at+dur, node, link, 2+r.rng.Intn(8))
		}
	}
	if opts.CrashRestarts > 0 {
		eligible := opts.CrashNodes
		if len(eligible) == 0 {
			for n := 0; n < nodes; n++ {
				eligible = append(eligible, n)
			}
		}
		lo, hi := opts.CrashDownMin, opts.CrashDownMax
		if lo <= 0 {
			lo = 1
		}
		if hi < lo {
			hi = lo
		}
		// One crash per slot of the window keeps cycles from stacking on
		// the same node; a downtime running past its slot merely overlaps
		// the next crash, which (like overlapping flaps) can only shorten
		// an outage — a restore always clears the ports.
		slot := (opts.To - opts.From) / sim.Time(opts.CrashRestarts)
		for i := 0; i < opts.CrashRestarts; i++ {
			at := opts.From + sim.Time(i)*slot
			if jitter := int64(slot / 4); jitter > 0 {
				at += sim.Time(r.rng.Int63n(jitter))
			}
			down := lo + sim.Time(r.rng.Int63n(int64(hi-lo)+1))
			node := eligible[r.rng.Intn(len(eligible))]
			r.CrashRestart(at, down, node)
		}
	}
}
