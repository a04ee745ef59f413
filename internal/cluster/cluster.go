// Package cluster assembles simulated MultiEdge clusters: nodes (two
// CPUs, one or two NICs, an endpoint) attached to one switch per link
// index, exactly like the evaluation setups of IPPS'07 §3.
//
// The four paper configurations are provided as presets:
//
//	1L-1G : 16 nodes, one 1-GBit/s link each, one switch
//	2L-1G : 16 nodes, two 1-GBit/s links and switches, strict ordering
//	2Lu-1G: as 2L-1G but frames may be delivered out of order
//	1L-10G: 4 nodes, one 10-GBit/s link each
package cluster

import (
	"fmt"
	"strconv"

	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/hostmodel"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// Config describes a cluster to build.
type Config struct {
	Name         string
	Nodes        int
	LinksPerNode int
	Link         phys.LinkParams
	NIC          phys.NICParams
	Switch       phys.SwitchParams
	Core         core.Config
	Costs        hostmodel.Costs
	Seed         int64

	// EdgeGroup switches each rail from one flat switch to a two-level
	// tree (IPPS'07 §6 future work (a): "communication paths that
	// consist of multiple switches"): nodes attach to edge switches of
	// EdgeGroup ports each, which connect to one core switch through a
	// trunk of TrunkLinks aggregated links. Oversubscription is
	// EdgeGroup/TrunkLinks. Zero keeps the paper's flat fabric.
	EdgeGroup  int
	TrunkLinks int

	// Spines widens the tree into a two-tier Clos (leaf-spine) fabric:
	// instead of one core switch per rail, every edge switch uplinks to
	// Spines spine switches and spreads destinations across them
	// deterministically (destination node modulo Spines), so distinct
	// flows share distinct bottlenecks. Requires EdgeGroup; 0 or 1 keeps
	// the single-core tree.
	Spines int

	// EcnThreshold arms ECN-style congestion marking on every switch
	// output queue (station downlinks and inter-switch trunks): a frame
	// enqueued while the queue already holds at least this many frames is
	// marked congestion-experienced (phys.Frame.Ecn), the receiver echoes
	// marks back in acknowledgements, and senders with
	// Core.CongestionControl enabled cut their window — throttling before
	// drop-tail loss. Must not exceed Switch.QueueCap (a threshold past
	// the drop point could never fire). Zero keeps marking off.
	EcnThreshold int

	// RailLinks, when non-nil, overrides Link per rail (len must equal
	// LinksPerNode): heterogeneous installations mix link generations,
	// e.g. a 1-GbE rail next to a 10-GbE rail. Pair it with
	// Core.AdaptiveStripe — round-robin striping is limited by the
	// slowest rail.
	RailLinks []phys.LinkParams

	// Obs enables the cluster-wide observability registry (metrics,
	// spans, samplers); the zero value keeps it off. The built registry
	// is exposed as Cluster.Obs.
	Obs ObsOptions
}

// Validate checks the configuration for structural errors: node and
// link counts, rail overrides, tree-fabric parameters and the core
// protocol knobs New would otherwise trip over mid-build.
func (c *Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("cluster %q: need at least one node, have %d", c.Name, c.Nodes)
	}
	if c.LinksPerNode < 1 {
		return fmt.Errorf("cluster %q: need at least one link per node, have %d", c.Name, c.LinksPerNode)
	}
	if c.RailLinks != nil && len(c.RailLinks) != c.LinksPerNode {
		return fmt.Errorf("cluster %q: RailLinks has %d entries for %d links per node",
			c.Name, len(c.RailLinks), c.LinksPerNode)
	}
	if c.EdgeGroup < 0 || c.TrunkLinks < 0 {
		return fmt.Errorf("cluster %q: negative tree-fabric parameter (EdgeGroup %d, TrunkLinks %d)",
			c.Name, c.EdgeGroup, c.TrunkLinks)
	}
	if c.EdgeGroup == 0 && c.TrunkLinks > 0 {
		return fmt.Errorf("cluster %q: TrunkLinks %d without EdgeGroup", c.Name, c.TrunkLinks)
	}
	if c.Spines < 0 {
		return fmt.Errorf("cluster %q: negative Spines %d", c.Name, c.Spines)
	}
	if c.Spines > 1 && c.EdgeGroup == 0 {
		return fmt.Errorf("cluster %q: Spines %d without EdgeGroup (a spine fabric needs edge switches)",
			c.Name, c.Spines)
	}
	if c.EcnThreshold < 0 {
		return fmt.Errorf("cluster %q: negative EcnThreshold %d", c.Name, c.EcnThreshold)
	}
	if c.EcnThreshold > 0 && c.Switch.QueueCap > 0 && c.EcnThreshold > c.Switch.QueueCap {
		return fmt.Errorf("cluster %q: EcnThreshold %d beyond switch queue capacity %d (frames drop before they could be marked)",
			c.Name, c.EcnThreshold, c.Switch.QueueCap)
	}
	if c.Core.Window <= 0 || c.Core.AckEvery <= 0 || c.Core.MemBytes <= 0 {
		return fmt.Errorf("cluster %q: invalid core config (Window %d, AckEvery %d, MemBytes %d)",
			c.Name, c.Core.Window, c.Core.AckEvery, c.Core.MemBytes)
	}
	if c.Core.CoalesceLimit < 0 {
		return fmt.Errorf("cluster %q: negative CoalesceLimit %d", c.Name, c.Core.CoalesceLimit)
	}
	if c.Core.CoalesceLimit > frame.MaxPayload-frame.SubOpOverhead {
		return fmt.Errorf("cluster %q: CoalesceLimit %d cannot fit one sub-op in a %d-byte payload",
			c.Name, c.Core.CoalesceLimit, frame.MaxPayload)
	}
	if c.Core.MaxRetries < 0 {
		return fmt.Errorf("cluster %q: negative MaxRetries %d", c.Name, c.Core.MaxRetries)
	}
	if c.Core.DeadInterval < 0 || c.Core.HeartbeatInterval < 0 {
		return fmt.Errorf("cluster %q: negative liveness timing (DeadInterval %v, HeartbeatInterval %v)",
			c.Name, c.Core.DeadInterval, c.Core.HeartbeatInterval)
	}
	if c.Core.HeartbeatInterval > 0 && c.Core.DeadInterval > 0 &&
		c.Core.HeartbeatInterval >= c.Core.DeadInterval {
		return fmt.Errorf("cluster %q: HeartbeatInterval %v must be shorter than DeadInterval %v or idle peers are declared dead between beats",
			c.Name, c.Core.HeartbeatInterval, c.Core.DeadInterval)
	}
	if c.Core.MaxReconnects < 0 || c.Core.ReconnectBackoff < 0 {
		return fmt.Errorf("cluster %q: negative reconnect budget (MaxReconnects %d, ReconnectBackoff %v)",
			c.Name, c.Core.MaxReconnects, c.Core.ReconnectBackoff)
	}
	if len(c.Core.QoS) > 0 && !c.Core.SchedQueue {
		return fmt.Errorf("cluster %q: QoS requires SchedQueue (the classes are the scheduler's queues)", c.Name)
	}
	for i, q := range c.Core.QoS {
		if q.Weight < 1 {
			return fmt.Errorf("cluster %q: QoS class %d: weight %d must be >= 1 (a zero-weight class would never be served)",
				c.Name, i, q.Weight)
		}
		if q.RateBps < 0 {
			return fmt.Errorf("cluster %q: QoS class %d: negative rate limit %d B/s", c.Name, i, q.RateBps)
		}
		if q.Burst < 0 {
			return fmt.Errorf("cluster %q: QoS class %d: negative burst %d bytes", c.Name, i, q.Burst)
		}
		if q.Burst > 0 && q.RateBps == 0 {
			return fmt.Errorf("cluster %q: QoS class %d: burst %d without a rate limit does nothing", c.Name, i, q.Burst)
		}
		if q.MaxQueued < 0 {
			return fmt.Errorf("cluster %q: QoS class %d: negative queue quota %d ops", c.Name, i, q.MaxQueued)
		}
		if q.MaxQueuedBytes < 0 {
			return fmt.Errorf("cluster %q: QoS class %d: negative byte quota %d", c.Name, i, q.MaxQueuedBytes)
		}
	}
	cc := c.Core.CongestionControl
	if cc.Enable && !c.Core.SchedQueue {
		return fmt.Errorf("cluster %q: CongestionControl requires SchedQueue (the window gates the scheduler's transmit slots)", c.Name)
	}
	if !cc.Enable && cc.InitWindow != 0 {
		return fmt.Errorf("cluster %q: CongestionControl window bounds without Enable do nothing", c.Name)
	}
	if cc.InitWindow < 0 {
		return fmt.Errorf("cluster %q: negative CongestionControl bound (InitWindow %d)", c.Name, cc.InitWindow)
	}
	if cc.InitWindow > c.Core.Window {
		return fmt.Errorf("cluster %q: CongestionControl InitWindow %d above Window %d (the congestion window's cap)",
			c.Name, cc.InitWindow, c.Core.Window)
	}
	return nil
}

// railLink returns rail l's link parameters.
func (c *Config) railLink(l int) phys.LinkParams {
	if c.RailLinks != nil {
		return c.RailLinks[l]
	}
	return c.Link
}

// OneLink1G returns the paper's 1L-1G configuration with the given node
// count.
func OneLink1G(nodes int) Config {
	return Config{
		Name: "1L-1G", Nodes: nodes, LinksPerNode: 1,
		Link: phys.Gigabit(), NIC: phys.DefaultNICParams(),
		Switch: phys.DefaultSwitchParams(),
		Core:   core.DefaultConfig(), Costs: hostmodel.Default(), Seed: 1,
	}
}

// TwoLink1G returns the paper's 2L-1G configuration: two links per node,
// two switches, and all operations strictly ordered.
func TwoLink1G(nodes int) Config {
	c := OneLink1G(nodes)
	c.Name = "2L-1G"
	c.LinksPerNode = 2
	c.Core.Strict = true
	return c
}

// TwoLinkUnordered1G returns the paper's 2Lu-1G configuration: two links
// per node with out-of-order delivery permitted where fences allow.
func TwoLinkUnordered1G(nodes int) Config {
	c := TwoLink1G(nodes)
	c.Name = "2Lu-1G"
	c.Core.Strict = false
	return c
}

// OneLink10G returns the paper's 1L-10G configuration: 10-GBit/s links
// and Myricom-style NICs whose transmit interrupts cannot be masked.
func OneLink10G(nodes int) Config {
	c := OneLink1G(nodes)
	c.Name = "1L-10G"
	c.Link = phys.TenGigabit()
	c.NIC = phys.Myri10GNICParams()
	return c
}

// Node is one simulated machine.
type Node struct {
	ID   int
	CPUs hostmodel.CPUs
	NICs []*phys.NIC
	EP   *core.Endpoint
}

// OneLink10GOffload returns the future-work hybrid of IPPS'07 §6(b):
// the 10-GBit/s setup with per-frame protocol processing offloaded to
// the NIC and direct user-memory DMA.
func OneLink10GOffload(nodes int) Config {
	c := OneLink10G(nodes)
	c.Name = "1L-10G-off"
	c.Core.Offload = true
	return c
}

// HybridRails returns a heterogeneous two-rail configuration — one
// 1-GBit/s rail next to one 10-GBit/s rail, the incremental-upgrade
// scenario edge-based scaling invites — with adaptive (least-backlog)
// striping enabled. Clear Core.AdaptiveStripe for the round-robin
// baseline, which is limited to twice the slowest rail.
func HybridRails(nodes int) Config {
	c := TwoLinkUnordered1G(nodes)
	c.Name = "1G+10G"
	c.RailLinks = []phys.LinkParams{phys.Gigabit(), phys.TenGigabit()}
	c.Core.AdaptiveStripe = true
	return c
}

// TreeOneLink1G returns the future-work configuration the paper's §6
// sketches: one 1-GBit/s rail arranged as a two-level switch tree with
// `group` nodes per edge switch and `trunks`-wide aggregated uplinks.
func TreeOneLink1G(nodes, group, trunks int) Config {
	c := OneLink1G(nodes)
	c.Name = "1L-1G-tree"
	c.EdgeGroup = group
	c.TrunkLinks = trunks
	return c
}

// Cluster is a built simulation universe.
type Cluster struct {
	Env       *sim.Env
	Cfg       Config
	Switches  []*phys.Switch  // all switches (edge and core)
	Trunks    []*phys.OutPort // inter-switch trunk ports (tree fabrics)
	Nodes     []*Node
	Obs       *obs.Registry   // observability registry (nil unless Cfg.Obs enables it)
	Recorders []*obs.Recorder // per-node flight recorders (nil unless Cfg.Obs.Recorder)
}

// New builds a cluster from the configuration. It panics on a
// configuration Validate rejects; call Validate first to handle
// configuration errors gracefully.
//
// What New allocates is the cluster and nothing else: names are joined
// with strconv because fmt parks its printer in a sync.Pool, where it
// survives one collection and dies in the next, and every Resource is
// bound to the Env here (Resource.On), so that its lane is not made by
// the first dial. A live-heap reading before and after a later phase
// then measures that phase whatever the collector's schedule was
// (TestNewLeavesNothingPooled).
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	env := sim.NewEnv(cfg.Seed)
	cl := &Cluster{Env: env, Cfg: cfg}
	// Real multi-rail installations are never symmetric: the two
	// switches differ in model/firmware/cabling, so the rails have
	// slightly different base latencies. The skew (plus per-switch
	// jitter) is what reorders round-robin-striped frames in practice;
	// with one link it vanishes.
	const railSkew = 5 * sim.Microsecond
	// Build the station switch for each (rail, node) pair: flat fabrics
	// use one switch per rail; tree fabrics use per-group edge switches
	// behind one core switch per rail.
	stationSw := make([][]*phys.Switch, cfg.LinksPerNode) // [rail][node]
	for l := 0; l < cfg.LinksPerNode; l++ {
		sp := cfg.Switch
		sp.Latency += railSkew * sim.Time(cfg.LinksPerNode-1-l)
		stationSw[l] = make([]*phys.Switch, cfg.Nodes)
		if cfg.EdgeGroup <= 0 {
			sw := phys.NewSwitch(env, "sw"+strconv.Itoa(l), sp)
			cl.Switches = append(cl.Switches, sw)
			for i := range stationSw[l] {
				stationSw[l][i] = sw
			}
			continue
		}
		trunks := cfg.TrunkLinks
		if trunks <= 0 {
			trunks = 1
		}
		trunkLP := cfg.railLink(l)
		trunkLP.PsPerByte /= int64(trunks) // a LAG of k links ~ one k-times-faster link
		spines := cfg.Spines
		if spines <= 0 {
			spines = 1
		}
		cores := make([]*phys.Switch, spines)
		for s := range cores {
			name := "core" + strconv.Itoa(l)
			if spines > 1 {
				name = "spine" + strconv.Itoa(l) + "." + strconv.Itoa(s)
			}
			cores[s] = phys.NewSwitch(env, name, sp)
			cl.Switches = append(cl.Switches, cores[s])
		}
		groups := (cfg.Nodes + cfg.EdgeGroup - 1) / cfg.EdgeGroup
		for g := 0; g < groups; g++ {
			edge := phys.NewSwitch(env, "edge"+strconv.Itoa(l)+"."+strconv.Itoa(g), sp)
			cl.Switches = append(cl.Switches, edge)
			ups := make([]*phys.OutPort, spines)
			for s, coreSw := range cores {
				up := edge.ConnectSwitch(coreSw, trunkLP, cfg.Switch.QueueCap)
				down := coreSw.ConnectSwitch(edge, trunkLP, cfg.Switch.QueueCap)
				cl.Trunks = append(cl.Trunks, up, down)
				if cfg.EcnThreshold > 0 {
					up.SetEcnThreshold(cfg.EcnThreshold)
					down.SetEcnThreshold(cfg.EcnThreshold)
				}
				ups[s] = up
				for i := g * cfg.EdgeGroup; i < (g+1)*cfg.EdgeGroup && i < cfg.Nodes; i++ {
					coreSw.Route(frame.NewAddr(i, l), down)
				}
			}
			edge.SetDefaultRoute(ups[0])
			if spines > 1 {
				// Clos spreading: every remote destination rides a fixed
				// spine (node id modulo Spines), so distinct flows share
				// distinct bottlenecks while each flow stays FIFO-ordered.
				for dest := 0; dest < cfg.Nodes; dest++ {
					if dest >= g*cfg.EdgeGroup && dest < (g+1)*cfg.EdgeGroup {
						continue // local station: AttachStation routes it directly
					}
					edge.Route(frame.NewAddr(dest, l), ups[dest%spines])
				}
			}
			for i := g * cfg.EdgeGroup; i < (g+1)*cfg.EdgeGroup && i < cfg.Nodes; i++ {
				stationSw[l][i] = edge
			}
		}
	}
	pool := &phys.Pool{} // one per simulation: its frames cross every node
	env.OnStop(pool.Trim)
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{ID: i, CPUs: hostmodel.NewCPUs("n" + strconv.Itoa(i))}
		n.CPUs.App.On(env)
		n.CPUs.Proto.On(env)
		for l := 0; l < cfg.LinksPerNode; l++ {
			addr := frame.NewAddr(i, l)
			nic := phys.NewNIC(env, "n"+strconv.Itoa(i)+"/nic"+strconv.Itoa(l), addr, cfg.NIC)
			up := stationSw[l][i].AttachStation(addr, nic, cfg.railLink(l), cfg.Switch.QueueCap)
			nic.AttachUplink(up)
			if cfg.EcnThreshold > 0 {
				// Station downlinks are the classic incast bottleneck: the
				// switch queue in front of the one receiver everyone fans
				// into. Marking happens in the fabric only — NIC transmit
				// queues stay unmarked, as on real hardware.
				if p := stationSw[l][i].OutPortFor(addr); p != nil {
					p.SetEcnThreshold(cfg.EcnThreshold)
				}
			}
			n.NICs = append(n.NICs, nic)
		}
		n.EP = core.NewEndpoint(env, i, cfg.Core, cfg.Costs, n.CPUs, n.NICs, pool)
		cl.Nodes = append(cl.Nodes, n)
	}
	cl.wireObs()
	return cl
}

// Close ends the cluster's universe: every process still parked
// (service loops, relays, accept loops) is unwound, the event queue
// dropped, so the cluster can be collected (see sim.Env.Close), and
// every node's memory handed back to the kernel (core.Endpoint.ReleaseMem).
// Whoever called New calls it once the run has been read out. Counters
// and the observability registry stay readable afterwards; node memory
// does not, and Mem() returns nil, so read it before Close.
//
// A Mem() slice is valid while its cluster is reachable and not closed.
// Holding the slice does not keep the cluster reachable: a cluster
// dropped without Close has its memory released by the collector.
func (cl *Cluster) Close() {
	cl.Env.Close()
	for _, n := range cl.Nodes {
		n.EP.ReleaseMem()
	}
}

// RailPorts returns both transmit directions of node's rail link: the
// NIC's uplink port (node → switch) and the station port on whichever
// switch serves that address (switch → node). Fault injectors use it to
// attach manglers or fail individual directions.
func (cl *Cluster) RailPorts(node, link int) []*phys.OutPort {
	ports := []*phys.OutPort{cl.Nodes[node].NICs[link].OutPort()}
	addr := frame.NewAddr(node, link)
	for _, sw := range cl.Switches {
		if p := sw.OutPortFor(addr); p != nil {
			ports = append(ports, p)
		}
	}
	return ports
}

// FailLink hard-fails both directions of node's rail `link` (a pulled
// cable): every frame crossing it from now on is silently lost until
// RestoreLink. The protocol's dead-link detection reroutes traffic to
// the surviving rails.
func (cl *Cluster) FailLink(node, link int) {
	for _, p := range cl.RailPorts(node, link) {
		p.Fail()
	}
}

// RestoreLink repairs a link failed with FailLink. Senders re-admit the
// rail after their next successful probe.
func (cl *Cluster) RestoreLink(node, link int) {
	for _, p := range cl.RailPorts(node, link) {
		p.Restore()
	}
}

// PauseNode fails every rail of a node in both directions — the node
// has stopped (crash, power loss, live-migration pause) as far as the
// rest of the cluster can tell. Its peers' failure detection declares it
// dead after DeadInterval.
func (cl *Cluster) PauseNode(node int) {
	for l := 0; l < cl.Cfg.LinksPerNode; l++ {
		cl.FailLink(node, l)
	}
}

// ResumeNode restores every rail of a node paused with PauseNode.
// Without core.Config.Reconnect, connections the peers already declared
// dead stay dead (the Failed state is terminal) and new traffic needs
// fresh connections; with it, connections parked in Reconnecting
// renegotiate a fresh incarnation over the restored rails and replay
// their incomplete operations.
func (cl *Cluster) ResumeNode(node int) {
	for l := 0; l < cl.Cfg.LinksPerNode; l++ {
		cl.RestoreLink(node, l)
	}
}

// RestartNode models a crash-restart: the node drops off the network
// now and its rails come back after down. With core.Config.Reconnect
// the surviving connections park, redial and replay across the outage;
// without it they fail terminally once detection fires.
func (cl *Cluster) RestartNode(node int, down sim.Time) {
	cl.PauseNode(node)
	cl.Env.After(down, func() { cl.ResumeNode(node) })
}

// Pair establishes a single connection between nodes 0 and 1 and returns
// both ends. It runs the simulation until the handshake completes, so it
// must be called before any other activity is scheduled.
func (cl *Cluster) Pair() (c01, c10 *core.Conn) {
	cl.Env.Go("dial", func(p *sim.Proc) { c01 = cl.Nodes[0].EP.Dial(p, 1, 0) })
	cl.Env.Go("accept", func(p *sim.Proc) { c10 = cl.Nodes[1].EP.Accept(p) })
	cl.Env.Run()
	if c01 == nil || c10 == nil {
		panic("cluster: pair handshake did not complete")
	}
	return c01, c10
}

// FullMesh establishes a connection between every node pair and returns
// conns[i][j], the connection node i uses to talk to node j (nil when
// i == j). It runs the simulation until all handshakes complete.
func (cl *Cluster) FullMesh() [][]*core.Conn {
	n := cl.Cfg.Nodes
	conns := make([][]*core.Conn, n)
	for i := range conns {
		conns[i] = make([]*core.Conn, n)
	}
	for i := 0; i < n; i++ {
		i := i
		cl.Env.Go(fmt.Sprintf("dial%d", i), func(p *sim.Proc) {
			for j := i + 1; j < n; j++ {
				conns[i][j] = cl.Nodes[i].EP.Dial(p, j, 0)
			}
		})
		cl.Env.Go(fmt.Sprintf("accept%d", i), func(p *sim.Proc) {
			for k := 0; k < i; k++ {
				c := cl.Nodes[i].EP.Accept(p)
				conns[i][c.RemoteNode()] = c
			}
		})
	}
	cl.Env.Run()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && conns[i][j] == nil {
				panic(fmt.Sprintf("cluster: mesh handshake %d-%d incomplete", i, j))
			}
		}
	}
	return conns
}

// NetReport aggregates protocol- and substrate-level counters across the
// cluster, the raw material for the paper's §4 network statistics.
type NetReport struct {
	Proto core.Stats

	WireFrames    uint64 // frames leaving all NICs
	WireBytes     uint64
	SwitchDrops   uint64 // congestion (drop-tail) losses
	EcnMarks      uint64 // frames ECN-marked by switch queues (Config.EcnThreshold)
	LinkErrDrops  uint64 // transient-error losses
	LinkFailDrops uint64 // frames lost to hard link failures (FailLink)
	Interrupts    uint64 // interrupts delivered to hosts
	RxIntr        uint64
	TxIntr        uint64
	NICRxFrames   uint64
}

// Collect gathers a NetReport snapshot.
func (cl *Cluster) Collect() NetReport {
	var r NetReport
	for _, n := range cl.Nodes {
		st := n.EP.Stats
		r.Proto.Add(&st)
		for _, nic := range n.NICs {
			r.WireFrames += nic.TxFrames
			r.WireBytes += nic.TxBytes
			r.Interrupts += nic.Interrupts
			r.RxIntr += nic.RxIntr
			r.TxIntr += nic.TxIntr
			r.NICRxFrames += nic.RxFrames
			r.LinkErrDrops += nic.OutPort().DropsErr
			r.LinkFailDrops += nic.OutPort().DropsFailed
		}
	}
	// Routing tables can alias one physical port under many addresses
	// (core switches route every node of an edge group at the same trunk
	// downlink; Clos edges route remote nodes at spine uplinks), so the
	// walk dedupes by port or multi-homed trunks would count once per
	// routed address.
	seen := make(map[*phys.OutPort]bool)
	count := func(p *phys.OutPort) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		r.SwitchDrops += p.DropsFull
		r.EcnMarks += p.EcnMarks
		r.LinkErrDrops += p.DropsErr
		r.LinkFailDrops += p.DropsFailed
	}
	for _, sw := range cl.Switches {
		for i := 0; i < cl.Cfg.Nodes; i++ {
			for l := 0; l < cl.Cfg.LinksPerNode; l++ {
				count(sw.OutPortFor(frame.NewAddr(i, l)))
			}
		}
	}
	for _, tp := range cl.Trunks {
		count(tp)
	}
	return r
}

// Sub returns the difference of two reports (window measurement).
func (r NetReport) Sub(prev NetReport) NetReport {
	out := r
	out.Proto = r.Proto.Sub(prev.Proto)
	out.WireFrames -= prev.WireFrames
	out.WireBytes -= prev.WireBytes
	out.SwitchDrops -= prev.SwitchDrops
	out.EcnMarks -= prev.EcnMarks
	out.LinkErrDrops -= prev.LinkErrDrops
	out.LinkFailDrops -= prev.LinkFailDrops
	out.Interrupts -= prev.Interrupts
	out.RxIntr -= prev.RxIntr
	out.TxIntr -= prev.TxIntr
	out.NICRxFrames -= prev.NICRxFrames
	return out
}
