// Package multiedge is a faithful reproduction of MultiEdge, the
// edge-based communication subsystem for scalable commodity servers of
// Karlsson, Passas, Kotsis and Bilas (IPPS 2007), together with every
// substrate its evaluation depends on: a deterministic discrete-event
// cluster simulator (nodes, CPUs, NICs, links, switches), a GeNIMA-style
// page-based software DSM, and the eight SPLASH-2 applications of the
// paper's Table 1.
//
// MultiEdge is a connection-oriented protocol over raw Ethernet frames
// providing remote read/write into a peer's address space, end-to-end
// sliding-window flow control with piggy-backed and delayed
// acknowledgements, NACK-based retransmission, transparent striping of
// frames across multiple physical links, and per-operation backward /
// forward fence ordering.
//
// # Quick start
//
// The service layer is the front door: name a region, replicate it
// across backends, and call it by name. Serve registers the service,
// Connect returns a stub that balances calls across the replicas and
// fails over (exactly once, via the journaled-replay recovery layer)
// when one dies.
//
//	cfg := multiedge.OneLink1G(4)            // four nodes, 1-GBit/s
//	cl := multiedge.NewCluster(cfg,
//	    multiedge.WithReconnect(0),          // supervised redial + failover
//	    multiedge.WithHeartbeat(multiedge.Millisecond, 5*multiedge.Millisecond))
//	defer cl.Close()                         // frees the universe when done
//	reg := multiedge.NewRegistry()
//	svc, _ := multiedge.Serve(reg, "kv", 1<<16,
//	    []*multiedge.Endpoint{cl.Nodes[1].EP, cl.Nodes[2].EP, cl.Nodes[3].EP})
//	stub, _ := multiedge.Connect(cl.Nodes[0].EP, reg, "kv",
//	    multiedge.WithBalancer(multiedge.NewAffinity(multiedge.NewRoundRobin())))
//	cl.Env.Go("app", func(p *multiedge.Proc) {
//	    src := cl.Nodes[0].EP.Alloc(64)
//	    copy(cl.Nodes[0].EP.Mem()[src:], []byte("hello"))
//	    err := stub.Call(p, 1, multiedge.Op{ // token 1: session affinity
//	        Remote: 0, Local: src, Size: 5, Kind: multiedge.OpWrite,
//	    })
//	    _ = err
//	    stub.Close(p)
//	})
//	cl.Env.Run()
//	_ = svc
//
// Underneath, calls are ordinary MultiEdge operations: Cluster.Pair /
// Conn.Do give the raw connection-oriented primitive (remote read and
// write with fences and notifications) when a named service is more
// than the task needs — see examples/quickstart.
//
// The simulation is deterministic: equal seeds give bit-identical runs.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package multiedge

import (
	"multiedge/internal/blk"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/dsm"
	"multiedge/internal/frame"
	"multiedge/internal/hostmodel"
	"multiedge/internal/msg"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
	"multiedge/internal/svc"
)

// Simulation kernel.
type (
	// Env is a deterministic discrete-event simulation environment.
	Env = sim.Env
	// Proc is a simulated process (cooperative goroutine).
	Proc = sim.Proc
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Signal is a one-shot completion event.
	Signal = sim.Signal
)

// Virtual time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEnv creates a standalone simulation environment (NewCluster makes
// one internally; use this for custom topologies built from the phys
// layer).
func NewEnv(seed int64) *Env { return sim.NewEnv(seed) }

// Protocol layer (the paper's contribution).
type (
	// Endpoint is a node's MultiEdge protocol instance.
	Endpoint = core.Endpoint
	// Conn is one end of a MultiEdge connection.
	Conn = core.Conn
	// ConnState is where a connection is in its life (Conn.State).
	ConnState = core.ConnState
	// Handle tracks an issued operation's progress (Conn.Do).
	Handle = core.Handle
	// Op describes one remote operation for Conn.Do, Conn.Run and
	// Conn.Post, mirroring the paper's RDMA_operation(connection,
	// remote_va, local_va, size, op, flags) primitive as an options
	// struct. Do issues it at once and returns its Handle; Run issues it
	// the same way, waits and returns only the error, allocating nothing;
	// Post queues it for the next Conn.Ring, which issues a batch under
	// one doorbell. The caller picks per operation. Each returns an
	// error on invalid use and never panics.
	Op = core.Op
	// Completion reports one finished submission-queue operation on a
	// connection's completion queue (Conn.PollCQ / Conn.WaitCQ).
	Completion = core.Completion
	// Notification reports a completed notifying remote write.
	Notification = core.Notification
	// ProtocolConfig holds the protocol parameters (window, delayed
	// acknowledgements, NACK timing, ordering mode, baselines).
	ProtocolConfig = core.Config
	// ProtocolStats counts protocol events at one endpoint.
	ProtocolStats = core.Stats
	// QoSClass configures one tenant/traffic class of the QoS layer
	// (weight, rate limit, submission quotas). See WithQoS.
	QoSClass = core.QoSClass
)

// Connection states (Conn.State), in the order a connection moves
// through them. Only Live exchanges data; from Closing on a connection
// takes no new work, and Conn.Err says whether it ended because the
// peer failed.
const (
	Dialing      = core.Dialing
	Live         = core.Live
	Reconnecting = core.Reconnecting
	Closing      = core.Closing
	Ended        = core.Ended
)

// Operation types and flags for Op.Kind and Op.Flags (used with
// Conn.Do, Conn.Run and Conn.Post).
const (
	OpWrite = frame.OpWrite
	OpRead  = frame.OpRead
	// FenceBefore (backward fence): perform this operation only after
	// all previously issued operations on the connection (IPPS'07 §2.5).
	FenceBefore = frame.FenceBefore
	// FenceAfter (forward fence): perform subsequent operations only
	// after this one.
	FenceAfter = frame.FenceAfter
	// Notify delivers a notification to the remote process when the
	// operation has been performed.
	Notify = frame.Notify
	// Solicit requests an immediate acknowledgement on completion at
	// the receiver (one-round-trip write completion for latency-bound
	// callers; one extra control frame).
	Solicit = frame.Solicit
)

// DefaultProtocolConfig returns the paper-calibrated protocol defaults.
func DefaultProtocolConfig() ProtocolConfig { return core.DefaultConfig() }

// ErrThrottled: a tenant class is over its QoS submission quota and the
// fail-fast path (Conn.Post) refused the descriptor — back off, or use
// the blocking path (Conn.Do), which waits for room. Test with
// errors.Is.
var ErrThrottled = core.ErrThrottled

// Cluster assembly.
type (
	// Cluster is a simulated MultiEdge cluster.
	Cluster = cluster.Cluster
	// ClusterConfig describes a cluster to build.
	ClusterConfig = cluster.Config
	// ClusterNode is one simulated machine.
	ClusterNode = cluster.Node
	// NetReport aggregates cluster-wide network statistics.
	NetReport = cluster.NetReport
)

// ClusterOption adjusts a ClusterConfig in NewCluster. Options apply in
// order after the base configuration, so later options win; the result
// is validated (ClusterConfig.Validate) before the cluster is built.
type ClusterOption func(*ClusterConfig)

// WithReconnect enables the supervised recovery layer: a lost peer
// parks the connection in Reconnecting and a supervisor redials with
// capped exponential backoff instead of failing outright. maxReconnects
// bounds consecutive attempts; 0 keeps the default budget.
func WithReconnect(maxReconnects int) ClusterOption {
	return func(c *ClusterConfig) {
		c.Core.Reconnect = true
		c.Core.MaxReconnects = maxReconnects
	}
}

// WithSchedQueue replaces the protocol thread's O(conns) round-robin
// scan with the class scheduler (one implicit class, served FIFO, unless
// WithQoS configures more) — required beyond a few hundred connections
// per node.
func WithSchedQueue() ClusterOption {
	return func(c *ClusterConfig) { c.Core.SchedQueue = true }
}

// WithHeartbeat enables idle-side liveness: established connections
// exchange heartbeats every interval, and a peer silent for dead is
// declared lost even with no traffic of its own. dead 0 keeps the
// configured DeadInterval.
func WithHeartbeat(interval, dead Time) ClusterOption {
	return func(c *ClusterConfig) {
		c.Core.HeartbeatInterval = interval
		if dead > 0 {
			c.Core.DeadInterval = dead
		}
	}
}

// WithQoS enables multi-tenant quality of service with one entry per
// traffic class (class 0 is the default class): data-frame service is
// scheduled by deficit-weighted fair queueing across classes, and each
// class's token-bucket rate limit and submission quotas bound how much
// of an endpoint one tenant can occupy (over-quota Posts fail fast with
// ErrThrottled; Do blocks for room). Tag connections with Conn.SetClass
// or service stubs with WithTenantClass. Implies WithSchedQueue — the
// classes are the scheduler's queues.
func WithQoS(classes ...QoSClass) ClusterOption {
	return func(c *ClusterConfig) {
		c.Core.QoS = classes
		c.Core.SchedQueue = true
	}
}

// WithSeed overrides the simulation seed.
func WithSeed(seed int64) ClusterOption {
	return func(c *ClusterConfig) { c.Seed = seed }
}

// NewCluster builds a cluster from a configuration, with functional
// options applied on top:
//
//	cl := multiedge.NewCluster(multiedge.OneLink1G(8),
//	    multiedge.WithReconnect(0), multiedge.WithSchedQueue())
func NewCluster(cfg ClusterConfig, opts ...ClusterOption) *Cluster {
	for _, opt := range opts {
		opt(&cfg)
	}
	return cluster.New(cfg)
}

// The paper's four evaluation configurations (IPPS'07 §3), plus the §6
// future-work setups.
var (
	// OneLink1G: one 1-GBit/s link per node, one switch.
	OneLink1G = cluster.OneLink1G
	// TwoLink1G: two 1-GBit/s links, strictly ordered delivery.
	TwoLink1G = cluster.TwoLink1G
	// TwoLinkUnordered1G: two 1-GBit/s links, out-of-order delivery.
	TwoLinkUnordered1G = cluster.TwoLinkUnordered1G
	// OneLink10G: one 10-GBit/s link per node.
	OneLink10G = cluster.OneLink10G
	// OneLink10GOffload: §6(b) hybrid with NIC protocol offload.
	OneLink10GOffload = cluster.OneLink10GOffload
	// TreeOneLink1G: §6(a) two-level multi-switch fabric.
	TreeOneLink1G = cluster.TreeOneLink1G
	// HybridRails: heterogeneous 1-GbE + 10-GbE rails with adaptive
	// (least-backlog) striping.
	HybridRails = cluster.HybridRails
)

// Physical substrate models (for custom topologies).
type (
	// LinkParams describes a link technology.
	LinkParams = phys.LinkParams
	// NICParams configures a NIC model.
	NICParams = phys.NICParams
	// SwitchParams configures a switch model.
	SwitchParams = phys.SwitchParams
	// HostCosts is the calibrated host-side cost table.
	HostCosts = hostmodel.Costs
)

var (
	// Gigabit returns 1-GBit/s link parameters.
	Gigabit = phys.Gigabit
	// TenGigabit returns 10-GBit/s link parameters.
	TenGigabit = phys.TenGigabit
	// DefaultHostCosts returns the calibrated host cost table.
	DefaultHostCosts = hostmodel.Default
)

// Shared memory (GeNIMA-style DSM over MultiEdge).
type (
	// DSM is a cluster-wide shared address space.
	DSM = dsm.System
	// DSMInstance is one node's DSM runtime.
	DSMInstance = dsm.Instance
	// DSMConfig sizes the shared region.
	DSMConfig = dsm.Config
	// Breakdown is the per-node execution-time decomposition.
	Breakdown = dsm.Breakdown
)

// PageSize is the DSM sharing granularity.
const PageSize = dsm.PageSize

// NewDSM builds the shared address space over an established full mesh
// (see Cluster.FullMesh).
func NewDSM(cl *Cluster, conns [][]*Conn, cfg DSMConfig) *DSM {
	return dsm.New(cl, conns, cfg)
}

// Message passing (MPI-style, over the same transport).
type (
	// Comm is a per-node communicator with Send/Recv and collectives.
	Comm = msg.Comm
)

// AnyTag matches any message tag in Comm.Recv.
const AnyTag = msg.AnyTag

// NewComms builds one communicator per node over an established full
// mesh. A communicator takes only the notifications of writes into its
// own rings and credit words, so a DSM, a relay and service stubs may
// share its endpoints.
func NewComms(cl *Cluster, conns [][]*Conn) []*Comm {
	return msg.New(cl, conns)
}

// Block storage (one-sided RDMA volumes, over the same transport).
type (
	// Volume is a block device served passively from one node's memory.
	Volume = blk.Volume
	// BlkClient is one node's handle on a Volume.
	BlkClient = blk.Client
	// Mirror is client-side RAID-1 over two volumes on different
	// hosts, with deadline-based failover and online rebuild.
	Mirror = blk.Mirror
)

// OpenMirror pairs two volume clients (on different hosts) into a
// mirror.
func OpenMirror(a, b *BlkClient) *Mirror { return blk.OpenMirror(a, b) }

// NewVolume carves a volume (blocks x blockSize bytes plus maxClients
// commit records) out of the host node's endpoint memory.
func NewVolume(cl *Cluster, host, blocks, blockSize, maxClients int) *Volume {
	return blk.NewVolume(cl, host, blocks, blockSize, maxClients)
}

// OpenVolume attaches node to a volume over an established connection
// to its host; id indexes the client's commit record (unique per
// client).
func OpenVolume(cl *Cluster, v *Volume, node int, conn *Conn, id int) *BlkClient {
	return blk.Open(cl, v, node, conn, id)
}

// Service layer: named services, replicated backends, pluggable load
// balancing and relay routing (see the quick start above).
type (
	// Registry maps service names to replica sets — the naming plane
	// Serve and Connect share.
	Registry = svc.Registry
	// Service is one named, replicated service.
	Service = svc.Service
	// ServiceBackend is one replica: an endpoint plus the base address
	// of the service region in its memory.
	ServiceBackend = svc.Backend
	// ServiceClient is a client stub: it resolves a name and issues
	// Op-shaped Calls across the backends.
	ServiceClient = svc.Client
	// ServiceStats counts one stub's calls, failovers, journaled
	// replays and condemnations.
	ServiceStats = svc.ClientStats
	// ServiceOptions configures a stub (Connect's With... options fill
	// one; use svc.Connect directly to pass the struct wholesale).
	ServiceOptions = svc.Options
	// Balancer picks a backend for each call. Stateful; one instance
	// per stub.
	Balancer = svc.Balancer
	// Relay forwards calls for clients whose direct path to a backend
	// is broken (StartRelay).
	Relay = svc.Relay
	// RelayStats counts a relay's forwarded and failed calls.
	RelayStats = svc.RelayStats
)

// DefaultFailoverBudget is the per-call deadline when no
// WithFailoverBudget option is given.
const DefaultFailoverBudget = svc.DefaultFailoverBudget

// Service-layer errors.
var (
	// ErrUnknownService: the registry has no service under that name.
	ErrUnknownService = svc.ErrUnknownService
	// ErrNoBackends: every replica is condemned or terminally failed.
	ErrNoBackends = svc.ErrNoBackends
	// ErrBadCall: the operation does not fit the service region.
	ErrBadCall = svc.ErrBadCall
	// ErrNoRelay: relay fallback requested without StartRelay, or with
	// every relay call slot taken.
	ErrNoRelay = svc.ErrNoRelay
	// ErrRelayFailed: the relay path itself broke.
	ErrRelayFailed = svc.ErrRelayFailed
)

// Registry construction and balancing policies.
var (
	// NewRegistry creates an empty service registry.
	NewRegistry = svc.NewRegistry
	// NewRoundRobin cycles through the eligible backends.
	NewRoundRobin = svc.NewRoundRobin
	// NewRandom picks uniformly with a seeded deterministic generator.
	NewRandom = svc.NewRandom
	// NewAffinity pins each caller token to one backend (sticky across
	// reconnects) and delegates unbound tokens to the fallback policy.
	NewAffinity = svc.NewAffinity
)

// StartRelay turns ep into the registry's relay: a forwarding node that
// replays calls toward backends the caller cannot reach directly. It
// has slots call slots; each stub connected WithRelayFallback takes one
// for its life, and Connect fails with ErrNoRelay once none is left.
// budget 0 means DefaultFailoverBudget.
func StartRelay(ep *Endpoint, reg *Registry, slots int, budget Time) *Relay {
	return svc.StartRelay(ep, reg, slots, budget)
}

// ConnectOption configures a service stub in Connect.
type ConnectOption func(*ServiceOptions)

// WithBalancer selects the load-balancing policy (default round-robin).
func WithBalancer(b Balancer) ConnectOption {
	return func(o *ServiceOptions) { o.Balancer = b }
}

// WithFailoverBudget bounds how long a call may sit on a broken or
// stalled path before the stub fails over; negative waits forever.
func WithFailoverBudget(d Time) ConnectOption {
	return func(o *ServiceOptions) { o.FailoverBudget = d }
}

// WithMaxAttempts caps how many backends one call may try (default:
// the replica count).
func WithMaxAttempts(n int) ConnectOption {
	return func(o *ServiceOptions) { o.MaxAttempts = n }
}

// WithRelayFallback forwards a call through the registry's relay before
// condemning a backend the client cannot reach directly.
func WithRelayFallback() ConnectOption {
	return func(o *ServiceOptions) { o.UseRelay = true }
}

// WithCallLinks sets the per-connection link count the stub dials with
// (0 = all rails).
func WithCallLinks(n int) ConnectOption {
	return func(o *ServiceOptions) { o.Links = n }
}

// WithTenantClass tags every connection and operation the stub issues
// with a QoS traffic class (see WithQoS; 0 is the default class).
func WithTenantClass(cls int) ConnectOption {
	return func(o *ServiceOptions) { o.Class = cls }
}

// Serve registers a named service with one replica per backend
// endpoint, allocating a size-byte region in each.
func Serve(reg *Registry, name string, size int, backends []*Endpoint, opts ...ServeOption) (*Service, error) {
	s, err := reg.Register(name, size, backends...)
	if err != nil {
		return nil, err
	}
	for _, opt := range opts {
		if err := opt(reg, s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ServeOption extends a Serve registration (relay placement, future
// per-service policy).
type ServeOption func(*Registry, *Service) error

// WithRelay starts a relay on ep during Serve when the registry does
// not already have one; slots bounds the stubs that may connect
// WithRelayFallback (see StartRelay).
func WithRelay(ep *Endpoint, slots int) ServeOption {
	return func(reg *Registry, _ *Service) error {
		if _, ok := reg.Relay(); ok {
			return nil
		}
		svc.StartRelay(ep, reg, slots, 0)
		return nil
	}
}

// Connect resolves name in the registry and returns a stub issuing
// calls from ep across the service's replicas.
func Connect(ep *Endpoint, reg *Registry, name string, opts ...ConnectOption) (*ServiceClient, error) {
	var o ServiceOptions
	for _, opt := range opts {
		opt(&o)
	}
	return svc.Connect(ep, reg, name, o)
}
