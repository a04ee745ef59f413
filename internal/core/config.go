// Package core implements MultiEdge itself: the connection-oriented,
// edge-based communication protocol of IPPS'07 §2. It provides
// RDMA-style remote read and write into a peer's address space,
// end-to-end sliding-window flow control with piggy-backed and delayed
// acknowledgements, NACK-based retransmission, transparent striping of
// frames across multiple physical links (spatial parallelism), and the
// paper's backward/forward fence ordering API.
//
// The engine is event-driven and runs against the modelled substrate in
// internal/phys, charging its work to the modelled CPUs of
// internal/hostmodel. Applications interact through Endpoint and Conn
// from simulated processes (sim.Proc).
package core

import "multiedge/internal/sim"

// Config holds the protocol parameters. The paper fixes the flow-control
// window at compile time (§2.4); here it is a field so experiments can
// sweep it.
type Config struct {
	// Window is the sliding-window size in frames per connection
	// direction. It may be smaller than AckEvery: the frame that spends
	// such a window while more is queued asks for its acknowledgement
	// (frame.Header.AckReq), so the sender is bound by the round trip,
	// not by AckDelay.
	Window int
	// AckEvery is the delayed-acknowledgement threshold: an explicit
	// ACK is sent after this many unacknowledged data frames when no
	// reverse traffic piggy-backs one (§2.4). The sender reads it too,
	// as the receiver's threshold, to tell a flight that can reach it
	// from one that cannot (Conn.blockedOnAckOf) — every endpoint of a
	// cluster runs the same Config.
	AckEvery int
	// AckDelay bounds how long an acknowledgement may be deferred. No
	// sender waits it out on an ACK it is blocked on: operations that
	// carry Solicit, forward fences and window-closing flights below
	// AckEvery are acknowledged on arrival.
	AckDelay sim.Time
	// NackDelay is the loss-detection timescale: a missing sequence
	// number is NACKed once it has been absent for NackDelay/4 while
	// later frames keep arriving, or NackDelay/8 when prodded by a
	// duplicate or timer. It must comfortably exceed the few-microsecond
	// reordering that multi-link round-robin introduces, or spurious
	// retransmissions defeat spatial parallelism.
	NackDelay sim.Time
	// RTO is the coarse retransmission timeout of §2.4: if no positive
	// acknowledgement progress happens for this long while frames are
	// outstanding, the sender retransmits the last transmitted frame.
	// With adaptive mode enabled (RTOMax > 0) this becomes the initial
	// timeout and the floor of the adaptive one.
	RTO sim.Time
	// RTOMax enables adaptive retransmission timing: when positive, the
	// effective timeout follows a per-connection Jacobson estimate
	// (SRTT + 4*RTTVAR from ack timestamps, Karn-filtered to first
	// transmissions), doubles on each consecutive expiry, and is clamped
	// to [RTO, RTOMax], so adaptation can only slow a timer down. Zero
	// keeps the paper's fixed RTO — the default, because the go-back-N
	// ablation's repair cadence is part of the pinned results (its clean
	// runs are RTO-paced).
	RTOMax sim.Time
	// MaxRetries is the peer-failure retry budget: after this many
	// consecutive timeout expiries without any acknowledgement progress
	// the connection transitions to Failed and every queued or in-flight
	// operation completes with ErrPeerDead. 0 (the default) disables the
	// budget and leaves detection to DeadInterval: with the fixed RTO a
	// small expiry count spans only milliseconds and would condemn live
	// links under heavy loss, whereas with adaptive backoff (RTOMax > 0)
	// each retry doubles the wait and a small budget is meaningful.
	// MaxRetries also bounds connection-setup and close-handshake
	// retries, which otherwise repeat forever against a dead host.
	MaxRetries int
	// DeadInterval bounds how long a connection tolerates total silence:
	// if frames are outstanding (or heartbeats are enabled) and no
	// progress is observed for DeadInterval, the peer is declared dead.
	// 0 disables the bound.
	DeadInterval sim.Time
	// HeartbeatInterval enables idle-side liveness: an established
	// connection that has not transmitted for this long sends a
	// lightweight Heartbeat frame, and a connection that has heard
	// nothing for DeadInterval fails even with no traffic of its own.
	// 0 (the default) disables heartbeats entirely, so benchmark runs
	// carry no extra frames.
	HeartbeatInterval sim.Time
	// Strict applies every frame in exact sequence order at the
	// receiver, buffering out-of-order arrivals (the paper's 2L-1G
	// configuration, where all operations are strictly ordered).
	Strict bool
	// ByteStripe enables the byte-level-parallelism baseline: each
	// MTU's worth of payload is sliced across all links as smaller
	// coupled sub-frames instead of whole frames alternating links
	// (§1 discusses why this scales poorly).
	ByteStripe bool
	// GoBackN replaces selective repeat + NACK with a go-back-N ARQ
	// baseline: the receiver accepts only in-order frames and the
	// sender retransmits everything outstanding on timeout.
	GoBackN bool
	// AdaptiveStripe replaces round-robin link selection with
	// least-backlog selection: each frame goes to the eligible link
	// whose transmit wire will free up first. Equivalent to round-robin
	// on homogeneous rails, but on heterogeneous ones (a 1-GbE rail
	// next to a 10-GbE rail) it delivers the combined rate where
	// round-robin is limited to 2x the slowest rail (an extension
	// beyond IPPS'07, which evaluates identical rails).
	AdaptiveStripe bool
	// MemBytes is the size of each endpoint's remotely accessible
	// address space. It is reserved, not zeroed: on Linux the space is
	// an anonymous mapping whose pages the kernel backs on first touch,
	// so a node costs the memory its run touches, and an untouched byte
	// reads zero (see Endpoint.Mem for the lifetime rule).
	MemBytes int
	// Offload models the paper's §6 future-work hybrid: per-frame
	// protocol processing runs on a pipelined NIC engine at host parity
	// instead of the host protocol CPU (the host is freed), and payload
	// moves by direct DMA between user memory and the wire (no host
	// copies are charged).
	Offload bool
	// DeadLinkThreshold is the number of repair events (frames NACKed or
	// timed out) attributed to one link without an intervening
	// acknowledged frame on it, after which the sender declares the link
	// dead and stops striping new frames onto it. 0 disables detection.
	// Dead links are probed with a single in-flight frame every
	// linkProbeInterval and re-admitted as soon as any frame sent on
	// them is acknowledged, so a repaired cable heals transparently.
	DeadLinkThreshold int
	// LinkStaleAge is the receive-side counterpart of failure handling:
	// the per-link FIFO loss-detection rule normally refuses to NACK a
	// sequence number until every link has delivered a later frame, but
	// a hard-failed link never delivers anything and would veto loss
	// detection forever. A link that has been silent for LinkStaleAge
	// while gaps exist is presumed empty or dead and stops vetoing.
	// It must comfortably exceed the worst cross-link queue skew.
	LinkStaleAge sim.Time
	// EnforceRegistration makes operation initiation require the local
	// buffer to lie within a region registered with RegisterMemory
	// (IPPS'07 §2.2 provides registration primitives; receive buffers
	// never need registration). Off by default for the paper's
	// transparent mode.
	EnforceRegistration bool
	// UseSQ does nothing.
	//
	// Deprecated: no layer reads it. Core never did, and the upper
	// layers (dsm, msg, blk) always issue with Conn.Do; whether an
	// operation goes through the submission queue is the caller's choice
	// per operation (Conn.Post/Conn.Ring). It remains only because the
	// benchmark's profiles still set it by name, and a name they cannot
	// find makes their heap reading for bytes_per_conn unreliable. It
	// goes once they stop naming it.
	UseSQ bool
	// SchedQueue replaces the protocol thread's O(conns) round-robin
	// scans for control and data work with the class scheduler: a
	// connection enqueues itself on its class's service queues when it
	// gains work and the thread pops the next one by deficit-weighted
	// fair queueing, so per-step cost is O(1) regardless of how many
	// connections the endpoint carries. With QoS empty there is one
	// implicit weight-1 class, which is FIFO round-robin (a connection
	// re-enqueues at the tail after each frame). Service order differs
	// from the scan order, and on a few connections the scan keeps the
	// per-node loops phase-locked to their interrupts (DESIGN.md §8 has
	// the numbers), so the flag is off by default and the pinned golden
	// results run on the scan.
	SchedQueue bool
	// Reconnect enables the supervised recovery layer: instead of a
	// terminal Failed state, peer death parks the connection in
	// Reconnecting, an endpoint supervisor redials with capped
	// exponential backoff, the handshake negotiates a fresh incarnation
	// (stamped into every frame and fenced at the receiver, so frames
	// from the dead epoch — duplicated, delayed in a deep phys queue, or
	// replayed across a rail Restore — are dropped and counted in
	// StaleEpochDrops), and the journal of incomplete operations is
	// replayed: writes re-issued from local memory, reads re-requested.
	// A per-op applied high-water mark on the receiver makes overlapping
	// replayed writes exactly-once. Ops that carried a Deadline still
	// fail with ErrDeadlineExceeded, and ops on a connection that
	// exhausts MaxReconnects fail with ErrPeerDead, exactly as without
	// recovery. Off by default so every pinned golden stays
	// byte-identical (incarnation bytes stay zero on the wire).
	Reconnect bool
	// MaxReconnects bounds how many consecutive reconnect attempts the
	// supervisor makes before giving up and declaring the peer dead for
	// real. 0 (with Reconnect on) means the default budget of 8.
	MaxReconnects int
	// ReconnectBackoff is the initial supervisor redial delay; each
	// failed attempt doubles it up to reconnectBackoffCap times the
	// initial delay. Zero defaults to connRetry.
	ReconnectBackoff sim.Time
	// CoalesceLimit enables small-op frame coalescing on the doorbell
	// path: consecutive posted writes of at most this many bytes to the
	// same peer share MultiData frames, amortizing per-frame protocol
	// and wire overhead. 0 disables coalescing (each posted op gets its
	// own frames). Only Ring-issued operations are ever coalesced.
	CoalesceLimit int
	// QoS enables multi-tenant quality of service: each entry defines
	// one traffic class (a tenant), connections and operations are
	// tagged with a class index (Conn.SetClass / Op.Class), and the
	// endpoint's scheduler serves data frames by deficit-weighted fair
	// queueing across these classes instead of its one implicit class.
	// Per-class token-bucket rate limits and submission quotas (see
	// QoSClass) bound how much of the endpoint a single tenant can
	// occupy, so an elephant-flow tenant degrades gracefully — throttled
	// or paced — instead of starving everyone else. With two or more
	// classes the scheduler also paces itself to the wire, so that the
	// class weights, not the NIC FIFO, decide frame order. Requires
	// SchedQueue (the classes are the scheduler's queues;
	// cluster.Config.Validate rejects QoS without it). Empty (the
	// default) means no admission control, no Stats.Qos* counters and no
	// qos_* series.
	QoS []QoSClass
	// CongestionControl enables the end-to-end congestion layer: an AIMD
	// congestion window per connection sits between the scheduler and the
	// wire (fresh frames AND retransmissions respect it), ECN marks from
	// congested switch queues (cluster.Config.EcnThreshold) echoed in
	// acks cut the window before drop-tail fires, retransmission timeouts
	// halve it, and per-rail RTT estimates weight the striping decision
	// away from congested rails. When the window is exhausted, admission
	// backpressure kicks in with the QoS quota contract: Do blocks
	// honoring Op.Deadline, Post fails fast with ErrThrottled. Requires
	// SchedQueue (cluster.Config.Validate rejects the combination
	// without it). Disabled (the zero value) keeps every pinned golden
	// byte-identical.
	CongestionControl CCConfig
}

// CCConfig parameterizes the per-connection AIMD congestion controller.
// The zero value disables the layer. The window's floor and cap, the
// admission backlog and the rail probe interval are the constants
// ccMinWindow, Config.Window, ccBacklog and ccProbeInterval.
type CCConfig struct {
	// Enable turns the congestion controller on.
	Enable bool
	// InitWindow is the initial congestion window in frames, at most
	// Config.Window. 0 defaults to 16 (slow enough that 64 fan-in
	// senders do not instantly overflow a commodity switch queue, fast
	// enough to probe up within a few RTTs).
	InitWindow int
}

// Protocol constants: values no caller varies, kept in one place so the
// Config surface holds only what runs actually set.
const (
	// connRetry is the connection-setup (and close-handshake)
	// retransmission interval, and the default first redial delay of the
	// reconnect supervisor: about a hundred LAN round trips, so a lost
	// ConnReq costs little and a slow peer is not flooded.
	connRetry = 5 * sim.Millisecond
	// linkProbeInterval is how often a dead link is risked one data frame
	// to discover that it has come back: five of the paper's RTOs, so a
	// still-dead cable costs one repair per 10 ms and a healed one
	// rejoins within that.
	linkProbeInterval = 10 * sim.Millisecond
	// reconnectBackoffCap caps the doubling redial delay at this many
	// times the first one (five doublings): 160 ms at the 5 ms default,
	// so a peer that stays down is redialed a few times a second, and
	// the default budget of 8 attempts spans 635 ms.
	reconnectBackoffCap = 32
	// ccMinWindow floors the congestion window under repeated cuts, so a
	// connection always keeps probing the path. The cap is Config.Window:
	// the flow-control window already bounds the wire, so a congestion
	// window beyond it is meaningless.
	ccMinWindow = 2
	// ccBacklog bounds how many operations a connection may queue while
	// its congestion window is exhausted before admission backpressure
	// (blocking Do / fail-fast Post) engages. It is half the default
	// Window, so single-frame ops parked behind a closed congestion
	// window never outnumber what the flow-control window can carry
	// once it reopens.
	ccBacklog = 64
	// ccProbeInterval is how often a multi-rail connection measures each
	// rail's own round trip with a probe/echo exchange. Cumulative
	// acknowledgements cannot split rails — the ack only advances when
	// the slowest rail's interleaved frames have arrived, so every rail
	// appears equally slow — and the weighted rail scheduler needs the
	// true split to steer load off a congested rail. Probes run only
	// while the controller is enabled and the connection stripes more
	// than one link.
	ccProbeInterval = sim.Millisecond
)

// ccOn reports whether the congestion controller is enabled.
func (c *Config) ccOn() bool { return c.CongestionControl.Enable }

// ccInit returns the effective initial congestion window.
func (c *Config) ccInit() int32 {
	cw := c.CongestionControl.InitWindow
	if cw <= 0 {
		cw = 16
	}
	return int32(min(cw, c.Window))
}

// QoSClass configures one traffic class (tenant) of the QoS layer.
// Class 0 is the default class every untagged connection and operation
// belongs to; give it an entry like any other. Zero-value quota fields
// mean "unlimited" so a class can be weighted without being capped.
type QoSClass struct {
	// Weight is the class's share of data-frame service under
	// deficit-weighted fair queueing: when every class is backlogged,
	// class i receives Weight_i / ΣWeight of the endpoint's transmit
	// slots (byte-denominated, so large frames consume proportionally
	// more deficit). Must be >= 1.
	Weight int
	// RateBps, when positive, caps the class's data-payload rate with a
	// token bucket of this refill rate (bytes per second). All data
	// transmissions, retransmissions included, draw from the bucket;
	// control frames (acks/nacks) are never throttled — repairing the
	// window is what un-blocks everyone else.
	RateBps int64
	// Burst is the token bucket's capacity in bytes. Zero with a
	// positive RateBps defaults to 64 KiB.
	Burst int
	// MaxQueued, when positive, bounds how many operations the class may
	// have admitted (issued or posted) but not yet completed at one
	// endpoint. Over-quota fail-fast submissions (Post) return
	// ErrThrottled; blocking submissions (Do) wait for room, honoring
	// Op.Deadline.
	MaxQueued int
	// MaxQueuedBytes, when positive, bounds the class's admitted but
	// uncompleted payload bytes — the journal/kernel-buffer memory a
	// tenant may pin — with the same backpressure semantics as
	// MaxQueued.
	MaxQueuedBytes int
}

// reconnectBudget is the effective MaxReconnects: the configured value,
// or 8 attempts when unset.
func (c *Config) reconnectBudget() int {
	if c.MaxReconnects > 0 {
		return c.MaxReconnects
	}
	return 8
}

// reconnectBackoff returns the initial redial delay and its cap.
func (c *Config) reconnectBackoff() (base, max sim.Time) {
	base = c.ReconnectBackoff
	if base <= 0 {
		base = connRetry
	}
	return base, reconnectBackoffCap * base
}

// DefaultConfig returns the configuration used throughout the paper's
// reproduction runs.
func DefaultConfig() Config {
	return Config{
		Window:            128,
		AckEvery:          32,
		AckDelay:          500 * sim.Microsecond,
		NackDelay:         200 * sim.Microsecond,
		RTO:               2 * sim.Millisecond,
		DeadInterval:      sim.Second,
		MemBytes:          16 << 20,
		DeadLinkThreshold: 16,
		LinkStaleAge:      1600 * sim.Microsecond,
	}
}
