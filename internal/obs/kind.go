package obs

// Kind is the one protocol-event vocabulary: every occurrence the
// protocol layer reports — a frame on the wire, a lifecycle transition, a
// scheduling decision, a step of one operation's life — is one Kind with
// two kind-specific payload fields, A and B (documented per constant).
// The same value feeds a Recorder ring and, for operation-scoped kinds,
// the operation's Span; DESIGN.md §10 tabulates them.
type Kind uint8

// Protocol event kinds. The traffic kinds come first, in the column
// order of the traffic view's summary and timeline.
const (
	EvFrameTx      Kind = iota + 1 // data frame handed to a rail; A = seq, B = payload bytes
	EvFrameRetx                    // retransmission; A = seq, B = payload bytes
	EvTxAck                        // explicit ACK sent; A = cumulative ack, B = 0
	EvTxNack                       // NACK sent; A = cumulative ack, B = missing-list bytes
	EvRxData                       // data frame accepted by the ARQ; A = seq, B = payload bytes
	EvRxDup                        // duplicate frame dropped; A = seq, B = payload bytes
	EvRxOOO                        // frame accepted out of order; A = seq, B = payload bytes
	EvRxHold                       // frame buffered behind ordering or a fence; A = seq, B = payload bytes
	EvLinkDead                     // link excluded from striping; A = link, B = dead links
	EvLinkRestore                  // dead link re-admitted; A = link, B = dead links
	EvFailed                       // terminal failure (ErrPeerDead); A = attempts or expiries, B = inflight
	EvDial                         // conn created by Dial; A = links, B = remote node
	EvEstablished                  // handshake complete; A = incarnation, B = remote node
	EvClosed                       // graceful teardown; A = 1 if peer-initiated
	EvPeerDead                     // local peer-death verdict; A = 1 if a Reset is sent, B = expiries
	EvRtoExpiry                    // retransmission timeout fired; A = backoff depth, B = inflight
	EvReconnect                    // parked in Reconnecting (epoch condemned); A = incarnation, B = 1 if parked by the peer's redial
	EvRedial                       // supervised redial sent; A = attempt, B = proposed incarnation
	EvRebirth                      // successor epoch installed; A = incarnation, B = replayed ops
	EvNackDrop                     // missing-list cap hit; A = seq, B = tracked gaps
	EvDoorbell                     // SQ doorbell rung; A = descriptors issued
	EvSched                        // conn enqueued on the scheduler; A = 0 ctrl / 1 send, B = queue depth
	EvStaleDrop                    // frame or redial dropped for a dead incarnation; A = its epoch, B = live epoch (0 without a conn)
	EvAbandon                      // conn terminally failed by Conn.Abandon; A = incarnation, B = inflight
	EvThrottled                    // QoS admission backpressure; A = class, B = 0 fail-fast / 1 blocking wait
	EvRateDefer                    // QoS class parked on an empty token bucket; A = class, B = refill delay
	EvCwndCut                      // congestion window halved; A = new cwnd, B = 0 ECN echo / 1 RTO
	EvEcnEcho                      // ECN marks echoed on an ack-bearing frame; A = marks covered
	EvCcBlock                      // congestion-window backpressure; A = cwnd, B = 0 fail-fast / 1 blocking wait
	EvProtoDequeue                 // protocol CPU took an op off the send queue; A = seq of its first frame
	EvNackRepair                   // a NACK scheduled a repair; A = seq, B = payload bytes
	EvRtoRepair                    // a timeout scheduled a repair; A = seq, B = payload bytes
	EvAck                          // sender saw a frame acknowledged; A = seq, B = payload bytes
	EvRxApply                      // receiver applied a frame to memory; A = seq, B = payload bytes
	EvReadServe                    // responder started serving a read; A = seq, B = read bytes
	EvRxComplete                   // receiver retired a whole operation; B = bytes applied
	kindCount
)

var kindNames = [kindCount]string{
	"?", "frame-tx", "frame-retx", "tx-ack", "tx-nack", "rx-data", "rx-dup",
	"rx-ooo", "rx-hold", "link-dead", "link-restore", "failed", "dial",
	"established", "closed", "peer-dead", "rto-expiry", "reconnect", "redial",
	"rebirth", "nack-drop", "doorbell", "sched", "stale-drop", "abandon",
	"throttled", "rate-defer", "cwnd-cut", "ecn-echo", "cc-block",
	"proto-dequeue", "nack-repair", "rto-repair", "ack", "rx-apply",
	"read-serve", "rx-complete",
}

// String returns the kind's wire name ("frame-tx", ...), "?" out of range.
func (k Kind) String() string {
	if k >= kindCount {
		return "?"
	}
	return kindNames[k]
}

// KindSet is a set of kinds, one bit per Kind.
type KindSet uint64

// Has reports whether k is in the set.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// The recorder sets.
const (
	// FlightKinds are what the flight recorder rings keep: lifecycle,
	// recovery, scheduling and link-health events, no per-frame ones.
	FlightKinds KindSet = 1<<EvDial | 1<<EvEstablished | 1<<EvClosed | 1<<EvFailed |
		1<<EvPeerDead | 1<<EvRtoExpiry | 1<<EvReconnect | 1<<EvRedial | 1<<EvRebirth |
		1<<EvNackDrop | 1<<EvDoorbell | 1<<EvSched | 1<<EvLinkDead | 1<<EvLinkRestore |
		1<<EvStaleDrop | 1<<EvAbandon | 1<<EvThrottled | 1<<EvRateDefer | 1<<EvCwndCut |
		1<<EvEcnEcho | 1<<EvCcBlock
	// TrafficKinds are the frame-level view behind the paper's network
	// traffic analysis: what crossed the wire and what the receiver made
	// of it.
	TrafficKinds KindSet = 1<<EvFrameTx | 1<<EvFrameRetx | 1<<EvTxAck | 1<<EvTxNack |
		1<<EvRxData | 1<<EvRxDup | 1<<EvRxOOO | 1<<EvRxHold | 1<<EvLinkDead |
		1<<EvLinkRestore | 1<<EvFailed
	// AllKinds is every kind.
	AllKinds KindSet = 1<<kindCount - 2
)

// byteKinds are the kinds whose B field counts payload bytes; a
// recorder's per-kind byte totals sum B over these only.
const byteKinds KindSet = 1<<EvFrameTx | 1<<EvFrameRetx | 1<<EvTxNack | 1<<EvRxData |
	1<<EvRxDup | 1<<EvRxOOO | 1<<EvRxHold | 1<<EvNackRepair | 1<<EvRtoRepair |
	1<<EvAck | 1<<EvRxApply | 1<<EvReadServe | 1<<EvRxComplete
