package obs

import "multiedge/internal/sim"

// Health snapshots: point-in-time structs describing one endpoint and
// its connections, populated by core (Endpoint.Health / Conn.Health)
// and exported here as JSON under the tags below — a periodic timeline
// sampled by a daemon (SampleHealth) during long soaks. Like all obs
// machinery, taking a snapshot is pure observation: it reads live
// protocol state and touches no RNG and no timers.

// ConnHealth is one connection's point-in-time health.
type ConnHealth struct {
	Conn uint32 `json:"conn"` // local connection id
	Peer int    `json:"peer"` // remote node
	// State is the conn's lifecycle state: "dialing", "established",
	// "reconnecting", "closing" (its close handshake runs), or, once it
	// ended, "closed" — "failed" when the cause wraps core.ErrPeerDead.
	State       string `json:"state"`
	Incarnation uint16 `json:"incarnation"`
	Reconnects  int    `json:"reconnects"` // supervised reconnects survived

	SRTTUs   float64 `json:"srtt_us"` // smoothed RTT estimate, µs (0 before the first sample)
	RTTVarUs float64 `json:"rttvar_us"`
	RTOUs    float64 `json:"rto_us"` // timeout the next expiry timer would arm, µs

	// Rails is the per-rail RTT split of the blended estimator above,
	// one entry per physical link the conn stripes over.
	Rails []RailHealth `json:"rails"`

	Inflight int `json:"inflight"` // unacknowledged frames outstanding
	Window   int `json:"window"`   // configured window (Inflight's bound)
	Cwnd     int `json:"cwnd"`     // congestion window (0 = congestion control off)

	SQDepth    int    `json:"sq_depth"`    // posted-but-unrung descriptors
	CQDepth    int    `json:"cq_depth"`    // unpolled completions
	JournalOps int    `json:"journal_ops"` // incomplete user operations: len(core.Conn.Journal())
	BytesAcked uint64 `json:"bytes_acked"` // payload bytes acknowledged end-to-end, lifetime
}

// RailHealth is one rail's point-in-time RTT estimate: the per-link
// split of the connection's blended SRTT (all zero before the rail's
// first Karn-clean sample).
type RailHealth struct {
	SRTTUs   float64 `json:"srtt_us"`
	RTTVarUs float64 `json:"rttvar_us"`
	RTOUs    float64 `json:"rto_us"`
}

// EndpointHealth is one endpoint's point-in-time health, including
// every tabled connection (in stable table order).
type EndpointHealth struct {
	At          sim.Time     `json:"at_ns"`
	Node        int          `json:"node"`
	ActiveConns int          `json:"active_conns"`
	SchedCtrlQ  int          `json:"sched_ctrl_q"` // connections queued for control service, all classes
	SchedSendQ  int          `json:"sched_send_q"` // connections queued for data service, all classes
	Conns       []ConnHealth `json:"conns"`
}

// HealthLog is a periodically sampled health timeline for one endpoint.
// Create with Registry.SampleHealth; the log ticks on the registry's
// ticker until the registry quiesces.
type HealthLog struct {
	Node    int
	Every   sim.Time
	Entries []EndpointHealth

	ticker
}

// SampleHealth starts sampling f every interval into a HealthLog.
// Returns nil on a nil registry.
func (r *Registry) SampleHealth(node int, every sim.Time, f func() EndpointHealth) *HealthLog {
	if r == nil {
		return nil
	}
	l := &HealthLog{Node: node, Every: every}
	r.startTicker(&l.ticker, every, func() { l.Entries = append(l.Entries, f()) })
	r.healthLogs = append(r.healthLogs, l)
	return l
}

// HealthLogs returns the registered health timelines (nil on nil
// registry).
func (r *Registry) HealthLogs() []*HealthLog {
	if r == nil {
		return nil
	}
	return r.healthLogs
}

// HealthTimelineJSON renders every health log as one JSON document:
// {"schema":..., "nodes":[{"node":..,"every_ns":..,"entries":[...]}]},
// each entry an EndpointHealth. Nil when a value is NaN or infinite
// (see EncodeJSON).
func HealthTimelineJSON(logs []*HealthLog) []byte {
	type node struct {
		Node    int              `json:"node"`
		EveryNs sim.Time         `json:"every_ns"`
		Entries []EndpointHealth `json:"entries"`
	}
	nodes := make([]node, 0, len(logs))
	for _, l := range logs {
		entries := make([]EndpointHealth, 0, len(l.Entries))
		for _, e := range l.Entries {
			e.Conns = append([]ConnHealth{}, e.Conns...)
			for i := range e.Conns {
				e.Conns[i].Rails = list(e.Conns[i].Rails)
			}
			entries = append(entries, e)
		}
		nodes = append(nodes, node{Node: l.Node, EveryNs: l.Every, Entries: entries})
	}
	return EncodeJSON(struct {
		Schema string `json:"schema"`
		Nodes  []node `json:"nodes"`
	}{Schema: "multiedge-health/v1", Nodes: nodes})
}

// list returns s, or an empty list for nil, so JSON writes [] not null.
func list[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}
