package obs

import (
	"fmt"
	"strings"

	"multiedge/internal/sim"
)

// Health snapshots: point-in-time structs describing one endpoint and
// its connections, populated by core (Endpoint.Health / Conn.Health)
// and exported here as deterministic JSON — either a single document or
// a periodic timeline sampled by a daemon (SampleHealth) during long
// soaks. Like all obs machinery, taking a snapshot is pure observation:
// it reads live protocol state and touches no RNG and no timers.

// ConnHealth is one connection's point-in-time health.
type ConnHealth struct {
	Conn uint32 // local connection id
	Peer int    // remote node
	// State is the conn's lifecycle state: "dialing", "established",
	// "reconnecting", "closing" (its close handshake runs), or, once it
	// ended, "closed" — "failed" when the cause wraps core.ErrPeerDead.
	State       string
	Incarnation uint16
	Reconnects  int // supervised reconnects survived

	SRTTUs   float64 // smoothed RTT estimate, µs (0 before the first sample)
	RTTVarUs float64
	RTOUs    float64 // timeout the next expiry timer would arm, µs

	// Rails is the per-rail RTT split of the blended estimator above,
	// one entry per physical link the conn stripes over.
	Rails []RailHealth

	Inflight int // unacknowledged frames outstanding
	Window   int // configured window (Inflight's bound)
	Cwnd     int // congestion window (0 = congestion control off)

	SQDepth    int    // posted-but-unrung descriptors
	CQDepth    int    // unpolled completions
	JournalOps int    // incomplete user operations: len(core.Conn.Journal())
	BytesAcked uint64 // payload bytes acknowledged end-to-end, lifetime
}

// RailHealth is one rail's point-in-time RTT estimate: the per-link
// split of the connection's blended SRTT (all zero before the rail's
// first Karn-clean sample).
type RailHealth struct {
	SRTTUs   float64
	RTTVarUs float64
	RTOUs    float64
}

// EndpointHealth is one endpoint's point-in-time health, including
// every tabled connection (in stable table order).
type EndpointHealth struct {
	At          sim.Time
	Node        int
	ActiveConns int
	SchedCtrlQ  int // connections queued for control service, all classes
	SchedSendQ  int // connections queued for data service, all classes
	Conns       []ConnHealth
}

// appendJSON renders the snapshot into b as a deterministic JSON
// object (fixed field order, no maps).
func (h EndpointHealth) appendJSON(b *strings.Builder) {
	fmt.Fprintf(b, `{"at_ns":%d,"node":%d,"active_conns":%d,"sched_ctrl_q":%d,"sched_send_q":%d,"conns":[`,
		int64(h.At), h.Node, h.ActiveConns, h.SchedCtrlQ, h.SchedSendQ)
	for i, c := range h.Conns {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `{"conn":%d,"peer":%d,"state":"%s","incarnation":%d,"reconnects":%d,`+
			`"srtt_us":%g,"rttvar_us":%g,"rto_us":%g,"rails":[`,
			c.Conn, c.Peer, jsonEscape(c.State), c.Incarnation, c.Reconnects,
			c.SRTTUs, c.RTTVarUs, c.RTOUs)
		for j, r := range c.Rails {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, `{"srtt_us":%g,"rttvar_us":%g,"rto_us":%g}`,
				r.SRTTUs, r.RTTVarUs, r.RTOUs)
		}
		fmt.Fprintf(b, `],"inflight":%d,"window":%d,"cwnd":%d,`+
			`"sq_depth":%d,"cq_depth":%d,"journal_ops":%d,"bytes_acked":%d}`,
			c.Inflight, c.Window, c.Cwnd,
			c.SQDepth, c.CQDepth, c.JournalOps, c.BytesAcked)
	}
	b.WriteString("]}")
}

// JSON renders the snapshot as a standalone deterministic JSON document.
func (h EndpointHealth) JSON() []byte {
	var b strings.Builder
	h.appendJSON(&b)
	b.WriteByte('\n')
	return []byte(b.String())
}

// HealthLog is a periodically sampled health timeline for one endpoint.
// Create with Registry.SampleHealth; the log ticks on daemon events
// (never keeping a drained simulation alive) until stopped or the
// registry quiesces.
type HealthLog struct {
	Node    int
	Every   sim.Time
	Entries []EndpointHealth

	stopped bool
	timer   *sim.Timer
}

// SampleHealth starts sampling f every interval into a HealthLog.
// Returns nil on a nil registry.
func (r *Registry) SampleHealth(node int, every sim.Time, f func() EndpointHealth) *HealthLog {
	if r == nil {
		return nil
	}
	if every <= 0 {
		panic(fmt.Sprintf("obs: non-positive health sampling interval %d", every))
	}
	l := &HealthLog{Node: node, Every: every}
	var tick func()
	tick = func() {
		if l.stopped || r.quiesced {
			return
		}
		l.Entries = append(l.Entries, f())
		l.timer = r.env.AfterDaemon(every, tick)
	}
	l.timer = r.env.AfterDaemon(every, tick)
	r.healthLogs = append(r.healthLogs, l)
	return l
}

// Stop halts the log; the pending tick is cancelled so the event queue
// can drain. Nil-safe and idempotent.
func (l *HealthLog) Stop() {
	if l == nil || l.stopped {
		return
	}
	l.stopped = true
	if l.timer != nil {
		l.timer.Stop()
	}
}

// HealthLogs returns the registered health timelines (nil on nil
// registry).
func (r *Registry) HealthLogs() []*HealthLog {
	if r == nil {
		return nil
	}
	return r.healthLogs
}

// HealthTimelineJSON renders every health log as one deterministic JSON
// document: {"schema":..., "nodes":[{"node":..,"every_ns":..,"entries":[...]}]}.
func HealthTimelineJSON(logs []*HealthLog) []byte {
	var b strings.Builder
	b.WriteString(`{"schema":"multiedge-health/v1","nodes":[`)
	for i, l := range logs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n{\"node\":%d,\"every_ns\":%d,\"entries\":[", l.Node, int64(l.Every))
		for j, e := range l.Entries {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
			e.appendJSON(&b)
		}
		b.WriteString("]}")
	}
	b.WriteString("\n]}\n")
	return []byte(b.String())
}
