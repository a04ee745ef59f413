package core

// Health snapshots: point-in-time views of an endpoint and its
// connections for live introspection (obs.EndpointHealth JSON, the
// periodic health sampler, and medbench health timelines). Taking a
// snapshot is pure observation — it reads live protocol state and
// never touches timers, RNG, or the wire — so sampling cannot perturb
// a deterministic run.

import "multiedge/internal/obs"

// Health returns the connection's point-in-time health.
func (c *Conn) Health() obs.ConnHealth {
	h := obs.ConnHealth{
		Conn:        c.localID,
		Peer:        int(c.remoteNode),
		State:       c.healthState(),
		Incarnation: c.incarnation,
		Reconnects:  c.Reconnects(),
		SRTTUs:      float64(c.rtt.srtt) / 1000,
		RTTVarUs:    float64(c.rtt.rttvar) / 1000,
		RTOUs:       float64(c.currentRTO(&c.ep.cfg)) / 1000,
		Inflight:    c.inflight(),
		Window:      c.ep.cfg.Window,
		Cwnd:        int(c.cwnd),
		SQDepth:     c.SQLen(),
		CQDepth:     c.CQLen(),
		JournalOps:  len(c.Journal()),
		BytesAcked:  c.bytesAcked,
	}
	h.Rails = make([]obs.RailHealth, len(c.rails))
	for li := range c.rails {
		e := &c.rails[li].rtt
		h.Rails[li] = obs.RailHealth{
			SRTTUs:   float64(e.srtt) / 1000,
			RTTVarUs: float64(e.rttvar) / 1000,
			RTOUs:    float64(e.rto(&c.ep.cfg)) / 1000,
		}
	}
	return h
}

// healthState names the connection's lifecycle state; an ended conn
// reads "failed" when its cause wraps ErrPeerDead.
func (c *Conn) healthState() string {
	if c.Failed() {
		return "failed"
	}
	return c.state.String()
}

// Health returns the endpoint's point-in-time health, including every
// tabled connection in stable (dial/accept) order.
func (ep *Endpoint) Health() obs.EndpointHealth {
	ctrl, send := ep.qosSchedDepth()
	h := obs.EndpointHealth{
		At:          ep.env.Now(),
		Node:        ep.node,
		ActiveConns: len(ep.conns),
		SchedCtrlQ:  ctrl,
		SchedSendQ:  send,
	}
	for _, c := range ep.connOrder {
		h.Conns = append(h.Conns, c.Health())
	}
	return h
}
