package cluster

import (
	"strconv"

	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// ObsOptions configures the cluster-wide observability registry (see
// internal/obs). The zero value disables observability entirely: no
// registry is built and every instrumented hot path reduces to a nil
// check.
type ObsOptions struct {
	// Metrics builds the registry and auto-registers collectors for
	// every layer's counters plus NIC/switch queue-depth and CPU
	// utilization samplers.
	Metrics bool
	// Spans additionally records causal operation spans (implies a
	// registry even if Metrics is false).
	Spans bool
	// SampleEvery is the period of the queue-depth and CPU-utilization
	// samplers. 0 uses the default (250 µs); negative disables the
	// samplers while keeping gather-time collectors.
	SampleEvery sim.Time
	// Recorder attaches a per-node flight recorder (see obs.Recorder):
	// a fixed-size, allocation-free ring of typed protocol events,
	// recorded unconditionally and frozen into a post-mortem dump when
	// an invariant fires. Independent of Metrics/Spans — recording
	// needs no registry.
	Recorder bool
	// RecorderEvents is the per-node ring capacity (0 uses
	// obs.DefaultRecorderEvents).
	RecorderEvents int
	// HealthEvery, when positive, starts a per-node health sampler
	// (obs.HealthLog) with this period. Implies a registry.
	HealthEvery sim.Time
}

func (o ObsOptions) enabled() bool { return o.Metrics || o.Spans || o.HealthEvery > 0 }

// wireObs builds the registry and attaches every layer, called from New
// once nodes exist.
func (cl *Cluster) wireObs() {
	o := cl.Cfg.Obs
	if o.Recorder {
		for _, n := range cl.Nodes {
			rec := obs.NewRecorder(n.ID, o.RecorderEvents, obs.FlightKinds)
			n.EP.SetRecorder(rec)
			cl.Recorders = append(cl.Recorders, rec)
		}
	}
	if !o.enabled() {
		return
	}
	r := obs.New(cl.Env)
	if o.Spans {
		r.EnableSpans()
	}
	cl.Obs = r
	if o.HealthEvery > 0 {
		for _, n := range cl.Nodes {
			ep := n.EP
			r.SampleHealth(n.ID, o.HealthEvery, ep.Health)
		}
	}
	every := o.SampleEvery
	if every == 0 {
		every = 250 * sim.Microsecond
	}
	for _, n := range cl.Nodes {
		n.EP.SetObs(r)
		n.CPUs.RegisterObs(r, cl.Env, n.ID, every)
		for l, nic := range n.NICs {
			r.AddCollector(nic.Collector(n.ID, l))
			if every > 0 {
				nic := nic
				link := []obs.Label{obs.L("link", strconv.Itoa(l))}
				r.Sample("nic_tx_queue", n.ID, link, every, func() float64 {
					return float64(nic.TxQueueLen())
				})
				r.Sample("nic_rx_queue", n.ID, link, every, func() float64 {
					return float64(nic.RxQueueLen())
				})
				// The station port on the switch serving this NIC: its
				// queue depth is the congestion the node's receive
				// direction experiences.
				addr := frame.NewAddr(n.ID, l)
				for _, sw := range cl.Switches {
					if p := sw.OutPortFor(addr); p != nil {
						p := p
						r.Sample("switch_port_queue", n.ID, link, every, func() float64 {
							return float64(p.Queued())
						})
					}
				}
			}
		}
	}
	// Switch station ports and trunks: drop/queue counters at gather
	// time (per node/link for station ports, per index for trunks).
	for i := 0; i < cl.Cfg.Nodes; i++ {
		for l := 0; l < cl.Cfg.LinksPerNode; l++ {
			addr := frame.NewAddr(i, l)
			for _, sw := range cl.Switches {
				if p := sw.OutPortFor(addr); p != nil {
					r.AddCollector(p.Collector("switch_port",
						obs.NodeLabel(i), obs.L("link", strconv.Itoa(l))))
				}
			}
		}
	}
	for i, tp := range cl.Trunks {
		r.AddCollector(tp.Collector("trunk", obs.L("trunk", strconv.Itoa(i))))
	}
}
