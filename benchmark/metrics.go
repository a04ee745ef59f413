package main

import (
	"cmp"
	"slices"

	"multiedge/internal/frame"
)

// def names one metric and its unit. BENCHMARK.json lists the same names
// and units (the test checks both directions); README.md defines them.
type def struct{ name, unit string }

var endToEndDefs = []def{
	{"ops_per_vs", "1/s"},
	{"goodput_MBps", "MB/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"host_cpu_us_per_op", "us"},
	{"wall_ns_per_op", "ns"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"bytes_per_conn", "B"},
	{"setup_s", "s"},
}

var perLayerDefs = []def{
	// From the counters of the untraced reps.
	{"sim.events_per_op", "count"},
	{"sim.wall_ns_per_event", "ns"},
	{"sim.pending_events_end", "count"},
	{"frame.wire_frames_per_op", "count"},
	{"frame.wire_overhead_pct", "%"},
	{"phys.link_util_pct", "%"},
	{"phys.switch_drops", "count"},
	{"phys.link_err_drops", "count"},
	{"phys.ecn_marks", "count"},
	{"phys.intr_per_kframe", "count"},
	{"hostmodel.app_cpu_pct", "%"},
	{"hostmodel.proto_cpu_pct", "%"},
	{"hostmodel.proto_ns_per_frame", "ns"},
	{"core.issue_us_p50", "us"},
	{"core.lat_write_p50_us", "us"},
	{"core.lat_read_p50_us", "us"},
	{"core.lat_sq_p50_us", "us"},
	{"core.lat_notify_p50_us", "us"},
	{"core.extra_frame_pct", "%"},
	{"core.acks_per_kframe", "count"},
	{"core.retrans_per_kframe", "count"},
	{"core.spurious_retrans_pct", "%"},
	{"core.nacks_sent", "count"},
	{"core.rto_expiries", "count"},
	{"core.ooo_pct", "%"},
	{"core.hold_max", "count"},
	{"core.coalesced_subops_pct", "%"},
	{"core.ops_per_doorbell", "count"},
	{"core.cc_cwnd_cuts", "count"},
	{"core.admission_waits", "count"},
	{"core.dial_us_p50", "us"},
	{"core.ops_failed", "count"},
	{"core.active_conns_end", "count"},
	{"cluster.build_ms", "ms"},
	{"cluster.heap_after_build_MB", "MB"},
	{"runtime.gc_cycles_per_Mop", "count"},
	// From the traced rep: spans and the CPU profile.
	{"bench.issue_wall_share_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"sim.cpu_share_pct", "%"},
	{"frame.cpu_share_pct", "%"},
	{"phys.cpu_share_pct", "%"},
	{"hostmodel.cpu_share_pct", "%"},
	{"core.cpu_share_pct", "%"},
	{"cluster.cpu_share_pct", "%"},
	{"obs.cpu_share_pct", "%"},
	{"bench.cpu_share_pct", "%"},
	{"runtime.gc_share_pct", "%"},
	{"runtime.other_share_pct", "%"},
	// From the layer drivers.
	{"sim.dispatch_ns", "ns"},
	{"sim.dispatch_deep_ns", "ns"},
	{"sim.timer_stop_rearm_ns", "ns"},
	{"sim.wheel_arm_fire_ns", "ns"},
	{"sim.proc_switch_ns", "ns"},
	{"sim.proc_switch_mp_ns", "ns"},
	{"frame.encode_64B_ns", "ns"},
	{"frame.encode_1500B_ns", "ns"},
	{"frame.decode_64B_ns", "ns"},
	{"frame.decode_1500B_ns", "ns"},
	{"frame.multi_encode_ns", "ns"},
	{"phys.hop_64B_ns", "ns"},
	{"phys.hop_1500B_ns", "ns"},
	{"phys.hop_events", "count"},
	{"phys.hop_64B_virt_us", "us"},
	{"core.write64_ns", "ns"},
	{"core.read64_ns", "ns"},
	{"core.sq64_ns", "ns"},
	{"core.bulk_frame_ns", "ns"},
	{"core.write64_virt_us", "us"},
	{"core.read64_virt_us", "us"},
	{"svc.call64_ns", "ns"},
	{"svc.call64_virt_us", "us"},
	{"dsm.fetch_ns", "ns"},
	{"dsm.fetch_virt_us", "us"},
	{"msg.pingpong8_ns", "ns"},
	{"msg.pingpong8_virt_us", "us"},
	{"obs.recorder_on_pct", "%"},
}

// value is one reported metric: the figure, and the figure of each rep it
// was derived from where that makes sense.
type value struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Reps  []float64 `json:"reps,omitempty"`
}

// quietShare is the share of a run's events, taken from its fastest slices,
// that is trusted to have run undisturbed.
const quietShare = 0.10

// quietNsPerEvent is the wall time per event of the slice at quantile
// quietShare when slices are ordered from fastest to slowest and weighted by
// their events. On a shared box a run is slowed down in stretches of tens of
// milliseconds, for minutes on end in the worst case; noise only ever adds,
// and a slice lasts a fraction of a millisecond, so the fastest slices show
// the speed of the undisturbed box when whole reps no longer do. What the
// figure leaves out is work done in few slices only: a garbage-collection
// cycle, a rare heavy operation. Allocation metrics cover the first.
func quietNsPerEvent(reps ...*repResult) float64 { return sliceQuantiles(reps, quietShare)[0] }

// sliceQuantiles returns the wall time per event of the slices at the given
// quantiles, which must ascend.
func sliceQuantiles(reps []*repResult, qs ...float64) []float64 {
	type rate struct {
		nsPerEvent float64
		events     int64
	}
	var rates []rate
	var total int64
	for _, r := range reps {
		for _, s := range r.slices {
			if s.events > 0 {
				rates = append(rates, rate{float64(s.wallNs) / float64(s.events), s.events})
				total += s.events
			}
		}
	}
	slices.SortFunc(rates, func(a, b rate) int { return cmp.Compare(a.nsPerEvent, b.nsPerEvent) })
	out := make([]float64, len(qs))
	var seen int64
	i := 0
	for _, r := range rates {
		seen += r.events
		for ; i < len(qs) && float64(seen) >= qs[i]*float64(total); i++ {
			out[i] = r.nsPerEvent
		}
	}
	return out
}

// latencies returns every latency sample of the rep, of one kind or (kind
// < 0) of all.
func (r *repResult) latencies(kind int) (parts [][]int32) {
	for k := range r.lat {
		if kind < 0 || kind == k {
			parts = append(parts, r.lat[k]...)
		}
	}
	return parts
}

// endToEnd derives the end-to-end metrics of a workload from its untraced
// reps and its set-up-only reps. Modelled metrics pool every rep; wall time
// per operation is events per operation times the wall time per event of the
// run's fastest slices; allocation figures are the median rep and set-up
// time the median of every set-up of the run.
func endToEnd(reps []*repResult, setups []*repResult) (out map[string]value, samples int) {
	var ops, bytes, virt, cpu, events float64
	var pooled [][]int32
	per := map[string][]float64{}
	for _, r := range reps {
		o := float64(r.Ops)
		ops += o
		bytes += float64(r.Bytes)
		virt += float64(r.VirtNs)
		cpu += float64(r.AppBusyNs + r.ProtoBusyNs)
		events += float64(r.Executed)
		lat := r.latencies(-1)
		pooled = append(pooled, lat...)
		s := sortedCopy(lat...)
		for name, v := range map[string]float64{
			"ops_per_vs":         ratio(o, float64(r.VirtNs)/1e9),
			"goodput_MBps":       ratio(float64(r.Bytes)/1e6, float64(r.VirtNs)/1e9),
			"lat_p50_us":         percentile(s, 50) / 1e3,
			"lat_p99_us":         percentile(s, 99) / 1e3,
			"host_cpu_us_per_op": ratio(float64(r.AppBusyNs+r.ProtoBusyNs)/1e3, o),
			"wall_ns_per_op":     ratio(float64(r.Executed), o) * quietNsPerEvent(r),
			"allocs_per_op":      ratio(float64(r.Mallocs), o),
			"bytes_per_op":       ratio(float64(r.AllocBytes), o),
			"bytes_per_conn":     ratio(float64(r.HeapConns), float64(r.Conns)),
			"setup_s":            float64(r.BuildNs+r.FillNs+r.DialNs) / 1e9,
		} {
			per[name] = append(per[name], v)
		}
	}
	for _, r := range setups {
		per["setup_s"] = append(per["setup_s"], float64(r.BuildNs+r.FillNs+r.DialNs)/1e9)
	}
	all := sortedCopy(pooled...)
	out = map[string]value{}
	for _, d := range endToEndDefs {
		_, v, _ := minMedMax(per[d.name])
		switch d.name {
		case "ops_per_vs":
			v = ratio(ops, virt/1e9)
		case "goodput_MBps":
			v = ratio(bytes/1e6, virt/1e9)
		case "lat_p50_us":
			v = percentile(all, 50) / 1e3
		case "lat_p99_us":
			v = percentile(all, 99) / 1e3
		case "host_cpu_us_per_op":
			v = ratio(cpu/1e3, ops)
		case "wall_ns_per_op":
			v = ratio(events, ops) * quietNsPerEvent(reps...)
		}
		out[d.name] = value{Value: v, Unit: d.unit, Reps: per[d.name]}
	}
	return out, len(all)
}

// counterLayers derives the per-layer metrics that come from public
// counters, summed over the untraced reps.
func counterLayers(reps []*repResult) map[string]float64 {
	var ops, virt, events, appMax, protoMax, proto, util float64
	var build, heap, gc float64
	var pending, active int
	var holdMax int
	var issue, dial [][]int32
	var n struct {
		wireFrames, wireBytes, payload, intr, drops, errDrops, ecn                        float64
		data, acks, nacks, retrans, dups, rto, arrivals, ooo, sqOps, coalesced, doorbells float64
		cuts, waits, failed, extra                                                        float64
	}
	for _, r := range reps {
		ops += float64(r.Ops)
		virt += float64(r.VirtNs)
		events += float64(r.Executed)
		appMax += float64(r.AppBusyMax)
		protoMax += float64(r.ProtoBusyMax)
		proto += float64(r.ProtoBusyNs)
		util += r.LinkUtilPct * float64(r.VirtNs)
		build += float64(r.BuildNs)
		heap += float64(r.HeapBuild)
		gc += float64(r.NumGC)
		pending += r.PendingEnd
		active += r.ActiveEnd
		issue = append(issue, r.issue...)
		dial = append(dial, r.dialNs)
		s := &r.net.Proto
		holdMax = max(holdMax, s.HoldMax)
		n.wireFrames += float64(r.net.WireFrames)
		n.wireBytes += float64(r.net.WireBytes) + float64(r.net.WireFrames)*float64(frame.WireLen(0))
		n.payload += float64(r.Bytes)
		n.intr += float64(r.net.Interrupts)
		n.drops += float64(r.net.SwitchDrops)
		n.errDrops += float64(r.net.LinkErrDrops)
		n.ecn += float64(r.net.EcnMarks)
		n.data += float64(s.DataFramesSent)
		n.acks += float64(s.CtrlAcksSent)
		n.nacks += float64(s.CtrlNacksSent)
		n.retrans += float64(s.Retransmissions)
		n.dups += float64(s.Duplicates)
		n.rto += float64(s.RtoExpiries)
		n.arrivals += float64(s.Arrivals)
		n.ooo += float64(s.OOOArrivals)
		n.sqOps += float64(s.SQOps)
		n.coalesced += float64(s.CoalescedSubOps)
		n.doorbells += float64(s.Doorbells)
		n.cuts += float64(s.CcCwndCuts)
		n.waits += float64(s.CcAdmissionWaits + s.QosAdmissionWaits)
		n.failed += float64(s.OpsFailed)
		n.extra += float64(s.ExtraFrames())
	}
	reps64 := float64(len(reps))
	m := map[string]float64{
		"sim.events_per_op":      ratio(events, ops),
		"sim.wall_ns_per_event":  quietNsPerEvent(reps...),
		"sim.pending_events_end": float64(pending),

		"frame.wire_frames_per_op": ratio(n.wireFrames, ops),
		"frame.wire_overhead_pct":  100 * ratio(n.wireBytes-n.payload, n.wireBytes),

		"phys.link_util_pct":   ratio(util, virt),
		"phys.switch_drops":    n.drops,
		"phys.link_err_drops":  n.errDrops,
		"phys.ecn_marks":       n.ecn,
		"phys.intr_per_kframe": 1000 * ratio(n.intr, n.wireFrames),

		"hostmodel.app_cpu_pct":        100 * ratio(appMax, virt),
		"hostmodel.proto_cpu_pct":      100 * ratio(protoMax, virt),
		"hostmodel.proto_ns_per_frame": ratio(proto, n.wireFrames),

		"core.issue_us_p50":           percentile(sortedCopy(issue...), 50) / 1e3,
		"core.extra_frame_pct":        100 * ratio(n.extra, n.data+n.extra),
		"core.acks_per_kframe":        1000 * ratio(n.acks, n.data),
		"core.retrans_per_kframe":     1000 * ratio(n.retrans, n.data),
		"core.spurious_retrans_pct":   100 * ratio(n.dups, n.retrans),
		"core.nacks_sent":             n.nacks,
		"core.rto_expiries":           n.rto,
		"core.ooo_pct":                100 * ratio(n.ooo, n.arrivals),
		"core.hold_max":               float64(holdMax),
		"core.coalesced_subops_pct":   100 * ratio(n.coalesced, n.sqOps),
		"core.ops_per_doorbell":       ratio(n.sqOps, n.doorbells),
		"core.cc_cwnd_cuts":           n.cuts,
		"core.admission_waits":        n.waits,
		"core.dial_us_p50":            percentile(sortedCopy(dial...), 50) / 1e3,
		"core.ops_failed":             n.failed,
		"core.active_conns_end":       float64(active),
		"cluster.build_ms":            ratio(build/1e6, reps64),
		"cluster.heap_after_build_MB": ratio(heap/1e6, reps64),
		"runtime.gc_cycles_per_Mop":   1e6 * ratio(gc, ops),
	}
	for k, name := range kindNames {
		var parts [][]int32
		for _, r := range reps {
			parts = append(parts, r.latencies(k)...)
		}
		m["core.lat_"+name+"_p50_us"] = percentile(sortedCopy(parts...), 50) / 1e3
	}
	return m
}

// modelled lists what must be identical between the traced rep and the
// untraced rep on the same seed: tracing may not perturb the model.
func (r *repResult) modelled() []int64 {
	s := sortedCopy(r.latencies(-1)...)
	out := []int64{int64(r.Ops), r.Bytes, r.VirtNs, r.AppBusyNs, r.ProtoBusyNs, int64(r.Executed),
		int64(1e3 * percentile(s, 50)), int64(1e3 * percentile(s, 99)), int64(len(s))}
	return out
}

func sameModel(a, b *repResult) bool { return slices.Equal(a.modelled(), b.modelled()) }
