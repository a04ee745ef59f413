package core

import (
	"reflect"
	"strings"

	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// Stats counts protocol-level events at one endpoint. The paper's §4
// network-level analysis is computed from these counters plus the NIC
// and switch counters in internal/phys.
type Stats struct {
	// Operations.
	OpsStarted   uint64 `obs:"core_ops_started_total"`
	OpsCompleted uint64 `obs:"core_ops_completed_total"`
	ReadsServed  uint64 `obs:"core_reads_served_total"`
	Notifies     uint64 `obs:"core_notifies_total"`

	// Submission-queue path.
	Doorbells       uint64 `obs:"core_doorbells_total"`        // Ring calls that issued at least one descriptor
	SQOps           uint64 `obs:"core_sq_ops_total"`           // descriptors issued via doorbells
	CoalescedFrames uint64 `obs:"core_coalesced_frames_total"` // MultiData container frames created
	CoalescedSubOps uint64 `obs:"core_coalesced_subops_total"` // small writes packed into MultiData frames

	// Send path.
	DataFramesSent  uint64 `obs:"core_data_frames_sent_total"`
	DataBytesSent   uint64 `obs:"core_data_bytes_sent_total"`  // payload bytes in data frames, first transmissions
	CtrlAcksSent    uint64 `obs:"core_ctrl_acks_sent_total"`   // explicit acknowledgement frames
	CtrlNacksSent   uint64 `obs:"core_ctrl_nacks_sent_total"`  // explicit negative-acknowledgement frames
	Retransmissions uint64 `obs:"core_retransmissions_total"`  // data frames transmitted again
	LinkDeadEvents  uint64 `obs:"core_link_dead_events_total"` // links declared dead by the sender
	LinkRestores    uint64 `obs:"core_link_restores_total"`    // dead links re-admitted after a probed frame was acked
	AckReqSent      uint64 `obs:"core_ackreq_sent_total"`      // first transmissions carrying AckReq (the sender is blocked on their ACK)

	// Receive path.
	DataFramesRecv uint64 `obs:"core_data_frames_recv_total"`
	DataBytesRecv  uint64 `obs:"core_data_bytes_recv_total"`
	CtrlRecv       uint64 `obs:"core_ctrl_recv_total"`
	Duplicates     uint64 `obs:"core_duplicates_total"`  // frames already received (ARQ dedupe)
	GbnDropped     uint64 `obs:"core_gbn_dropped_total"` // out-of-order frames dropped by the go-back-N baseline
	AckReqRecv     uint64 `obs:"core_ackreq_recv_total"` // accepted data frames carrying AckReq

	// Reordering.
	Arrivals    uint64 `obs:"core_arrivals_total"`     // data-frame arrivals considered for ordering stats
	OOOArrivals uint64 `obs:"core_ooo_arrivals_total"` // arrivals with a higher sequence number already seen
	HeldFrames  uint64 `obs:"core_held_frames_total"`  // frames buffered awaiting order/fences
	HoldMax     int    `obs:"core_hold_max,peak"`      // peak held-frame count

	// Failure handling.
	RttSamples         uint64 `obs:"core_rtt_samples_total"`          // ack-derived round-trip samples fed to the estimator
	RtoExpiries        uint64 `obs:"core_rto_expiries_total"`         // retransmission-timeout firings
	RtoBackoffMax      int    `obs:"core_rto_backoff_max,peak"`       // peak consecutive-expiry depth (backoff exponent)
	PeerDeadEvents     uint64 `obs:"core_peer_dead_events_total"`     // connections transitioned to Failed
	ResetsSent         uint64 `obs:"core_resets_sent_total"`          // Reset ctrl frames emitted on peer death
	ResetsRecv         uint64 `obs:"core_resets_recv_total"`          // Reset ctrl frames received (peer abandoned the conn)
	HeartbeatsSent     uint64 `obs:"core_heartbeats_sent_total"`      // idle-liveness ctrl frames sent
	HeartbeatsRecv     uint64 `obs:"core_heartbeats_recv_total"`      // idle-liveness ctrl frames received
	OpsFailed          uint64 `obs:"core_ops_failed_total"`           // operations completed with an error (peer death, deadline)
	OpDeadlinesExpired uint64 `obs:"core_op_deadlines_expired_total"` // operations whose Op.Deadline released the waiter
	DupFramesDropped   uint64 `obs:"core_dup_frames_dropped_total"`   // duplicate payload-bearing frames dropped before apply
	NackGapsDropped    uint64 `obs:"core_nack_gaps_dropped_total"`    // gaps left untracked because the missing-list cap was hit

	// Recovery (Config.Reconnect).
	StaleEpochDrops  uint64 `obs:"core_stale_epoch_drops_total"` // frames and redials dropped for a dead incarnation
	Reconnects       uint64 `obs:"core_reconnects_total"`        // supervised reconnects that re-established the conn
	ReconnectsFailed uint64 `obs:"core_reconnects_failed_total"` // conns that exhausted MaxReconnects and died for real
	ReplayedOps      uint64 `obs:"core_replayed_ops_total"`      // journaled ops re-issued after a reconnect
	ReplayedBytes    uint64 `obs:"core_replayed_bytes_total"`    // payload bytes re-issued by replay
	Abandons         uint64 `obs:"core_abandons_total"`          // conns terminally failed by Conn.Abandon (svc failover)

	// Multi-tenant QoS (Config.QoS). Per-class breakdowns are published
	// by the endpoint's qos collector; these flat totals feed the
	// cluster-wide aggregation and diff reports.
	QosOpsAdmitted    uint64 `obs:"core_qos_ops_admitted_total"`    // operations admitted under a class quota
	QosOpsThrottled   uint64 `obs:"core_qos_ops_throttled_total"`   // fail-fast submissions refused with ErrThrottled
	QosAdmissionWaits uint64 `obs:"core_qos_admission_waits_total"` // blocking submissions that had to wait for room
	QosRateDeferrals  uint64 `obs:"core_qos_rate_deferrals_total"`  // scheduler visits deferred by an empty token bucket
	QosSchedFrames    uint64 `obs:"core_qos_sched_frames_total"`    // data frames dispatched by the DWFQ scheduler

	// Congestion control (Config.CongestionControl). The ECN counters
	// tick whenever marks flow (a switch threshold is armed), even with
	// the window reaction off — echoes are wire facts either way.
	EcnMarksSeen     uint64 `obs:"cc_ecn_marks_seen_total"`  // congestion-marked frames taken off the wire
	EcnEchoesSent    uint64 `obs:"cc_ecn_echoes_sent_total"` // ack-bearing frames that carried the echo flag
	EcnEchoesRecv    uint64 `obs:"cc_ecn_echoes_recv_total"` // echoes received back as congestion signals
	CcCwndCuts       uint64 `obs:"cc_cwnd_cuts_total"`       // multiplicative decreases (ECN echo or RTO)
	CcRetxDeferred   uint64 `obs:"cc_retx_deferred_total"`   // retransmission rounds deferred by the repair budget
	CcOpsThrottled   uint64 `obs:"cc_ops_throttled_total"`   // fail-fast submissions refused by window backpressure
	CcAdmissionWaits uint64 `obs:"cc_admission_waits_total"` // blocking submissions that waited for window room
	CcRailProbes     uint64 `obs:"cc_rail_probes_total"`     // per-rail RTT probes sent (multi-rail conns)

	// CPU time charged on the application CPU on behalf of the
	// protocol (operation initiation: syscall, descriptor, copy).
	AppProtoTime sim.Time `obs:"core_app_proto_time_ns"`
}

// ExtraFrames returns explicit-ACK + NACK + retransmitted frames: the
// paper's "extra traffic" beyond first-transmission data frames.
func (s *Stats) ExtraFrames() uint64 {
	return s.CtrlAcksSent + s.CtrlNacksSent + s.Retransmissions
}

// ExtraTrafficFraction returns extra frames as a fraction of all frames
// sent (the paper reports at most 5.5% in micro-benchmarks and 15% in
// applications).
func (s *Stats) ExtraTrafficFraction() float64 {
	total := s.DataFramesSent + s.ExtraFrames()
	if total == 0 {
		return 0
	}
	return float64(s.ExtraFrames()) / float64(total)
}

// OOOFraction returns the fraction of data-frame arrivals that were out
// of order (≈0 on single links, 45-50% under two-link round-robin in the
// paper).
func (s *Stats) OOOFraction() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.OOOArrivals) / float64(s.Arrivals)
}

// statsField is one Stats field as its obs tag declares it: the series
// the collector publishes it under, and whether it is a high-water mark
// (merged by max, left alone by Sub, exported as a gauge) rather than a
// counter.
type statsField struct {
	name string
	peak bool
}

// statsFields is the one declaration Add, Sub and Collector derive from,
// indexed like the struct. An untagged field is a bug caught at init, not
// a counter silently missing from an aggregate.
var statsFields = func() []statsField {
	t := reflect.TypeOf(Stats{})
	fs := make([]statsField, t.NumField())
	for i := range fs {
		name, opt, _ := strings.Cut(t.Field(i).Tag.Get("obs"), ",")
		if name == "" {
			panic("core: Stats." + t.Field(i).Name + " has no obs tag")
		}
		fs[i] = statsField{name: name, peak: opt == "peak"}
	}
	return fs
}()

// statValue reads a Stats field (uint64, int or sim.Time) as an int64;
// counter differences wrap the same way in either representation.
func statValue(v reflect.Value) int64 {
	if v.CanUint() {
		return int64(v.Uint())
	}
	return v.Int()
}

func setStatValue(v reflect.Value, x int64) {
	if v.CanUint() {
		v.SetUint(uint64(x))
	} else {
		v.SetInt(x)
	}
}

// fold adds (sign +1) or subtracts (sign -1) o's counters into s. Peaks
// merge by max when adding and stay as they are when subtracting.
func (s *Stats) fold(o *Stats, sign int64) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for i, f := range statsFields {
		a, b := statValue(sv.Field(i)), statValue(ov.Field(i))
		switch {
		case !f.peak:
			setStatValue(sv.Field(i), a+sign*b)
		case sign > 0 && b > a:
			setStatValue(sv.Field(i), b)
		}
	}
}

// Add accumulates o into s (for cluster-wide aggregation).
func (s *Stats) Add(o *Stats) { s.fold(o, +1) }

// Sub returns s minus prev, for measuring a window between two
// snapshots. Peaks are lifetime values and are kept.
func (s Stats) Sub(prev Stats) Stats {
	s.fold(&prev, -1)
	return s
}

// Collector publishes the endpoint's counters into an obs.Registry at
// gather time. Polling the live struct (rather than double-counting on
// the hot path) keeps instrumentation free when observability is off
// and guarantees the registry always matches these legacy counters.
func (s *Stats) Collector(node int) obs.Collector {
	labels := []obs.Label{obs.NodeLabel(node)}
	return func(emit func(obs.Sample)) {
		sv := reflect.ValueOf(s).Elem()
		for i, f := range statsFields {
			typ := obs.TypeCounter
			if f.peak {
				typ = obs.TypeGauge
			}
			emit(obs.Sample{Name: f.name, Labels: labels, Value: float64(statValue(sv.Field(i))), Type: typ})
		}
	}
}
