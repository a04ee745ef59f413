package bench

import (
	"fmt"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// Incast stress: many synchronized senders converging on one receiver
// behind a single switch port — the classic fan-in collapse scenario
// ISSUE 10's congestion-control work exists for. The bench runs the
// same synchronized storm twice over identical seeds: once with the
// transport's congestion machinery off (the collapse baseline) and once
// with ECN + AIMD + admission backpressure on, then gates on the CC run
// sustaining most of the bottleneck's goodput while sharing it fairly.
//
// The parking-lot companion congests one of two rails with pinned
// background flows and measures a victim that stripes across both:
// round-robin striping queues half the victim's frames behind the
// congested rail, congestion-weighted striping shifts them off it.

const (
	// incastSlots is the per-sender closed-loop pipeline depth.
	incastSlots = 4
	// incastEcnThresh is the switch marking threshold (frames queued)
	// for the CC phases: a quarter of the default 160-frame drop point,
	// so marking throttles senders well before drop-tail engages.
	incastEcnThresh = 40
	// Gates for the CC-on incast phase (ISSUE 10 acceptance): sustain
	// at least this share of the bottleneck's payload capacity, with at
	// least this Jain fairness index across senders.
	incastMinUtil = 0.80
	incastMinJain = 0.90
	// parkingLotMinGain is the victim throughput ratio (adaptive / RR)
	// the parking-lot phase must clear: congestion-weighted striping
	// has to beat round-robin by a real margin, not noise.
	parkingLotMinGain = 1.10
)

// IncastOptions parameterizes one incast run.
type IncastOptions struct {
	Senders  int      // synchronized senders (one node each)
	Size     int      // bytes per operation
	Duration sim.Time // measurement window after the synchronized start
	CC       bool     // congestion control + ECN marking on
	Seed     int64

	// Obs composes the observability registry into the run; the flight
	// recorder is attached unless DisableRecorder.
	Obs             cluster.ObsOptions
	DisableRecorder bool
}

// IncastResult is one incast measurement plus its correctness gates.
type IncastResult struct {
	Outcome
	Senders int
	CC      bool
	Failed  int // operations that completed with an error

	Utilization float64 // goodput / bottleneck payload capacity
	Jain        float64 // Jain fairness index over per-sender op counts
	MinOps      int     // slowest sender's completed ops
	MaxOps      int     // fastest sender's completed ops

	PeerDeaths  uint64 // connections declared dead (must be 0 under CC)
	EcnMarks    uint64 // frames marked by switch queues
	CwndCuts    uint64 // multiplicative decreases taken
	SwitchDrops uint64 // drop-tail losses at the bottleneck
	Retrans     uint64 // data frames transmitted again
}

// payloadWireBytes returns the wire bytes one operation's payload
// occupies on the bottleneck link once fragmented into MTU-sized data
// frames (headers, CRC, and inter-frame gap included).
func payloadWireBytes(size int) int {
	total := 0
	for size > 0 {
		chunk := size
		if chunk > frame.MaxPayload {
			chunk = frame.MaxPayload
		}
		total += frame.WireLen(frame.EthHeaderLen + frame.HeaderLen + chunk)
		size -= chunk
	}
	return total
}

// jainIndex computes the Jain fairness index (sum x)^2 / (n * sum x^2)
// over per-sender op counts: 1.0 is perfectly fair, 1/n is one sender
// starving all others.
func jainIndex(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += float64(x)
		sq += float64(x) * float64(x)
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// RunIncast drives opts.Senders synchronized writers against node 0
// through one switch. Every sender runs a closed-loop pipeline of
// incastSlots remote writes for the measurement window, then drains and
// closes; per-sender completion counts feed the Jain fairness index and
// total payload over elapsed time feeds bottleneck utilization.
func RunIncast(opts IncastOptions) IncastResult {
	senders := max(opts.Senders, 1)
	size := opts.Size
	if size <= 0 {
		size = 8 << 10
	}
	dur := opts.Duration
	if dur <= 0 {
		dur = 80 * sim.Millisecond
	}

	cfg := cluster.OneLink1G(1 + senders)
	cfg.Seed = opts.Seed
	cfg.Core.SchedQueue = true
	cfg.Core.MemBytes = senders*incastSlots*size + (1 << 20)
	if opts.CC {
		// InitWindow 4: with 64 synchronized senders the default initial
		// window of 16 fires a 1024-frame opening burst into a 160-frame
		// switch queue — a self-inflicted drop storm before the first
		// ECN echo can land. 4 keeps the opening burst near the queue
		// capacity and lets marking take over from there.
		cfg.Core.CongestionControl = core.CCConfig{Enable: true, InitWindow: 4}
		cfg.EcnThreshold = incastEcnThresh
	}
	st := newStage(cfg, opts.Obs, opts.DisableRecorder, senders)
	cl := st.cl

	perSender := make([]int, senders)
	failedOps := 0
	verified := true
	for j := 0; j < senders; j++ {
		j := j
		ep := cl.Nodes[1+j].EP
		cl.Env.Go(fmt.Sprintf("incast%d", j), func(p *sim.Proc) {
			c := ep.Dial(p, 0, 0)
			sl := newSlots(ep, cl.Nodes[0].EP, incastSlots, size)
			local, _ := sl.span(0, incastSlots)
			fillPattern(local, byte(41+j))
			// Barrier: every sender opens fire at the same instant — the
			// synchronized burst IS the incast scenario.
			st.arrive(p)
			tEnd := st.now() + dur
			done, failed := st.pipeline(p, c, sl, incastSlots, func(int) bool { return st.now() < tEnd })
			perSender[j] = done
			failedOps += failed
			// Byte-verify the touched slots (identical refills make
			// partial rewrites invisible, so any mismatch is corruption).
			if !c.Failed() && !sl.same(done) {
				verified = false
			}
			st.finish()
			c.Close(p)
		})
	}
	st.run()

	ops := 0
	minOps, maxOps := -1, 0
	for _, n := range perSender {
		ops += n
		if minOps < 0 || n < minOps {
			minOps = n
		}
		maxOps = max(maxOps, n)
	}
	r := IncastResult{
		Outcome: st.outcome("incast", ops, size, verified && st.running == 0),
		Senders: senders,
		CC:      opts.CC,
		Failed:  failedOps,
		MinOps:  minOps,
		MaxOps:  maxOps,
		Jain:    jainIndex(perSender),
	}
	// The bottleneck is the receiver's single downlink; its payload
	// capacity is the line rate discounted by framing overhead.
	capMB := cfg.Link.BytesPerSec() * float64(size) / float64(payloadWireBytes(size)) / 1e6
	r.Utilization = r.GoodMB / capMB
	r.PeerDeaths = r.Net.Proto.PeerDeadEvents
	r.EcnMarks = r.Net.EcnMarks
	r.CwndCuts = r.Net.Proto.CcCwndCuts
	r.SwitchDrops = r.Net.SwitchDrops
	r.Retrans = r.Net.Proto.Retransmissions
	return r
}

func (r IncastResult) String() string {
	mode := "cc-off"
	if r.CC {
		mode = "cc-on "
	}
	return fmt.Sprintf("%s %3d senders %6d ops (%d..%d)  %8.3fms  %6.1f MB/s  util %4.2f  jain %4.2f  p50 %7.1fus  p99 %9.1fus  ecn %5d  cuts %4d  drops %5d  retx %4d  deaths %d  %s",
		mode, r.Senders, r.Ops, r.MinOps, r.MaxOps, r.Elapsed.Micros()/1e3, r.GoodMB,
		r.Utilization, r.Jain, r.P50Us, r.P99Us, r.EcnMarks, r.CwndCuts, r.SwitchDrops,
		r.Retrans, r.PeerDeaths, r.gateColumns())
}

// BenchRow converts one incast phase into a bench-document row.
func (r IncastResult) BenchRow() BenchRow {
	mode := "ccoff"
	if r.CC {
		mode = "ccon"
	}
	return r.benchRow(fmt.Sprintf("incast-%d-%s", r.Senders, mode), map[string]float64{
		"utilization":  r.Utilization,
		"jain":         r.Jain,
		"failed_ops":   float64(r.Failed),
		"peer_deaths":  float64(r.PeerDeaths),
		"ecn_marks":    float64(r.EcnMarks),
		"cwnd_cuts":    float64(r.CwndCuts),
		"switch_drops": float64(r.SwitchDrops),
		"retrans":      float64(r.Retrans),
	})
}

// ParkingLotOptions parameterizes one parking-lot run.
type ParkingLotOptions struct {
	Ops      int  // victim operations (fixed count, closed loop)
	Size     int  // victim bytes per operation
	BgSize   int  // background bytes per operation
	Adaptive bool // congestion-weighted striping (CC + ECN) on
	Seed     int64
}

// ParkingLotResult measures the victim flow on a two-rail node where
// background flows congest rail 0 only.
type ParkingLotResult struct {
	Outcome
	Adaptive bool

	// Victim data split across the two rails during the measured
	// window: round-robin sits at ~0.5, congestion-weighted striping
	// shifts Rail1Share up as rail 0's RTT inflates.
	Rail0Frames uint64
	Rail1Frames uint64
	Rail1Share  float64

	BgOps int // background ops completed while the victim ran
}

// RunParkingLot congests rail 0 of a two-rail fabric with two pinned
// background flows (Dial with links=1 keeps them on NIC 0) and measures
// a victim on another node striping opts.Ops writes across both rails
// to the same receiver. Adaptive runs enable the congestion controller,
// whose per-rail RTT estimates steer the victim's frames off the
// congested rail; non-adaptive runs are the round-robin baseline.
//
// The background load is deliberately sized below the switch queue
// capacity: rail 0 must be slow but LOSSLESS. Loss on a rail feeds the
// transport's repair-count failure detector (DeadLinkThreshold), which
// routes around the rail in the baseline too — masking the striping
// comparison. A standing queue that delays every frame without dropping
// any is exactly the congestion signature only the end-to-end per-rail
// RTT estimate can see.
func RunParkingLot(opts ParkingLotOptions) ParkingLotResult {
	ops := opts.Ops
	if ops <= 0 {
		ops = 300
	}
	size := opts.Size
	if size <= 0 {
		size = 8 << 10
	}
	bgSize := opts.BgSize
	if bgSize <= 0 {
		bgSize = 16 << 10
	}

	cfg := cluster.TwoLinkUnordered1G(4)
	cfg.Seed = opts.Seed
	cfg.Core.SchedQueue = true
	if opts.Adaptive {
		// No ECN here: the scenario is drop- and mark-free by design, so
		// the only congestion signal is the per-rail RTT split — the
		// mechanism under test. InitWindow above the working set keeps
		// AIMD out of the way.
		cfg.Core.CongestionControl = core.CCConfig{Enable: true, InitWindow: 64}
	}
	st := newStage(cfg, cluster.ObsOptions{}, false, 1)
	cl := st.cl
	victim, receiver := cl.Nodes[0], cl.Nodes[1].EP

	// Two background conns at depth 2 hold ~48 frames standing in rail
	// 0's switch queue — well under the 160-frame drop point.
	const bgSlots = 2
	var bgSig sim.Signal
	bgUp, bgOps := 0, 0
	victimDone, verified := false, false
	var rail0, rail1 uint64

	// Background flows: nodes 2 and 3 hammer the receiver over rail 0
	// only, keeping its switch port congested until the victim is done.
	for _, node := range []int{2, 3} {
		node := node
		ep := cl.Nodes[node].EP
		cl.Env.Go(fmt.Sprintf("bg%d", node), func(p *sim.Proc) {
			c := ep.Dial(p, 1, 1) // links=1: pinned to rail 0
			sl := newSlots(ep, receiver, bgSlots, bgSize)
			local, _ := sl.span(0, bgSlots)
			fillPattern(local, byte(101+node))
			var q []*core.Handle
			k := 0
			issue := func() {
				if h, err := c.Do(p, sl.op(k, frame.OpWrite, frame.Solicit)); err == nil {
					q = append(q, h)
					k++
				}
			}
			// Prime the pipeline before releasing the victim so rail 0
			// is already congested when measurement starts.
			for i := 0; i < bgSlots; i++ {
				issue()
			}
			if bgUp++; bgUp == 2 {
				bgSig.Fire(cl.Env)
			}
			for len(q) > 0 {
				h := q[0]
				q = q[1:]
				h.Wait(p)
				if h.Err() == nil {
					bgOps++
				}
				if !victimDone {
					issue()
				}
			}
			c.Close(p)
		})
	}

	// Victim: node 0 stripes across both rails to the same receiver.
	cl.Env.Go("victim", func(p *sim.Proc) {
		c := victim.EP.Dial(p, 1, 0) // links=0: stripe over both rails
		sl := newSlots(victim.EP, receiver, incastSlots, size)
		local, _ := sl.span(0, incastSlots)
		fillPattern(local, 77)
		p.Wait(&bgSig)
		// Let the background queue build at rail 0's switch port.
		p.Sleep(2 * sim.Millisecond)
		tx0, tx1 := victim.NICs[0].TxFrames, victim.NICs[1].TxFrames
		st.arrive(p)
		done, failed := st.pipeline(p, c, sl, incastSlots, func(k int) bool { return k < ops })
		st.finish()
		rail0, rail1 = victim.NICs[0].TxFrames-tx0, victim.NICs[1].TxFrames-tx1
		victimDone = true
		verified = done == ops && failed == 0 && sl.same(ops)
		c.Close(p)
	})
	st.run()

	r := ParkingLotResult{
		Outcome:     st.outcome("parking-lot", ops, size, verified),
		Adaptive:    opts.Adaptive,
		BgOps:       bgOps,
		Rail0Frames: rail0,
		Rail1Frames: rail1,
	}
	if rail0+rail1 > 0 {
		r.Rail1Share = float64(rail1) / float64(rail0+rail1)
	}
	return r
}

func (r ParkingLotResult) String() string {
	mode := "round-robin"
	if r.Adaptive {
		mode = "adaptive   "
	}
	return fmt.Sprintf("%s %5d ops  %8.3fms  %8.0f ops/s  %6.1f MB/s  p50 %7.1fus  p99 %9.1fus  rail1 %4.2f  bg %5d ops  %s",
		mode, r.Ops, r.Elapsed.Micros()/1e3, r.OpsPerSec, r.GoodMB, r.P50Us, r.P99Us,
		r.Rail1Share, r.BgOps, r.gateColumns())
}

// BenchRow converts one parking-lot phase into a bench-document row.
func (r ParkingLotResult) BenchRow() BenchRow {
	mode := "rr"
	if r.Adaptive {
		mode = "adaptive"
	}
	return r.benchRow("parkinglot-"+mode, map[string]float64{
		"rail1_share": r.Rail1Share,
		"bg_ops":      float64(r.BgOps),
	})
}

// RenderIncast runs the incast collapse A/B (CC off, then on, identical
// seeds) and the parking-lot striping A/B (round-robin, then adaptive),
// printing one row per phase plus the cross-phase gates. obsOpts
// composes the registry into the CC-on run.
func RenderIncast(senders, size int, dur sim.Time, obsOpts cluster.ObsOptions) Report {
	var rep report
	rep.printf("Incast collapse: %d synchronized senders -> 1 receiver, 1L-1G, %dB ops, %v window\n", senders, size, dur)
	rep.printf("(closed-loop pipeline depth %d per sender; CC phase: ECN mark at %d frames + AIMD window + admission backpressure)\n\n",
		incastSlots, incastEcnThresh)

	off := RunIncast(IncastOptions{Senders: senders, Size: size, Duration: dur, CC: false, Seed: 42})
	on := RunIncast(IncastOptions{Senders: senders, Size: size, Duration: dur, CC: true, Seed: 42, Obs: obsOpts})
	rep.add(off)
	rep.add(on)
	rep.printf("\n")

	// Gates: the CC run must hold the bottleneck (utilization, fairness,
	// no losses escalating to peer-death), and the baseline must
	// actually collapse — otherwise the scenario is not stressing
	// anything and the CC numbers are vacuous.
	rep.gate(on.Utilization >= incastMinUtil, "cc-on utilization %.2f below %.2f", on.Utilization, incastMinUtil)
	rep.gate(on.Jain >= incastMinJain, "cc-on Jain fairness %.2f below %.2f", on.Jain, incastMinJain)
	rep.gate(on.PeerDeaths == 0 && on.Failed == 0, "cc-on run had %d peer deaths, %d failed ops (want 0)", on.PeerDeaths, on.Failed)
	if rep.gate(off.SwitchDrops > 0 && off.P99Us > on.P99Us,
		"cc-off baseline did not collapse (drops %d, p99 %.1fus vs cc-on %.1fus) — scenario not stressing the bottleneck",
		off.SwitchDrops, off.P99Us, on.P99Us) {
		rep.printf("  collapse: cc-off p99 %.1fx cc-on, %d drops vs %d; cc-on goodput %.2fx cc-off\n",
			off.P99Us/on.P99Us, off.SwitchDrops, on.SwitchDrops, safeRatio(on.GoodMB, off.GoodMB))
	}

	rep.printf("\nParking lot: victim stripes 2 rails, background flows pin rail 0, 2L-1G unordered\n\n")
	rr := RunParkingLot(ParkingLotOptions{Ops: 300, Size: size, Adaptive: false, Seed: 42})
	ad := RunParkingLot(ParkingLotOptions{Ops: 300, Size: size, Adaptive: true, Seed: 42})
	rep.add(rr)
	rep.add(ad)
	rep.printf("\n")

	gain := safeRatio(ad.OpsPerSec, rr.OpsPerSec)
	if rep.gate(gain >= parkingLotMinGain, "adaptive striping %.2fx round-robin, below %.2fx", gain, parkingLotMinGain) {
		rep.printf("  adaptive striping %.2fx round-robin ops/s; victim rail-1 share %.2f -> %.2f\n",
			gain, rr.Rail1Share, ad.Rail1Share)
	}
	return rep.done()
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
