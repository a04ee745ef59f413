package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
	"multiedge/internal/trace"
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
	Senders int
	CC      bool
	Ops     int // operations completed across all senders
	Failed  int // operations that completed with an error
	Elapsed sim.Time

	OpsPerSec   float64
	GoodMB      float64 // payload goodput, MB/s
	Utilization float64 // goodput / bottleneck payload capacity
	Jain        float64 // Jain fairness index over per-sender op counts
	MinOps      int     // slowest sender's completed ops
	MaxOps      int     // fastest sender's completed ops

	P50Us float64 // closed-loop op latency percentiles
	P95Us float64
	P99Us float64

	PeerDeaths  uint64 // connections declared dead (must be 0 under CC)
	EcnMarks    uint64 // frames marked by switch queues
	CwndCuts    uint64 // multiplicative decreases taken
	SwitchDrops uint64 // drop-tail losses at the bottleneck
	Retrans     uint64 // data frames transmitted again

	// Gates.
	DataOK        bool
	PendingEvents int
	ActiveConns   int

	Net cluster.NetReport

	Obs       *obs.Registry
	Recorders []*obs.Recorder
	Dump      *obs.PostMortem
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
	senders := opts.Senders
	if senders < 1 {
		senders = 1
	}
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
	cfg.Obs = opts.Obs
	cfg.Obs.Recorder = !opts.DisableRecorder
	cl := cluster.New(cfg)
	server := cl.Nodes[0].EP

	rec := &trace.LatencyRecorder{}
	var startSig sim.Signal
	var start, end sim.Time
	startSig.OnFire(cl.Env, func() { start = cl.Env.Now() })
	perSender := make([]int, senders)
	dialed, finished, failedOps := 0, 0, 0
	verified := true

	for j := 0; j < senders; j++ {
		j := j
		ep := cl.Nodes[1+j].EP
		cl.Env.Go(fmt.Sprintf("incast%d", j), func(p *sim.Proc) {
			c := ep.Dial(p, 0, 0)
			remote := server.Alloc(incastSlots * size)
			local := ep.Alloc(incastSlots * size)
			faninFill(ep.Mem()[local:local+uint64(incastSlots*size)], byte(41+j))
			// Barrier: every sender opens fire at the same instant — the
			// synchronized burst IS the incast scenario.
			if dialed++; dialed == senders {
				startSig.Fire(cl.Env)
			}
			p.Wait(&startSig)
			tEnd := cl.Env.Now() + dur

			type pend struct {
				h  *core.Handle
				t0 sim.Time
			}
			var q []pend
			k, alive := 0, true
			for alive && cl.Env.Now() < tEnd {
				for alive && len(q) < incastSlots && cl.Env.Now() < tEnd {
					off := uint64(k%incastSlots) * uint64(size)
					t0 := cl.Env.Now()
					h, err := c.Do(p, core.Op{Remote: remote + off, Local: local + off,
						Size: size, Kind: frame.OpWrite, Flags: frame.Solicit})
					if err != nil {
						failedOps++
						alive = false
						break
					}
					q = append(q, pend{h, t0})
					k++
				}
				if len(q) == 0 {
					break
				}
				pe := q[0]
				q = q[1:]
				pe.h.Wait(p)
				if err := pe.h.Err(); err != nil {
					failedOps++
					if errors.Is(err, core.ErrPeerDead) {
						alive = false
					}
				} else {
					rec.Record(cl.Env.Now() - pe.t0)
					perSender[j]++
				}
			}
			for _, pe := range q {
				pe.h.Wait(p)
				if pe.h.Err() != nil {
					failedOps++
				} else {
					rec.Record(cl.Env.Now() - pe.t0)
					perSender[j]++
				}
			}

			// Byte-verify the touched slots (identical refills make
			// partial rewrites invisible, so any mismatch is corruption).
			if !c.Failed() && perSender[j] > 0 {
				touched := perSender[j]
				if touched > incastSlots {
					touched = incastSlots
				}
				nb := uint64(touched * size)
				if !bytes.Equal(server.Mem()[remote:remote+nb], ep.Mem()[local:local+nb]) {
					verified = false
				}
			}
			if finished++; finished == senders {
				end = cl.Env.Now()
			}
			c.Close(p)
		})
	}
	if cl.Obs != nil {
		cl.Env.Run()
		cl.Obs.Quiesce()
	} else {
		cl.Env.RunUntil(600 * sim.Second)
	}

	ops := 0
	minOps, maxOps := -1, 0
	for _, n := range perSender {
		ops += n
		if minOps < 0 || n < minOps {
			minOps = n
		}
		if n > maxOps {
			maxOps = n
		}
	}
	r := IncastResult{
		Senders: senders,
		CC:      opts.CC,
		Ops:     ops,
		Failed:  failedOps,
		MinOps:  minOps,
		MaxOps:  maxOps,
		Jain:    jainIndex(perSender),
		DataOK:  verified && finished == senders,
		Net:     cl.Collect(),
	}
	if end > start && start > 0 {
		r.Elapsed = end - start
		r.OpsPerSec = float64(ops) / r.Elapsed.Seconds()
		r.GoodMB = float64(ops) * float64(size) / 1e6 / r.Elapsed.Seconds()
		// The bottleneck is the receiver's single downlink; its payload
		// capacity is the line rate discounted by framing overhead.
		capMB := cfg.Link.BytesPerSec() * float64(size) / float64(payloadWireBytes(size)) / 1e6
		r.Utilization = r.GoodMB / capMB
	}
	r.P50Us = rec.Percentile(50).Micros()
	r.P95Us = rec.Percentile(95).Micros()
	r.P99Us = rec.Percentile(99).Micros()
	r.PeerDeaths = r.Net.Proto.PeerDeadEvents
	r.EcnMarks = r.Net.EcnMarks
	r.CwndCuts = r.Net.Proto.CcCwndCuts
	r.SwitchDrops = r.Net.SwitchDrops
	r.Retrans = r.Net.Proto.Retransmissions
	r.PendingEvents = cl.Env.PendingEvents()
	r.ActiveConns = server.ActiveConns()
	for _, n := range cl.Nodes[1:] {
		r.ActiveConns += n.EP.ActiveConns()
	}
	r.Obs = cl.Obs
	r.Recorders = cl.Recorders
	if !r.DataOK || !r.LeakFree() {
		cause := fmt.Sprintf("incast gate failure: dataOK=%v pendingEvents=%d activeConns=%d",
			r.DataOK, r.PendingEvents, r.ActiveConns)
		r.Dump = obs.BuildPostMortem(cause, cl.Env.Now(), nil, cl.Recorders...)
	}
	return r
}

// LeakFree reports whether the post-teardown gates all passed.
func (r IncastResult) LeakFree() bool { return r.PendingEvents == 0 && r.ActiveConns == 0 }

func (r IncastResult) String() string {
	mode := "cc-off"
	if r.CC {
		mode = "cc-on "
	}
	gate := "ok"
	if !r.LeakFree() {
		gate = fmt.Sprintf("LEAK(ev=%d conns=%d)", r.PendingEvents, r.ActiveConns)
	}
	data := "ok"
	if !r.DataOK {
		data = "CORRUPT"
	}
	return fmt.Sprintf("%s %3d senders %6d ops (%d..%d)  %8.3fms  %6.1f MB/s  util %4.2f  jain %4.2f  p50 %7.1fus  p99 %9.1fus  ecn %5d  cuts %4d  drops %5d  retx %4d  deaths %d  data %-7s leak %s",
		mode, r.Senders, r.Ops, r.MinOps, r.MaxOps, r.Elapsed.Micros()/1e3, r.GoodMB,
		r.Utilization, r.Jain, r.P50Us, r.P99Us, r.EcnMarks, r.CwndCuts, r.SwitchDrops,
		r.Retrans, r.PeerDeaths, data, gate)
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
	Adaptive bool
	Ops      int
	Elapsed  sim.Time

	OpsPerSec float64
	GoodMB    float64
	P50Us     float64
	P99Us     float64

	// Victim data split across the two rails during the measured
	// window: round-robin sits at ~0.5, congestion-weighted striping
	// shifts Rail1Share up as rail 0's RTT inflates.
	Rail0Frames uint64
	Rail1Frames uint64
	Rail1Share  float64

	BgOps int // background ops completed while the victim ran

	// Gates.
	DataOK        bool
	PendingEvents int
	ActiveConns   int

	Net cluster.NetReport
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
	cl := cluster.New(cfg)
	receiver := cl.Nodes[1].EP

	// Two background conns at depth 2 hold ~48 frames standing in rail
	// 0's switch queue — well under the 160-frame drop point.
	const bgSlots = 2
	rec := &trace.LatencyRecorder{}
	var bgSig, startSig sim.Signal
	var start, end sim.Time
	bgUp, bgOps := 0, 0
	victimDone := false
	verified := true
	var rail0, rail1 uint64

	// Background flows: nodes 2 and 3 hammer the receiver over rail 0
	// only, keeping its switch port congested until the victim is done.
	for _, node := range []int{2, 3} {
		node := node
		ep := cl.Nodes[node].EP
		cl.Env.Go(fmt.Sprintf("bg%d", node), func(p *sim.Proc) {
			c := ep.Dial(p, 1, 1) // links=1: pinned to rail 0
			remote := receiver.Alloc(bgSlots * bgSize)
			local := ep.Alloc(bgSlots * bgSize)
			faninFill(ep.Mem()[local:local+uint64(bgSlots*bgSize)], byte(101+node))
			var q []*core.Handle
			k := 0
			issue := func() bool {
				off := uint64(k%bgSlots) * uint64(bgSize)
				h, err := c.Do(p, core.Op{Remote: remote + off, Local: local + off,
					Size: bgSize, Kind: frame.OpWrite, Flags: frame.Solicit})
				if err != nil {
					return false
				}
				q = append(q, h)
				k++
				return true
			}
			// Prime the pipeline before releasing the victim so rail 0
			// is already congested when measurement starts.
			for len(q) < bgSlots {
				if !issue() {
					break
				}
			}
			if bgUp++; bgUp == 2 {
				bgSig.Fire(cl.Env)
			}
			for !victimDone && len(q) > 0 {
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
			for _, h := range q {
				h.Wait(p)
				if h.Err() == nil {
					bgOps++
				}
			}
			c.Close(p)
		})
	}

	// Victim: node 0 stripes across both rails to the same receiver.
	startSig.OnFire(cl.Env, func() { start = cl.Env.Now() })
	cl.Env.Go("victim", func(p *sim.Proc) {
		c := ep0Dial(cl, p)
		remote := receiver.Alloc(incastSlots * size)
		local := cl.Nodes[0].EP.Alloc(incastSlots * size)
		faninFill(cl.Nodes[0].EP.Mem()[local:local+uint64(incastSlots*size)], 77)
		p.Wait(&bgSig)
		// Let the background queue build at rail 0's switch port.
		p.Sleep(2 * sim.Millisecond)
		tx0 := cl.Nodes[0].NICs[0].TxFrames
		tx1 := cl.Nodes[0].NICs[1].TxFrames
		startSig.Fire(cl.Env)

		var q []struct {
			h  *core.Handle
			t0 sim.Time
		}
		for k := 0; k < ops || len(q) > 0; {
			for k < ops && len(q) < incastSlots {
				off := uint64(k%incastSlots) * uint64(size)
				t0 := cl.Env.Now()
				h, err := c.Do(p, core.Op{Remote: remote + off, Local: local + off,
					Size: size, Kind: frame.OpWrite, Flags: frame.Solicit})
				if err != nil {
					verified = false
					k = ops
					break
				}
				q = append(q, struct {
					h  *core.Handle
					t0 sim.Time
				}{h, t0})
				k++
			}
			if len(q) == 0 {
				break
			}
			pe := q[0]
			q = q[1:]
			pe.h.Wait(p)
			if pe.h.Err() != nil {
				verified = false
			} else {
				rec.Record(cl.Env.Now() - pe.t0)
			}
		}
		end = cl.Env.Now()
		rail0 = cl.Nodes[0].NICs[0].TxFrames - tx0
		rail1 = cl.Nodes[0].NICs[1].TxFrames - tx1
		victimDone = true
		touched := ops
		if touched > incastSlots {
			touched = incastSlots
		}
		nb := uint64(touched * size)
		if !bytes.Equal(receiver.Mem()[remote:remote+nb], cl.Nodes[0].EP.Mem()[local:local+nb]) {
			verified = false
		}
		c.Close(p)
	})
	cl.Env.RunUntil(600 * sim.Second)

	r := ParkingLotResult{
		Adaptive: opts.Adaptive,
		Ops:      ops,
		BgOps:    bgOps,
		DataOK:   verified,
		Net:      cl.Collect(),
	}
	if end > start && start > 0 {
		r.Elapsed = end - start
		r.OpsPerSec = float64(ops) / r.Elapsed.Seconds()
		r.GoodMB = float64(ops) * float64(size) / 1e6 / r.Elapsed.Seconds()
	}
	r.P50Us = rec.Percentile(50).Micros()
	r.P99Us = rec.Percentile(99).Micros()
	r.Rail0Frames, r.Rail1Frames = rail0, rail1
	if rail0+rail1 > 0 {
		r.Rail1Share = float64(rail1) / float64(rail0+rail1)
	}
	r.PendingEvents = cl.Env.PendingEvents()
	for _, n := range cl.Nodes {
		r.ActiveConns += n.EP.ActiveConns()
	}
	return r
}

func ep0Dial(cl *cluster.Cluster, p *sim.Proc) *core.Conn {
	return cl.Nodes[0].EP.Dial(p, 1, 0) // links=0: stripe over both rails
}

// LeakFree reports whether the post-teardown gates all passed.
func (r ParkingLotResult) LeakFree() bool { return r.PendingEvents == 0 && r.ActiveConns == 0 }

func (r ParkingLotResult) String() string {
	mode := "round-robin"
	if r.Adaptive {
		mode = "adaptive   "
	}
	gate := "ok"
	if !r.LeakFree() {
		gate = fmt.Sprintf("LEAK(ev=%d conns=%d)", r.PendingEvents, r.ActiveConns)
	}
	data := "ok"
	if !r.DataOK {
		data = "CORRUPT"
	}
	return fmt.Sprintf("%s %5d ops  %8.3fms  %8.0f ops/s  %6.1f MB/s  p50 %7.1fus  p99 %9.1fus  rail1 %4.2f  bg %5d ops  data %-7s leak %s",
		mode, r.Ops, r.Elapsed.Micros()/1e3, r.OpsPerSec, r.GoodMB, r.P50Us, r.P99Us,
		r.Rail1Share, r.BgOps, data, gate)
}

// RenderIncast runs the incast collapse A/B (CC off, then on, identical
// seeds) and the parking-lot striping A/B (round-robin, then adaptive),
// printing one row per phase plus the cross-phase gates. ok is false if
// any gate failed; the result slices carry one entry per phase for
// bench-trajectory output.
func RenderIncast(senders, size int, dur sim.Time, obsOpts cluster.ObsOptions) (out string, ok bool, incasts []IncastResult, lots []ParkingLotResult) {
	var b strings.Builder
	fmt.Fprintf(&b, "Incast collapse: %d synchronized senders -> 1 receiver, 1L-1G, %dB ops, %v window\n", senders, size, dur)
	fmt.Fprintf(&b, "(closed-loop pipeline depth %d per sender; CC phase: ECN mark at %d frames + AIMD window + admission backpressure)\n\n",
		incastSlots, incastEcnThresh)
	ok = true

	off := RunIncast(IncastOptions{Senders: senders, Size: size, Duration: dur, CC: false, Seed: 42})
	on := RunIncast(IncastOptions{Senders: senders, Size: size, Duration: dur, CC: true, Seed: 42, Obs: obsOpts})
	incasts = append(incasts, off, on)
	fmt.Fprintf(&b, "  %s\n  %s\n\n", off, on)

	// Gates: the CC run must hold the bottleneck (utilization, fairness,
	// no losses escalating to peer-death), and the baseline must
	// actually collapse — otherwise the scenario is not stressing
	// anything and the CC numbers are vacuous.
	if on.Utilization < incastMinUtil {
		ok = false
		fmt.Fprintf(&b, "FAIL: cc-on utilization %.2f below %.2f\n", on.Utilization, incastMinUtil)
	}
	if on.Jain < incastMinJain {
		ok = false
		fmt.Fprintf(&b, "FAIL: cc-on Jain fairness %.2f below %.2f\n", on.Jain, incastMinJain)
	}
	if on.PeerDeaths > 0 || on.Failed > 0 {
		ok = false
		fmt.Fprintf(&b, "FAIL: cc-on run had %d peer deaths, %d failed ops (want 0)\n", on.PeerDeaths, on.Failed)
	}
	if !on.DataOK || !on.LeakFree() || !off.DataOK || !off.LeakFree() {
		ok = false
		fmt.Fprintf(&b, "FAIL: a phase corrupted data or leaked post-close state\n")
	}
	if off.SwitchDrops == 0 || off.P99Us <= on.P99Us {
		ok = false
		fmt.Fprintf(&b, "FAIL: cc-off baseline did not collapse (drops %d, p99 %.1fus vs cc-on %.1fus) — scenario not stressing the bottleneck\n",
			off.SwitchDrops, off.P99Us, on.P99Us)
	} else {
		fmt.Fprintf(&b, "  collapse: cc-off p99 %.1fx cc-on, %d drops vs %d; cc-on goodput %.2fx cc-off\n",
			off.P99Us/on.P99Us, off.SwitchDrops, on.SwitchDrops, safeRatio(on.GoodMB, off.GoodMB))
	}

	fmt.Fprintf(&b, "\nParking lot: victim stripes 2 rails, background flows pin rail 0, 2L-1G unordered\n\n")
	rr := RunParkingLot(ParkingLotOptions{Ops: 300, Size: size, Adaptive: false, Seed: 42})
	ad := RunParkingLot(ParkingLotOptions{Ops: 300, Size: size, Adaptive: true, Seed: 42})
	lots = append(lots, rr, ad)
	fmt.Fprintf(&b, "  %s\n  %s\n\n", rr, ad)

	if !rr.DataOK || !rr.LeakFree() || !ad.DataOK || !ad.LeakFree() {
		ok = false
		fmt.Fprintf(&b, "FAIL: a parking-lot phase corrupted data or leaked post-close state\n")
	}
	gain := safeRatio(ad.OpsPerSec, rr.OpsPerSec)
	if gain < parkingLotMinGain {
		ok = false
		fmt.Fprintf(&b, "FAIL: adaptive striping %.2fx round-robin, below %.2fx\n", gain, parkingLotMinGain)
	} else {
		fmt.Fprintf(&b, "  adaptive striping %.2fx round-robin ops/s; victim rail-1 share %.2f -> %.2f\n",
			gain, rr.Rail1Share, ad.Rail1Share)
	}
	return b.String(), ok, incasts, lots
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
