package bench

import (
	"fmt"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// Noisy-neighbor isolation: one latency-sensitive victim tenant shares
// an endpoint with an elephant-flow flood tenant, the scenario ISSUE
// 8's QoS layer exists for. The bench runs three phases over identical
// seeds — victim alone, victim + flood with QoS off (the starvation
// demonstration), victim + flood with QoS on — and gates that
// weighted-fair scheduling plus the flood class's rate cap keep the
// victim's p99 within noisyP99Bound of its isolated baseline.

// Tenant class table shared by every QoS-on noisy run: class 1 is the
// victim (weight 8), class 2 the flood (weight 1, rate-capped and
// quota-bounded). Class 0 is the default class nothing here uses for
// data traffic.
func noisyClasses() []core.QoSClass {
	return []core.QoSClass{
		{Weight: 1},
		{Weight: 8},
		{Weight: 1, RateBps: 80e6, Burst: 8 << 10, MaxQueued: 16, MaxQueuedBytes: 1 << 20},
	}
}

// noisyP99Bound is the isolation gate: with QoS on, the victim's p99
// under flood may not exceed this multiple of its isolated baseline.
const noisyP99Bound = 3.0

const (
	noisyVictimClass = 1
	noisyFloodClass  = 2
	noisyVictimSize  = 64       // victim op payload bytes
	noisyFloodSize   = 16 << 10 // flood op payload bytes
	noisyFloodConns  = 8
	noisyFloodWindow = 4  // pipelined flood ops per connection
	noisySlots       = 8  // victim buffer rotation
	noisyWarmup      = 32 // unrecorded victim ops that absorb the flood's start-up burst
)

// NoisyOptions parameterizes one phase of the noisy-neighbor bench.
type NoisyOptions struct {
	VictimOps int  // closed-loop victim operations to measure
	QoS       bool // enable the tenant class table
	Flood     bool // run the elephant flood alongside the victim
	Chaos     bool // inject a loss burst mid-run
	Seed      int64

	Obs             cluster.ObsOptions
	DisableRecorder bool
}

// NoisyResult is one phase measurement plus its correctness gates. Ops,
// the rate and the percentiles are the victim's, past its warmup; the
// bench reports its latency, not a goodput.
type NoisyResult struct {
	Outcome
	Phase    string // "isolated", "qos-off", "qos-on"
	QoSOn    bool
	Flooded  bool
	FloodOps int // flood operations completed before the victim finished

	// QoS trace (zero when QoS off).
	AdmissionWaits uint64
	RateDeferrals  uint64
}

// RunNoisy drives one phase: a victim tenant issuing closed-loop 64 B
// solicited writes from node 1 to node 0, optionally sharing node 1's
// endpoint with eight flood connections each streaming pipelined 16 KiB
// writes until the victim finishes. Every connection is tagged with its
// tenant class whether or not QoS is enabled, so the QoS-off phase
// differs only in the scheduler/admission machinery being off.
func RunNoisy(opts NoisyOptions) NoisyResult {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = opts.Seed
	cfg.Core.SchedQueue = true // both phases run the O(1) scheduler; QoS swaps RR for DWFQ
	phase, parties := "isolated", 1
	if opts.QoS {
		cfg.Core.QoS = noisyClasses()
	}
	if opts.Flood {
		parties += noisyFloodConns
		phase = "qos-off"
		if opts.QoS {
			phase = "qos-on"
		}
	}
	st := newStage(cfg, opts.Obs, opts.DisableRecorder, parties)
	cl := st.cl
	server, client := cl.Nodes[0].EP, cl.Nodes[1].EP
	if opts.Chaos {
		// A loss burst on the server rail perturbs victim and flood alike;
		// isolation must hold through the repair traffic.
		st.withChaos(opts.Seed+1).LossBurst(500*sim.Microsecond, 5*sim.Millisecond, 0, 0, 0.02)
	}

	victimDone, verified := false, false
	floodOps := 0

	// Victim: closed-loop solicited writes, one at a time, each timed.
	vs := newSlots(client, server, noisySlots, noisyVictimSize)
	cl.Env.Go("noisy-victim", func(p *sim.Proc) {
		c := client.Dial(p, 0, 0)
		c.SetClass(noisyVictimClass)
		local, _ := vs.span(0, noisySlots)
		fillPattern(local, 11)
		st.arrive(p)
		// Warmup absorbs the flood's start-up transient (its token bucket
		// opens full) so the window and the percentiles measure
		// steady-state isolation, matching fanin's
		// measure-past-the-dial-storm convention.
		for k := 0; k < noisyWarmup+opts.VictimOps; k++ {
			t0 := st.now()
			mustRun(p, c, vs.op(k, frame.OpWrite, frame.Solicit))
			if k == noisyWarmup-1 {
				st.start = st.now()
			} else if k >= noisyWarmup {
				st.lap(t0)
			}
		}
		st.end = st.now()
		victimDone = true
		verified = vs.same(noisyWarmup + opts.VictimOps)
		c.Close(p)
	})

	// Flood: greedy pipelined elephants from the same endpoint. Quota
	// backpressure (QoS on) legitimately blocks them in admission.
	for j := 0; opts.Flood && j < noisyFloodConns; j++ {
		fs := newSlots(client, server, noisyFloodWindow, noisyFloodSize)
		cl.Env.Go(fmt.Sprintf("noisy-flood%d", j), func(p *sim.Proc) {
			c := client.Dial(p, 0, 0)
			c.SetClass(noisyFloodClass)
			st.arrive(p)
			var inflight []*core.Handle
			for k := 0; !victimDone; k++ {
				inflight = append(inflight, mustDo(p, c, fs.op(k, frame.OpWrite, 0)))
				if len(inflight) >= noisyFloodWindow {
					inflight[0].Wait(p)
					inflight = inflight[1:]
					floodOps++
				}
			}
			for _, h := range inflight {
				h.Wait(p)
				floodOps++
			}
			c.Close(p)
		})
	}
	st.run()

	r := NoisyResult{
		Outcome:  st.outcome("noisy ("+phase+")", st.lat.Count(), 0, verified && victimDone),
		Phase:    phase,
		QoSOn:    opts.QoS,
		Flooded:  opts.Flood,
		FloodOps: floodOps,
	}
	r.AdmissionWaits = r.Net.Proto.QosAdmissionWaits
	r.RateDeferrals = r.Net.Proto.QosRateDeferrals
	return r
}

func (r NoisyResult) String() string {
	return fmt.Sprintf("%-8s  %6d victim ops  %9.3fms  %9.0f ops/s  p50 %7.1fus  p95 %7.1fus  p99 %8.1fus  flood %6d ops  waits %4d  defers %5d  %s",
		r.Phase, r.Ops, r.Elapsed.Micros()/1e3, r.OpsPerSec,
		r.P50Us, r.P95Us, r.P99Us, r.FloodOps, r.AdmissionWaits, r.RateDeferrals, r.gateColumns())
}

// BenchRow converts one noisy-neighbor phase into a bench-document
// row. The latency percentiles are the victim tenant's closed-loop op
// latencies — the figures the QoS isolation ratchet watches.
func (r NoisyResult) BenchRow() BenchRow {
	return r.benchRow("noisy-"+r.Phase, map[string]float64{
		"flood_ops":          float64(r.FloodOps),
		"qos_waits":          float64(r.AdmissionWaits),
		"qos_rate_deferrals": float64(r.RateDeferrals),
	})
}

// RenderNoisy runs the three noisy-neighbor phases and gates the QoS-on
// victim p99 against noisyP99Bound times the isolated baseline. The
// QoS-off phase is the starvation demonstration: its p99 must exceed
// the QoS-on p99, or the flood was not actually contending. The report
// fails if any gate, byte-verification or leak check failed.
func RenderNoisy(victimOps int, withChaos bool, obsOpts cluster.ObsOptions) Report {
	var rep report
	chaosNote := ""
	if withChaos {
		chaosNote = ", loss burst on"
	}
	rep.printf("Noisy neighbor: 1 victim conn (class 1, w=8, %dB solicited writes) vs %d flood conns (class 2, w=1, %dKiB, rate-capped) on one endpoint, 1L-1G\n",
		noisyVictimSize, noisyFloodConns, noisyFloodSize>>10)
	rep.printf("(%d closed-loop victim ops; QoS classes %+v%s)\n\n", victimOps, noisyClasses(), chaosNote)
	phase := func(qos, flood bool) NoisyResult {
		r := RunNoisy(NoisyOptions{VictimOps: victimOps, QoS: qos, Flood: flood, Chaos: withChaos, Seed: 42, Obs: obsOpts})
		rep.add(r)
		return r
	}
	iso, off, on := phase(true, false), phase(false, true), phase(true, true)
	if iso.P99Us > 0 {
		rep.printf("\n  victim p99 ratio vs isolated:  qos-off %.2fx   qos-on %.2fx  (gate: qos-on <= %.1fx)\n",
			off.P99Us/iso.P99Us, on.P99Us/iso.P99Us, noisyP99Bound)
	}
	rep.gate(on.P99Us <= iso.P99Us*noisyP99Bound, "QoS-on victim p99 %.1fus exceeds %.1fx isolated baseline %.1fus",
		on.P99Us, noisyP99Bound, iso.P99Us)
	rep.gate(off.P99Us > on.P99Us, "QoS-off victim p99 %.1fus not above QoS-on %.1fus — the flood is not contending",
		off.P99Us, on.P99Us)
	return rep.done()
}
