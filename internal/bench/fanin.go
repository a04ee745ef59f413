package bench

import (
	"bytes"
	"fmt"
	"strings"

	"multiedge/internal/chaos"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
	"multiedge/internal/trace"
)

// Fan-in stress: many client connections converging on one server
// endpoint, the workload ISSUE 4's endpoint-scaling work exists for.
// Every run drives the scaled configuration (connection scheduler +
// submission queue), byte-verifies every transfer, and
// closes every connection at the end so the post-run leak gate can
// assert that the event queue drained and the server's connection table
// emptied.

// FaninOptions parameterizes one fan-in run.
type FaninOptions struct {
	Conns      int  // client connections converging on the server
	OpsPerConn int  // closed-loop operations per connection
	Size       int  // bytes per operation
	Chaos      bool // inject loss/dup bursts mid-run
	Seed       int64

	// Obs composes the observability registry (metrics, spans, health
	// sampling) into the run; the zero value keeps it off. The flight
	// recorder is attached regardless — recording is pure observation —
	// unless DisableRecorder (for overhead A/B measurements).
	Obs             cluster.ObsOptions
	DisableRecorder bool
}

// FaninResult is one fan-in measurement plus its correctness gates.
type FaninResult struct {
	Conns       int
	ClientNodes int
	Ops         int // operations completed
	Elapsed     sim.Time
	OpsPerSec   float64
	GoodMB      float64 // payload goodput, MB/s
	P50Us       float64 // closed-loop op latency percentiles
	P95Us       float64
	P99Us       float64

	// Gates.
	DataOK        bool // every byte of every conn verified
	PendingEvents int  // sim events still queued after teardown (leak)
	ActiveConns   int  // conns still tabled on the server (leak)

	Net cluster.NetReport

	// Observability artifacts: the registry (nil unless Obs options
	// enabled one), the per-node flight recorders, and — when a gate
	// failed — the cause-tagged post-mortem dump.
	Obs       *obs.Registry
	Recorders []*obs.Recorder
	Dump      *obs.PostMortem
}

// faninSlots is the per-connection pipeline depth: eager conns rotate
// writes/reads over this many buffer slots, SQ conns post one doorbell
// batch of this size.
const faninSlots = 8

func faninFill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i)*31
	}
}

// RunFanin drives opts.Conns client connections against node 0. The
// connections are spread over up to 64 client nodes behind one switch
// and run three workload flavours round-robin: eager remote writes,
// eager remote reads, and submission-queue write batches. Each
// connection is closed when its operations complete; the result's gate
// fields report whether anything survived the teardown.
func RunFanin(opts FaninOptions) FaninResult {
	conns := opts.Conns
	if conns < 1 {
		conns = 1
	}
	clientNodes := conns
	if clientNodes > 64 {
		clientNodes = 64
	}
	cfg := cluster.OneLink1G(1 + clientNodes)
	cfg.Seed = opts.Seed
	// The scaled endpoint: O(1) connection scheduler.
	cfg.Core.SchedQueue = true
	cfg.Core.UseSQ = true
	// The default 16 MB address space times hundreds of nodes is real
	// host memory; size it to the working set instead.
	cfg.Core.MemBytes = conns*faninSlots*opts.Size + (1 << 20)
	cfg.Obs = opts.Obs
	cfg.Obs.Recorder = !opts.DisableRecorder
	cl := cluster.New(cfg)
	server := cl.Nodes[0].EP

	var runner *chaos.Runner
	if opts.Chaos {
		r := chaos.New(cl, opts.Seed+1)
		runner = r
		// A loss burst on the server rail hits every connection at
		// once; bursts on the first client rails add asymmetric repair
		// load; a duplication window exercises the receive-side dedup.
		r.LossBurst(500*sim.Microsecond, 3*sim.Millisecond, 0, 0, 0.02)
		for n := 1; n <= clientNodes && n <= 4; n++ {
			from := sim.Time(n) * 300 * sim.Microsecond
			r.LossBurst(from, from+sim.Millisecond, n, 0, 0.05)
		}
		r.DuplicateEveryNth(sim.Millisecond, 2*sim.Millisecond, 1, 0, 7)
	}

	rec := &trace.LatencyRecorder{}
	var startSig sim.Signal
	var start, end sim.Time
	startSig.OnFire(cl.Env, func() { start = cl.Env.Now() })
	dialed, finished, opsDone := 0, 0, 0
	verified := true

	for j := 0; j < conns; j++ {
		j := j
		node := 1 + j%clientNodes
		ep := cl.Nodes[node].EP
		cl.Env.Go(fmt.Sprintf("fanin%d", j), func(p *sim.Proc) {
			c := ep.Dial(p, 0, 0)
			// Remote (server) and local working sets for this conn.
			remote := server.Alloc(faninSlots * opts.Size)
			local := ep.Alloc(faninSlots * opts.Size)
			seed := byte(37 + j)
			mode := j % 3
			if mode == 1 {
				faninFill(server.Mem()[remote:remote+uint64(faninSlots*opts.Size)], seed)
			} else {
				faninFill(ep.Mem()[local:local+uint64(faninSlots*opts.Size)], seed)
			}
			// Barrier: measure steady state, not the dial storm.
			if dialed++; dialed == conns {
				startSig.Fire(cl.Env)
			}
			p.Wait(&startSig)

			switch mode {
			case 0: // eager remote writes
				for k := 0; k < opts.OpsPerConn; k++ {
					off := uint64(k % faninSlots * opts.Size)
					t0 := cl.Env.Now()
					c.MustDo(p, core.Op{Remote: remote + off, Local: local + off,
						Size: opts.Size, Kind: frame.OpWrite, Flags: frame.Solicit}).Wait(p)
					rec.Record(cl.Env.Now() - t0)
					opsDone++
				}
			case 1: // eager remote reads
				for k := 0; k < opts.OpsPerConn; k++ {
					off := uint64(k % faninSlots * opts.Size)
					t0 := cl.Env.Now()
					c.MustDo(p, core.Op{Remote: remote + off, Local: local + off,
						Size: opts.Size, Kind: frame.OpRead}).Wait(p)
					rec.Record(cl.Env.Now() - t0)
					opsDone++
				}
			default: // submission-queue write batches
				for done := 0; done < opts.OpsPerConn; {
					n := faninSlots
					if opts.OpsPerConn-done < n {
						n = opts.OpsPerConn - done
					}
					t0 := cl.Env.Now()
					for i := 0; i < n; i++ {
						off := uint64(i * opts.Size)
						c.MustPost(core.Op{Remote: remote + off, Local: local + off,
							Size: opts.Size, Kind: frame.OpWrite, Flags: tailSolicit(i, n)})
					}
					c.MustRing(p)
					for i := 0; i < n; i++ {
						c.WaitCQ(p)
					}
					rec.Record(cl.Env.Now() - t0)
					opsDone += n
					done += n
				}
			}

			// Byte-verify the touched slots before teardown.
			touched := opts.OpsPerConn
			if touched > faninSlots {
				touched = faninSlots
			}
			nb := uint64(touched * opts.Size)
			if !bytes.Equal(server.Mem()[remote:remote+nb], ep.Mem()[local:local+nb]) {
				verified = false
			}
			if finished++; finished == conns {
				end = cl.Env.Now()
			}
			c.Close(p)
		})
	}
	if cl.Obs != nil {
		// The registry's samplers tick on daemon events; RunUntil would
		// march them all the way to the horizon after the workload
		// drained, and a still-armed tick would trip the PendingEvents
		// leak gate. Run to live-drain (identical end state — with obs
		// off nothing is pending after teardown either), then quiesce.
		cl.Env.Run()
		cl.Obs.Quiesce()
	} else {
		cl.Env.RunUntil(600 * sim.Second)
	}

	r := FaninResult{
		Conns:       conns,
		ClientNodes: clientNodes,
		Ops:         opsDone,
		DataOK:      verified && finished == conns && opsDone == totalFaninOps(conns, opts.OpsPerConn),
		Net:         cl.Collect(),
	}
	if end > start && start > 0 {
		r.Elapsed = end - start
		r.OpsPerSec = float64(opsDone) / r.Elapsed.Seconds()
		r.GoodMB = float64(opsDone*opts.Size) / 1e6 / r.Elapsed.Seconds()
	}
	r.P50Us = rec.Percentile(50).Micros()
	r.P95Us = rec.Percentile(95).Micros()
	r.P99Us = rec.Percentile(99).Micros()
	// Leak gates: after every conn closed, nothing may remain queued
	// and no endpoint may still table a connection.
	r.PendingEvents = cl.Env.PendingEvents()
	r.ActiveConns = server.ActiveConns()
	for _, n := range cl.Nodes[1:] {
		r.ActiveConns += n.EP.ActiveConns()
	}
	r.Obs = cl.Obs
	r.Recorders = cl.Recorders
	if !r.DataOK || !r.LeakFree() {
		var faults []obs.TimelineNote
		if runner != nil {
			for _, ev := range runner.Events {
				faults = append(faults, obs.TimelineNote{At: ev.At, Text: ev.What})
			}
		}
		cause := fmt.Sprintf("fanin gate failure: dataOK=%v pendingEvents=%d activeConns=%d",
			r.DataOK, r.PendingEvents, r.ActiveConns)
		r.Dump = obs.BuildPostMortem(cause, cl.Env.Now(), faults, cl.Recorders...)
	}
	return r
}

func totalFaninOps(conns, opsPerConn int) int { return conns * opsPerConn }

// LeakFree reports whether the post-teardown gates all passed.
func (r FaninResult) LeakFree() bool { return r.PendingEvents == 0 && r.ActiveConns == 0 }

func (r FaninResult) String() string {
	gate := "ok"
	if !r.LeakFree() {
		gate = fmt.Sprintf("LEAK(ev=%d conns=%d)", r.PendingEvents, r.ActiveConns)
	}
	data := "ok"
	if !r.DataOK {
		data = "CORRUPT"
	}
	return fmt.Sprintf("%5d conns/%2d nodes  %7d ops  %9.3fms  %9.0f ops/s  %7.1f MB/s  p50 %7.1fus  p99 %8.1fus  data %-7s leak %s",
		r.Conns, r.ClientNodes, r.Ops, r.Elapsed.Micros()/1e3, r.OpsPerSec, r.GoodMB, r.P50Us, r.P99Us, data, gate)
}

// RenderFanin sweeps the connection counts, printing one row per run
// plus the ops/s scaling factor relative to the single-connection
// baseline. ok is false if any run corrupted data or leaked post-close
// state — the caller should exit nonzero. The results slice carries one
// entry per run for bench-trajectory output and observability export;
// obsOpts composes the registry into every run (zero value = off).
func RenderFanin(connCounts []int, opsPerConn, size int, withChaos bool, obsOpts cluster.ObsOptions) (out string, ok bool, results []FaninResult) {
	var b strings.Builder
	chaosNote := ""
	if withChaos {
		chaosNote = ", loss/dup chaos bursts on"
	}
	fmt.Fprintf(&b, "Fan-in scaling: N client conns -> 1 server endpoint, 1L-1G, %d closed-loop ops/conn x %dB\n", opsPerConn, size)
	fmt.Fprintf(&b, "(mixed eager-write / eager-read / SQ-batch workloads; SchedQueue+SQ on%s)\n\n", chaosNote)
	ok = true
	var base float64
	for _, n := range connCounts {
		r := RunFanin(FaninOptions{Conns: n, OpsPerConn: opsPerConn, Size: size, Chaos: withChaos, Seed: 42, Obs: obsOpts})
		results = append(results, r)
		scale := ""
		if base == 0 && r.OpsPerSec > 0 {
			base = r.OpsPerSec
		} else if base > 0 {
			scale = fmt.Sprintf("  %5.2fx", r.OpsPerSec/base)
		}
		fmt.Fprintf(&b, "  %s%s\n", r, scale)
		if !r.DataOK || !r.LeakFree() {
			ok = false
			if r.Dump != nil {
				b.WriteString("\n" + r.Dump.Timeline())
			}
		}
	}
	if !ok {
		fmt.Fprintf(&b, "\nFAIL: a run corrupted data or leaked post-close state\n")
	}
	return b.String(), ok, results
}
