package bench

import (
	"fmt"

	"multiedge/internal/cluster"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
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

	recordAll bool // record every kind, not only the flight recorder's
}

// FaninResult is one fan-in measurement plus its correctness gates.
type FaninResult struct {
	Outcome
	Conns       int
	ClientNodes int
	Scale       float64 // ops/s over the sweep's first run; 0 outside a sweep
}

// faninSlots is the per-connection pipeline depth: eager conns rotate
// writes/reads over this many buffer slots, SQ conns post one doorbell
// batch of this size.
const faninSlots = 8

// RunFanin drives opts.Conns client connections against node 0. The
// connections are spread over up to 64 client nodes behind one switch
// and run three workload flavours round-robin: eager remote writes,
// eager remote reads, and submission-queue write batches. Each
// connection is closed when its operations complete; the result's gate
// fields report whether anything survived the teardown.
func RunFanin(opts FaninOptions) FaninResult {
	conns := max(opts.Conns, 1)
	clientNodes := min(conns, 64)
	cfg := cluster.OneLink1G(1 + clientNodes)
	cfg.Seed = opts.Seed
	// The scaled endpoint: O(1) connection scheduler.
	cfg.Core.SchedQueue = true
	// The default 16 MB address space times hundreds of nodes is real
	// host memory; size it to the working set instead.
	cfg.Core.MemBytes = conns*faninSlots*opts.Size + (1 << 20)
	st := newStage(cfg, opts.Obs, opts.DisableRecorder, conns)
	cl := st.cl
	if opts.recordAll {
		for i, n := range cl.Nodes {
			cl.Recorders[i] = obs.NewRecorder(n.ID, 0, obs.AllKinds)
			n.EP.SetRecorder(cl.Recorders[i])
		}
	}
	server := cl.Nodes[0].EP

	if opts.Chaos {
		r := st.withChaos(opts.Seed + 1)
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

	opsDone := 0
	verified := true
	for j := 0; j < conns; j++ {
		j := j
		ep := cl.Nodes[1+j%clientNodes].EP
		cl.Env.Go(fmt.Sprintf("fanin%d", j), func(p *sim.Proc) {
			c := ep.Dial(p, 0, 0)
			sl := newSlots(ep, server, faninSlots, opts.Size)
			local, remote := sl.span(0, faninSlots)
			mode := j % 3
			if mode == 1 {
				fillPattern(remote, byte(37+j))
			} else {
				fillPattern(local, byte(37+j))
			}
			st.arrive(p)

			switch mode {
			case 0, 1: // eager remote writes, eager remote reads
				kind, flags := frame.OpWrite, frame.Solicit
				if mode == 1 {
					kind, flags = frame.OpRead, 0
				}
				for k := 0; k < opts.OpsPerConn; k++ {
					t0 := st.now()
					mustRun(p, c, sl.op(k, kind, flags))
					st.lap(t0)
					opsDone++
				}
			default: // submission-queue write batches
				for done := 0; done < opts.OpsPerConn; {
					n := min(faninSlots, opts.OpsPerConn-done)
					t0 := st.now()
					postBatch(p, c, sl, n)
					st.lap(t0)
					opsDone += n
					done += n
				}
			}

			// Byte-verify the touched slots before teardown.
			if !sl.same(opts.OpsPerConn) {
				verified = false
			}
			st.finish()
			c.Close(p)
		})
	}
	st.run()

	dataOK := verified && st.running == 0 && opsDone == conns*opts.OpsPerConn
	return FaninResult{
		Outcome:     st.outcome("fanin", opsDone, opts.Size, dataOK),
		Conns:       conns,
		ClientNodes: clientNodes,
	}
}

func (r FaninResult) String() string {
	scale := ""
	if r.Scale > 0 {
		scale = fmt.Sprintf("  %5.2fx", r.Scale)
	}
	return fmt.Sprintf("%5d conns/%2d nodes  %7d ops  %9.3fms  %9.0f ops/s  %7.1f MB/s  p50 %7.1fus  p99 %8.1fus  %s%s",
		r.Conns, r.ClientNodes, r.Ops, r.Elapsed.Micros()/1e3, r.OpsPerSec, r.GoodMB, r.P50Us, r.P99Us, r.gateColumns(), scale)
}

// BenchRow converts one fan-in measurement into a bench-document row.
func (r FaninResult) BenchRow() BenchRow {
	return r.benchRow(fmt.Sprintf("fanin-%d", r.Conns), map[string]float64{
		"conns":        float64(r.Conns),
		"client_nodes": float64(r.ClientNodes),
	})
}

// RenderFanin sweeps the connection counts, printing one row per run
// plus the ops/s scaling factor relative to the single-connection
// baseline. The report fails if any run corrupted data or leaked
// post-close state; obsOpts composes the registry into every run (zero
// value = off).
func RenderFanin(connCounts []int, opsPerConn, size int, withChaos bool, obsOpts cluster.ObsOptions) Report {
	var rep report
	chaosNote := ""
	if withChaos {
		chaosNote = ", loss/dup chaos bursts on"
	}
	rep.printf("Fan-in scaling: N client conns -> 1 server endpoint, 1L-1G, %d closed-loop ops/conn x %dB\n", opsPerConn, size)
	rep.printf("(mixed eager-write / eager-read / SQ-batch workloads; SchedQueue+SQ on%s)\n\n", chaosNote)
	var base float64
	for _, n := range connCounts {
		r := RunFanin(FaninOptions{Conns: n, OpsPerConn: opsPerConn, Size: size, Chaos: withChaos, Seed: 42, Obs: obsOpts})
		if base == 0 {
			base = r.OpsPerSec
		} else {
			r.Scale = r.OpsPerSec / base
		}
		rep.add(r)
	}
	return rep.done()
}
