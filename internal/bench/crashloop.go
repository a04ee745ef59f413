package bench

import (
	"bytes"
	"fmt"

	"multiedge/internal/cluster"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// Crash-loop stress: one writer streams verified transfers while the
// peer node crash-restarts in a loop. With Config.Reconnect on, every
// outage longer than DeadInterval parks the connection, redials,
// renegotiates an incarnation and replays the in-flight ops; shorter
// outages are absorbed by plain ARQ retransmission. The bench measures
// time-to-recover — restore of the rails until the first transfer
// completes again — across DeadInterval/backoff settings, and gates on
// zero leaked timers/events/connections after teardown.

// CrashloopOptions parameterizes one crash-loop run.
type CrashloopOptions struct {
	Cycles       int      // crash-restart cycles
	Down         sim.Time // rail downtime per cycle
	DeadInterval sim.Time
	Backoff      sim.Time // reconnect backoff base
	Bytes        int      // bytes per streamed transfer
	Seed         int64

	// Obs composes the observability registry into the run (zero value
	// = off). The flight recorder is attached regardless unless
	// DisableRecorder.
	Obs             cluster.ObsOptions
	DisableRecorder bool
}

// CrashloopResult is one crash-loop measurement plus its gates. Ops is
// the transfers completed and byte-verified, Elapsed the run's whole
// virtual extent, and the percentiles are recovery latencies (restore to
// first completed transfer), the figure this harness exists to measure.
type CrashloopResult struct {
	Outcome
	Opts CrashloopOptions

	Reconnects      uint64 // completed incarnation renegotiations (both sides)
	ReplayedOps     uint64
	ReplayedBytes   uint64
	StaleEpochDrops uint64

	Recovered  int      // cycles where service resumed before the give-up horizon
	RecoverP50 sim.Time // upper median
	RecoverMax sim.Time
}

const crashloopSlots = 4

// RunCrashloop streams writes from node 0 to node 1 while node 1
// crash-restarts opts.Cycles times, then closes the connection and
// reports recovery latency and the leak gates.
func RunCrashloop(o CrashloopOptions) CrashloopResult {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = o.Seed
	cfg.Core.Reconnect = true
	cfg.Core.DeadInterval = o.DeadInterval
	cfg.Core.HeartbeatInterval = o.DeadInterval / 5
	cfg.Core.ReconnectBackoff = o.Backoff
	// The budget must outlast Down at the smallest backoff base; the
	// point of the loop is recovery, not budget exhaustion.
	cfg.Core.MaxReconnects = 32
	st := newStage(cfg, o.Obs, o.DisableRecorder, 0)
	cl := st.cl
	c01, _ := cl.Pair()
	sl := newSlots(cl.Nodes[0].EP, cl.Nodes[1].EP, crashloopSlots, o.Bytes)

	var (
		done         bool
		dataOK       = true
		transfers    int
		waitingSince sim.Time // set by the driver at restore; cleared by the writer
	)
	cl.Env.Go("crashloop-writer", func(p *sim.Proc) {
		for i := 0; !done; i++ {
			local, remote := sl.span(i, 1)
			fillPattern(local, byte(3+i))
			h := mustDo(p, c01, sl.op(i, frame.OpWrite, 0))
			h.Wait(p)
			if h.Err() != nil {
				dataOK = false
				break
			}
			if !bytes.Equal(remote, local) {
				dataOK = false
			}
			transfers++
			if waitingSince > 0 {
				st.lap(waitingSince)
				waitingSince = 0
			}
		}
		c01.Close(p)
	})
	// The driver pauses/resumes node 1, noting each action so a gate
	// failure's post-mortem can interleave causes with effects.
	cl.Env.Go("crashloop-driver", func(p *sim.Proc) {
		defer func() { done = true }()
		for cycle := 0; cycle < o.Cycles; cycle++ {
			p.Sleep(20 * sim.Millisecond) // healthy traffic between crashes
			cl.PauseNode(1)
			st.note("cycle %d: pause node 1 for %v", cycle, o.Down)
			p.Sleep(o.Down)
			cl.ResumeNode(1)
			st.note("cycle %d: resume node 1", cycle)
			waitingSince = st.now()
			giveUp := st.now() + 10*sim.Second
			for waitingSince > 0 && st.now() < giveUp {
				p.Sleep(200 * sim.Microsecond)
			}
			if waitingSince > 0 {
				// Service never came back this cycle: leave the mark so
				// Recovered undercounts and the row is visibly broken.
				waitingSince = 0
				dataOK = false
				return
			}
		}
	})
	st.end = st.run()

	st0, st1 := cl.Nodes[0].EP.Stats, cl.Nodes[1].EP.Stats
	r := CrashloopResult{
		Outcome:         st.outcome("crashloop", transfers, o.Bytes, dataOK && transfers > 0),
		Opts:            o,
		Reconnects:      st0.Reconnects + st1.Reconnects,
		ReplayedOps:     st0.ReplayedOps + st1.ReplayedOps,
		ReplayedBytes:   st0.ReplayedBytes + st1.ReplayedBytes,
		StaleEpochDrops: st0.StaleEpochDrops + st1.StaleEpochDrops,
		Recovered:       st.lat.Count(),
	}
	if n := r.Recovered; n > 0 {
		// The upper median is rank n/2+1; the half-rank margin keeps the
		// nearest-rank ceiling clear of float rounding.
		r.RecoverP50 = st.lat.Percentile(100 * (float64(n/2) + 0.5) / float64(n))
		r.RecoverMax = st.lat.Percentile(100)
	}
	r.P50Us, r.P99Us = r.RecoverP50.Micros(), r.RecoverMax.Micros()
	return r
}

func (r CrashloopResult) String() string {
	return fmt.Sprintf("di %7s  backoff %5s  %3d/%d cycles  %5d xfers  reconn %3d  replay %4d ops/%8d B  stale %4d  recover p50 %8.1fus max %8.1fus  %s",
		r.Opts.DeadInterval, r.Opts.Backoff, r.Recovered, r.Opts.Cycles, r.Ops,
		r.Reconnects, r.ReplayedOps, r.ReplayedBytes, r.StaleEpochDrops,
		r.RecoverP50.Micros(), r.RecoverMax.Micros(), r.gateColumns())
}

// BenchRow converts one crash-loop measurement into a bench-document
// row.
func (r CrashloopResult) BenchRow() BenchRow {
	return r.benchRow(fmt.Sprintf("crashloop-di%dms", int64(r.Opts.DeadInterval)/1e6), map[string]float64{
		"recovered":    float64(r.Recovered),
		"cycles":       float64(r.Opts.Cycles),
		"reconnects":   float64(r.Reconnects),
		"replayed_ops": float64(r.ReplayedOps),
	})
}

// RenderCrashloop sweeps detection/backoff settings under a fixed
// downtime, printing one row per setting. The report fails if any run
// corrupted data, failed to recover a cycle, or leaked post-close state;
// obsOpts composes the registry into every run (zero value = off).
func RenderCrashloop(cycles int, down sim.Time, size int, obsOpts cluster.ObsOptions) Report {
	var rep report
	rep.printf("Crash-loop recovery: node 1 crash-restarts %d times (down %v), writer streams %d B transfers, 1L-1G\n", cycles, down, size)
	rep.printf("(Config.Reconnect on; rows where DeadInterval > downtime recover by plain ARQ without an incarnation bump)\n\n")
	for _, c := range []struct{ di, backoff sim.Time }{
		{10 * sim.Millisecond, sim.Millisecond},
		{25 * sim.Millisecond, 2 * sim.Millisecond},
		{50 * sim.Millisecond, 5 * sim.Millisecond},
		{100 * sim.Millisecond, 10 * sim.Millisecond},
		{200 * sim.Millisecond, 20 * sim.Millisecond},
	} {
		r := RunCrashloop(CrashloopOptions{
			Cycles: cycles, Down: down, Bytes: size,
			DeadInterval: c.di, Backoff: c.backoff, Seed: 42, Obs: obsOpts,
		})
		rep.add(r)
		rep.gate(r.Recovered == cycles, "di %v recovered %d of %d cycles", c.di, r.Recovered, cycles)
	}
	return rep.done()
}
