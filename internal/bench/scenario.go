package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"multiedge/internal/chaos"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// The scenario harness: what the stress modes (fan-in, serve, noisy
// neighbour, incast, parking lot, crash loop) have in common, written
// once. A stage owns the run — cluster, instrumentation, barrier, drain —
// and turns it into an Outcome, the measurement and post-teardown gates
// every result embeds; a Report collects the printed rows, the bench rows
// and the verdict of one medbench mode. A scenario file holds only its
// topology, its client loops and the gates particular to it.

// stageHorizon bounds a run in virtual time. Every scenario drains long
// before it; a run that has not is reported by its leak gate.
const stageHorizon = 600 * sim.Second

// stage is one scenario run in progress.
type stage struct {
	cl    *cluster.Cluster
	chaos *chaos.Runner   // fault timeline, nil unless withChaos
	lat   LatencyRecorder // the latencies the percentiles are read from

	startSig   sim.Signal
	waiting    int      // parties yet to reach the start barrier
	running    int      // parties yet to cross the finish line
	start, end sim.Time // measurement window; elapsed is end - start
	notes      []obs.TimelineNote

	// daemonsLinger is the serve exemption: a killed backend's parked
	// conns hold daemon give-up timers that may outlive teardown, so the
	// leak gate reads live events instead of all events.
	daemonsLinger bool
}

// newStage builds cfg's cluster with the caller's observability options
// and, unless disabled for an overhead A/B, the flight recorder —
// recording is pure observation. parties is how many client processes
// meet at the start barrier and cross the finish line.
func newStage(cfg cluster.Config, o cluster.ObsOptions, disableRecorder bool, parties int) *stage {
	cfg.Obs = o
	cfg.Obs.Recorder = !disableRecorder
	return &stage{cl: cluster.New(cfg), waiting: parties, running: parties}
}

// withChaos attaches a fault-injection runner whose events join the
// post-mortem timeline.
func (s *stage) withChaos(seed int64) *chaos.Runner {
	s.chaos = chaos.New(s.cl, seed)
	return s.chaos
}

func (s *stage) now() sim.Time { return s.cl.Env.Now() }

// note records a driver action for the post-mortem timeline.
func (s *stage) note(format string, a ...any) {
	s.notes = append(s.notes, obs.TimelineNote{At: s.now(), Text: fmt.Sprintf(format, a...)})
}

// arrive blocks until every party has arrived, so the window measures
// steady state and not the dial storm; the last arrival opens it.
func (s *stage) arrive(p *sim.Proc) {
	if s.waiting--; s.waiting == 0 {
		s.start = s.now()
		s.startSig.Fire(s.cl.Env)
	}
	p.Wait(&s.startSig)
}

// finish is the finish line: the last party across closes the window.
func (s *stage) finish() {
	if s.running--; s.running == 0 {
		s.end = s.now()
	}
}

// lap records one operation's latency, issued at t0 and complete now.
func (s *stage) lap(t0 sim.Time) { s.lat.Record(s.now() - t0) }

// run drains the simulation and returns the time of the last event. It
// runs to live-drain first and stops the registry's samplers there:
// their daemon ticks would otherwise march to the horizon, and a
// still-armed one would trip the leak gate. What is left then is daemon
// timers the teardown parked (a dead backend's redial give-ups), which
// get the horizon to run out.
func (s *stage) run() sim.Time {
	s.cl.Env.Run()
	s.cl.Obs.Quiesce()
	return s.cl.Env.RunUntil(stageHorizon)
}

// Outcome is what every stress run reports: the measurement over its
// window and the post-teardown gates.
type Outcome struct {
	Ops       int // operations completed
	Elapsed   sim.Time
	OpsPerSec float64
	GoodMB    float64 // payload goodput, MB/s
	P50Us     float64 // latency percentiles of the recorded operations
	P95Us     float64
	P99Us     float64

	// Gates.
	DataOK        bool // every transfer finished and byte-verified
	PendingLive   int  // live sim events left after teardown
	PendingEvents int  // all sim events left after teardown, daemons included
	ActiveConns   int  // conns still tabled on any endpoint
	DaemonsLinger bool // leak gate reads PendingLive (see stage.daemonsLinger)

	Net cluster.NetReport

	// Observability artifacts: the registry (nil unless the options
	// enabled one), the per-node flight recorders, and — when a gate
	// failed — the cause-tagged post-mortem dump.
	Obs       *obs.Registry
	Recorders []*obs.Recorder
	Dump      *obs.PostMortem
}

// outcome closes the run and its cluster: figures over the window for
// ops operations of size payload bytes each, percentiles from the
// recorded latencies, the leak gates, and a post-mortem named what if a
// gate failed.
func (s *stage) outcome(what string, ops, size int, dataOK bool) Outcome {
	o := Outcome{
		Ops:           ops,
		P50Us:         s.lat.Percentile(50).Micros(),
		P95Us:         s.lat.Percentile(95).Micros(),
		P99Us:         s.lat.Percentile(99).Micros(),
		DataOK:        dataOK,
		PendingLive:   s.cl.Env.PendingLive(),
		PendingEvents: s.cl.Env.PendingEvents(),
		DaemonsLinger: s.daemonsLinger,
		Net:           s.cl.Collect(),
		Obs:           s.cl.Obs,
		Recorders:     s.cl.Recorders,
	}
	if s.end > s.start {
		o.Elapsed = s.end - s.start
		o.OpsPerSec = float64(ops) / o.Elapsed.Seconds()
		o.GoodMB = float64(ops*size) / 1e6 / o.Elapsed.Seconds()
	}
	for _, n := range s.cl.Nodes {
		o.ActiveConns += n.EP.ActiveConns()
	}
	if !o.Passed() {
		var faults []obs.TimelineNote
		if s.chaos != nil {
			for _, ev := range s.chaos.Events {
				faults = append(faults, obs.TimelineNote{At: ev.At, Text: ev.What})
			}
		}
		cause := fmt.Sprintf("%s gate failure: dataOK=%v pendingLive=%d pendingEvents=%d activeConns=%d",
			what, o.DataOK, o.PendingLive, o.PendingEvents, o.ActiveConns)
		o.Dump = obs.BuildPostMortem(cause, s.now(), append(faults, s.notes...), s.cl.Recorders...)
	}
	// Last: Close empties the event queue the leak gates above read.
	s.cl.Close()
	return o
}

// LeakFree reports whether teardown left nothing behind: after every
// conn closed, no event may remain queued and no endpoint may still
// table a connection.
func (o Outcome) LeakFree() bool {
	pending := o.PendingEvents
	if o.DaemonsLinger {
		pending = o.PendingLive
	}
	return pending == 0 && o.ActiveConns == 0
}

// Passed reports whether the run verified its data and leaked nothing.
func (o Outcome) Passed() bool { return o.DataOK && o.LeakFree() }

// gateColumns renders the two gate columns that end every result row.
func (o Outcome) gateColumns() string {
	data, leak := "ok", "ok"
	if !o.DataOK {
		data = "CORRUPT"
	}
	if !o.LeakFree() {
		leak = fmt.Sprintf("LEAK(live=%d ev=%d conns=%d)", o.PendingLive, o.PendingEvents, o.ActiveConns)
	}
	return fmt.Sprintf("data %-7s leak %s", data, leak)
}

// benchRow is the bench-document row every stress result starts from:
// the figures plus the gates, with the scenario's own extras merged in.
func (o Outcome) benchRow(name string, extra map[string]float64) BenchRow {
	row := BenchRow{
		Name:       name,
		Ops:        o.Ops,
		OpsPerSec:  o.OpsPerSec,
		GoodputMBs: o.GoodMB,
		P50Us:      o.P50Us,
		P95Us:      o.P95Us,
		P99Us:      o.P99Us,
		Extra:      map[string]float64{"active_conns": float64(o.ActiveConns), "data_ok": 0},
	}
	if o.DataOK {
		row.Extra["data_ok"] = 1
	}
	if o.DaemonsLinger {
		row.Extra["pending_live"] = float64(o.PendingLive)
	} else {
		row.Extra["pending_events"] = float64(o.PendingEvents)
	}
	for k, v := range extra {
		row.Extra[k] = v
	}
	return row
}

func (o Outcome) base() Outcome { return o }

// result is a stress run as a report sees it; every scenario's result
// type satisfies it through its row format, its bench row and the
// Outcome it embeds.
type result interface {
	fmt.Stringer
	BenchRow() BenchRow
	base() Outcome
}

// Report is one stress mode rendered: the text to print, the verdict
// behind the exit code, one bench row and one outcome per run.
type Report struct {
	Text     string
	OK       bool
	Rows     []BenchRow
	Outcomes []Outcome
}

// report accumulates a Report.
type report struct {
	Report
	b     strings.Builder
	fails []string
}

func (r *report) printf(format string, a ...any) { fmt.Fprintf(&r.b, format, a...) }

// add prints one run's row and files its bench row and outcome; a run
// that corrupted data or leaked fails the report, with its post-mortem
// timeline printed under the row.
func (r *report) add(res result) {
	row, o := res.BenchRow(), res.base()
	r.printf("  %s\n", res)
	r.Rows, r.Outcomes = append(r.Rows, row), append(r.Outcomes, o)
	if !o.Passed() {
		r.fails = append(r.fails, row.Name+" corrupted data or leaked post-close state")
		if o.Dump != nil {
			r.printf("\n%s", o.Dump.Timeline())
		}
	}
}

// gate fails the report with the formatted reason unless ok holds.
func (r *report) gate(ok bool, format string, a ...any) bool {
	if !ok {
		r.fails = append(r.fails, fmt.Sprintf(format, a...))
	}
	return ok
}

// done closes the report: a failed one ends with exactly one FAIL line
// naming every gate that failed.
func (r *report) done() Report {
	if len(r.fails) > 0 {
		r.printf("\nFAIL: %s\n", strings.Join(r.fails, "; "))
	}
	r.Text, r.OK = r.b.String(), len(r.fails) == 0
	return r.Report
}

// slots is a ring of n size-byte buffers mirrored on a local and a
// remote endpoint: operation k moves slot k%n between the two.
type slots struct {
	local, remote *core.Endpoint
	lbase, rbase  uint64
	n, size       int
}

func newSlots(local, remote *core.Endpoint, n, size int) slots {
	return slots{local: local, remote: remote, n: n, size: size,
		rbase: remote.Alloc(n * size), lbase: local.Alloc(n * size)}
}

// op returns operation k over the ring.
func (s slots) op(k int, kind frame.OpType, flags frame.OpFlags) core.Op {
	off := uint64(k % s.n * s.size)
	return core.Op{Remote: s.rbase + off, Local: s.lbase + off, Size: s.size, Kind: kind, Flags: flags}
}

// span returns both sides' bytes of count slots from slot k%n on.
func (s slots) span(k, count int) (local, remote []byte) {
	off, nb := uint64(k%s.n*s.size), uint64(count*s.size)
	return s.local.Mem()[s.lbase+off : s.lbase+off+nb], s.remote.Mem()[s.rbase+off : s.rbase+off+nb]
}

// same reports whether the slots touched ops operations hold equal
// bytes on both sides.
func (s slots) same(ops int) bool {
	local, remote := s.span(0, min(ops, s.n))
	return bytes.Equal(local, remote)
}

func fillPattern(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i)*31
	}
}

// pipeline runs a closed loop of solicited writes over sl on c, keeping
// up to depth outstanding while more(issued) holds, then drains. Each
// completed write's latency is recorded. A refused submission or a dead
// peer stops issuing; what is in flight is still waited for.
func (s *stage) pipeline(p *sim.Proc, c *core.Conn, sl slots, depth int, more func(issued int) bool) (completed, failed int) {
	type pending struct {
		h  *core.Handle
		t0 sim.Time
	}
	var q []pending
	for k, alive := 0, true; ; {
		for alive && len(q) < depth && more(k) {
			t0 := s.now()
			h, err := c.Do(p, sl.op(k, frame.OpWrite, frame.Solicit))
			if err != nil {
				failed++
				alive = false
				break
			}
			q = append(q, pending{h, t0})
			k++
		}
		if len(q) == 0 {
			return completed, failed
		}
		head := q[0]
		q = q[1:]
		head.h.Wait(p)
		if err := head.h.Err(); err != nil {
			failed++
			alive = alive && !errors.Is(err, core.ErrPeerDead)
		} else {
			s.lap(head.t0)
			completed++
		}
	}
}
