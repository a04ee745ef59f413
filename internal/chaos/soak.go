package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// Options configures one chaos soak: a cluster, a fault timeline and a
// verifying workload (node 0 streams pseudo-random writes to node 1,
// each flagged for notification and verified byte-for-byte on arrival).
type Options struct {
	// Config is the base cluster; its Seed is overridden by Seed so one
	// topology fans out across a seed matrix.
	Config cluster.Config
	// Seed drives the cluster RNG, the fault timeline and the payload
	// pattern. Identical Options produce bit-identical runs.
	Seed int64
	// Transfers and Bytes shape the workload: Transfers sequential
	// writes of Bytes each, rotated over four destination slots.
	Transfers int
	Bytes     int
	// Gap paces the writer: a sleep between consecutive transfers so
	// the workload spans the fault window instead of finishing in the
	// few milliseconds of wire time before the first fault lands.
	Gap sim.Time
	// Script builds the fault timeline on the Runner before the
	// workload starts. Schedule faults at absolute times >= 1ms: the
	// connection handshake (which runs first) takes microseconds.
	Script func(r *Runner)
	// Horizon bounds the run in simulated time. A writer that has
	// neither finished nor failed by then is a stuck-op violation.
	Horizon sim.Time
	// Deadline, when non-zero, stamps every operation with an absolute
	// deadline now+Deadline; a Wait returning later than its deadline
	// is a violation.
	Deadline sim.Time
	// ExpectDeath marks scripts that legitimately kill the peer: the
	// workload may end early with ErrPeerDead and notification counts
	// are not required to match.
	ExpectDeath bool
}

// Result is what one soak run produced. All fields are comparable, so
// two Results from identical Options can be compared with == (minus
// Violations, which is a slice — compare after joining or check empty).
type Result struct {
	Completed    int  // transfers verified complete
	FailedOps    int  // operations that returned an error
	Notifies     int  // notifications delivered to the receiver
	DataOK       bool // every completed transfer arrived byte-identical
	PeerDead     bool // writer observed ErrPeerDead
	ReceiverDead bool // receiver-side connection reached Failed
	FailedAt     sim.Time
	EndedAt      sim.Time
	Report       cluster.NetReport
}

// Artifacts bundles the non-comparable products of one soak run —
// kept out of Result so Results stay ==-comparable across runs.
type Artifacts struct {
	Obs       *obs.Registry      // registry, nil unless Options.Config enabled one
	Recorders []*obs.Recorder    // per-node flight recorders (always attached)
	Faults    []obs.TimelineNote // the injected fault timeline
	Dump      *obs.PostMortem    // post-mortem, built only when invariants fired
}

// Run executes one soak: build the cluster, connect a pair, lay down
// the fault timeline, stream verified transfers, then collect the
// report and check invariants. It also returns the run's observability
// artifacts: the flight recorders (attached unconditionally — recording
// is pure observation and cannot perturb the run), the fault timeline,
// and, when any invariant fired, a cause-tagged post-mortem dump that
// interleaves the injected faults with the victim connections' last
// recorded events.
func Run(o Options) (Result, []Violation, *Artifacts) {
	cfg := o.Config
	cfg.Seed = o.Seed
	cfg.Obs.Recorder = true
	cl := cluster.New(cfg)
	defer cl.Close()
	c01, c10 := cl.Pair()
	r := New(cl, o.Seed*1000003+7)
	if o.Script != nil {
		o.Script(r)
	}

	res := Result{DataOK: true}
	var vs []Violation
	violate := func(name, format string, args ...interface{}) {
		vs = append(vs, Violation{Name: name, Detail: fmt.Sprintf(format, args...)})
	}

	const slots = 4
	src := cl.Nodes[0].EP.Alloc(o.Bytes)
	dsts := make([]uint64, slots)
	for i := range dsts {
		dsts[i] = cl.Nodes[1].EP.Alloc(o.Bytes)
	}
	mem0 := cl.Nodes[0].EP.Mem()
	mem1 := cl.Nodes[1].EP.Mem()
	pat := rand.New(rand.NewSource(o.Seed ^ 0x5eed))

	var writerDone bool
	cl.Env.Go("chaos-writer", func(p *sim.Proc) {
		defer func() { writerDone = true }()
		for i := 0; i < o.Transfers; i++ {
			if o.Gap > 0 && i > 0 {
				p.Sleep(o.Gap)
			}
			buf := mem0[src : src+uint64(o.Bytes)]
			for j := range buf {
				buf[j] = byte(pat.Intn(256))
			}
			dst := dsts[i%slots]
			op := core.Op{Remote: dst, Local: src, Size: o.Bytes,
				Kind: frame.OpWrite, Flags: frame.Notify}
			if o.Deadline > 0 {
				op.Deadline = cl.Env.Now() + o.Deadline
			}
			err := c01.Run(p, op)
			// The deadline timer releases the waiter, which then pays the
			// modeled scheduler wakeup latency before running again; allow
			// that much slack past the deadline, but no more.
			if o.Deadline > 0 && cl.Env.Now() > op.Deadline+50*sim.Microsecond {
				violate("op-past-deadline", "transfer %d released at %v, deadline %v",
					i, cl.Env.Now(), op.Deadline)
			}
			if err != nil {
				res.FailedOps++
				if errors.Is(err, core.ErrPeerDead) {
					res.PeerDead = true
					res.FailedAt = cl.Env.Now()
					return
				}
				if errors.Is(err, core.ErrDeadlineExceeded) {
					continue // waiter released; transfer may still land
				}
				violate("op-error", "transfer %d failed: %v", i, err)
				return
			}
			if !bytes.Equal(mem1[dst:dst+uint64(o.Bytes)], buf) {
				res.DataOK = false
				violate("data-integrity", "transfer %d corrupted at receiver", i)
			}
			res.Completed++
		}
	})
	cl.Env.Go("chaos-receiver", func(p *sim.Proc) {
		// Polling keeps the receiver from parking forever if the writer
		// dies before sending anything (WaitNotify unblocks on a failed
		// connection, but this side's conn only fails if it detects the
		// silence itself).
		for res.Notifies < o.Transfers && !c10.Failed() {
			if _, ok := c10.PollNotify(); ok {
				res.Notifies++
				continue
			}
			p.Sleep(200 * sim.Microsecond)
		}
	})

	res.EndedAt = cl.Env.RunUntil(o.Horizon)
	for {
		if _, ok := c10.PollNotify(); !ok {
			break
		}
		res.Notifies++
	}
	res.ReceiverDead = c10.Failed()

	if !writerDone {
		violate("stuck-op", "writer neither finished nor failed by horizon %v "+
			"(%d/%d transfers)", o.Horizon, res.Completed, o.Transfers)
	}
	if res.PeerDead && !o.ExpectDeath {
		violate("unexpected-death", "peer declared dead at %v: %v", res.FailedAt, c01.Err())
	}
	if !o.ExpectDeath && writerDone && res.FailedOps == 0 {
		// Exactly-once delivery: each completed notify-flagged write
		// must surface exactly one notification — none lost, none
		// applied twice.
		if res.Notifies != res.Completed {
			violate("notify-count", "%d notifications for %d completed transfers",
				res.Notifies, res.Completed)
		}
	}

	res.Report = cl.Collect()
	vs = append(vs, CheckReport(res.Report)...)

	art := &Artifacts{Obs: cl.Obs, Recorders: cl.Recorders}
	for _, ev := range r.Events {
		art.Faults = append(art.Faults, obs.TimelineNote{At: ev.At, Text: ev.What})
	}
	if len(vs) > 0 {
		art.Dump = obs.BuildPostMortem(vs[0].Name+": "+vs[0].Detail,
			res.EndedAt, art.Faults, cl.Recorders...)
	}
	return res, vs, art
}
