package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// A lifeStep is one lifecycle event of one end (0 the dialer, 1 the
// acceptor): Close, Abandon, or pausing or resuming the end's node. The
// peer sees an end's Close as a ConnClose and its Abandon as a Reset.
type lifeStep struct {
	end int
	act string
}

func (s lifeStep) String() string { return fmt.Sprintf("%d:%s", s.end, s.act) }

// lifeScripts are the sequences one end may run: each event at most
// once, a resume only after a pause, at most two events.
var lifeScripts = [][]string{
	{}, {"Close"}, {"Abandon"}, {"pause"},
	{"Close", "Abandon"}, {"Abandon", "Close"}, {"Close", "pause"}, {"pause", "Close"},
	{"Abandon", "pause"}, {"pause", "Abandon"}, {"pause", "resume"},
}

// lifeGrid is when the i-th event of a schedule runs, after lifeBase:
// two within a round trip of each other, one past DeadInterval, one past
// the first handshake retry.
var lifeGrid = [...]sim.Time{0, 5 * sim.Microsecond, 1200 * sim.Microsecond, 6 * sim.Millisecond}

const lifeBase = 100 * sim.Microsecond

// lifeHorizon outlasts every bounded exit: a passive reconnect wait, a
// handshake's retry budget, the late ConnAck.
const lifeHorizon = 400 * sim.Millisecond

// lifeSchedules interleaves every pair of scripts in every order.
func lifeSchedules() [][]lifeStep {
	var out [][]lifeStep
	var merge func(a, b []string, acc []lifeStep)
	merge = func(a, b []string, acc []lifeStep) {
		if len(a) == 0 && len(b) == 0 {
			out = append(out, append([]lifeStep(nil), acc...))
			return
		}
		if len(a) > 0 {
			merge(a[1:], b, append(acc, lifeStep{0, a[0]}))
		}
		if len(b) > 0 {
			merge(a, b[1:], append(acc, lifeStep{1, b[0]}))
		}
	}
	for _, a := range lifeScripts {
		for _, b := range lifeScripts {
			merge(a, b, nil)
		}
	}
	return out
}

// lifeWork is the work both ends issue as soon as they hold their conn;
// run returns every answer it waited for, nil for a success.
type lifeWork struct {
	name string
	run  func(p *sim.Proc, c *core.Conn, buf uint64) []error
}

var lifeWorks = []lifeWork{
	{"none", func(*sim.Proc, *core.Conn, uint64) []error { return nil }},
	{"write", func(p *sim.Proc, c *core.Conn, buf uint64) []error {
		return lifeWait(p, c, core.Op{Remote: buf, Local: buf, Size: 64 << 10, Kind: frame.OpWrite})
	}},
	{"read", func(p *sim.Proc, c *core.Conn, buf uint64) []error {
		return lifeWait(p, c, core.Op{Remote: buf, Local: buf + 64<<10, Size: 64 << 10, Kind: frame.OpRead})
	}},
	{"ring", func(p *sim.Proc, c *core.Conn, buf uint64) []error { return lifeRing(p, c, buf, 0) }},
	{"late ring", func(p *sim.Proc, c *core.Conn, buf uint64) []error {
		return lifeRing(p, c, buf, lifeGrid[2])
	}},
	{"notify", func(p *sim.Proc, c *core.Conn, buf uint64) []error {
		errs := lifeWait(p, c, core.Op{Remote: buf, Local: buf, Size: 64, Kind: frame.OpWrite, Flags: frame.Notify})
		if n := c.WaitNotify(p); n.Len < 0 {
			errs = append(errs, lifeSentinel(c))
		}
		return errs
	}},
}

func lifeWait(p *sim.Proc, c *core.Conn, op core.Op) []error {
	h, err := c.Do(p, op)
	if err != nil {
		return []error{err}
	}
	h.Wait(p)
	return []error{h.Err()}
}

// lifeRing posts two coalescing writes and a 4 KiB one and rings them
// after delay.
func lifeRing(p *sim.Proc, c *core.Conn, buf uint64, delay sim.Time) []error {
	var errs []error
	posted := 0
	for _, size := range []int{64, 64, 4096} {
		if err := c.Post(core.Op{Remote: buf + uint64(posted)*4096, Local: buf, Size: size, Kind: frame.OpWrite}); err != nil {
			errs = append(errs, err)
			continue
		}
		posted++
	}
	p.Sleep(delay)
	if _, err := c.Ring(p); err != nil {
		errs = append(errs, err)
	}
	for range posted {
		errs = append(errs, c.WaitCQ(p).Err)
	}
	return errs
}

// lifeSentinel is what every answer a conn owes must wrap once it ended.
func lifeSentinel(c *core.Conn) error {
	if c.Err() != nil {
		return core.ErrPeerDead
	}
	return core.ErrClosed
}

// lifeVariant is everything but the schedule: the work, Config.Reconnect,
// MaxRetries, and whether node 1's frames reach node 0 only after the
// dial gave up.
type lifeVariant struct {
	work       *lifeWork
	reconnect  bool
	maxRetries int
	lateAck    bool
}

func (v lifeVariant) String() string {
	return fmt.Sprintf("work=%s reconnect=%v maxRetries=%d lateAck=%v", v.work.name, v.reconnect, v.maxRetries, v.lateAck)
}

// lifeReach records which concurrent exits a run reached.
type lifeReach struct {
	closeRace    bool // a local Close's handshake met the peer's ConnClose
	lateConnAck  bool // a ConnAck arrived after the dial gave up
	reconnDrain  bool // a reconnect began while Close drained
	pauseClosing bool // a pause or resume landed during a close handshake
}

// lifeEnd is what one end's processes left behind.
type lifeEnd struct {
	c        *core.Conn
	answers  []error
	worked   bool       // the work returned
	closes   []sim.Time // when each Close was called; -1 once it returned
	closedAt sim.Time   // when the first Close returned
}

// exploreLife runs one schedule and returns a description of every
// broken promise, and the cases it reached.
func exploreLife(v lifeVariant, sched []lifeStep) (problems []string, reach lifeReach) {
	cfg := cluster.OneLink1G(2)
	cfg.Core.SchedQueue = true
	cfg.Core.QoS = []core.QoSClass{{Weight: 1, MaxQueued: 3}}
	cfg.Core.CoalesceLimit = 256
	cfg.Core.HeartbeatInterval = 200 * sim.Microsecond
	cfg.Core.DeadInterval = sim.Millisecond
	cfg.Core.Reconnect = v.reconnect
	cfg.Core.MaxReconnects = 3
	cfg.Core.MaxRetries = v.maxRetries
	cl := cluster.New(cfg)
	defer cl.Close()
	env := cl.Env
	var recs [2]*obs.Recorder
	var buf uint64 // each node's region, at the same address
	for i := range recs {
		recs[i] = obs.NewRecorder(i, 256, 1<<obs.EvClosed|1<<obs.EvReconnect)
		cl.Nodes[i].EP.SetRecorder(recs[i])
		buf = cl.Nodes[i].EP.Alloc(256 << 10)
	}
	const lateBy = 4*core.ConnRetryForTest + sim.Millisecond
	var ackSent []sim.Time
	if v.lateAck {
		cl.Nodes[1].NICs[0].OutPort().SetMangler(func(f *phys.Frame) phys.Mangle {
			if typ, _ := decodeType(f); typ == frame.TypeConnAck {
				ackSent = append(ackSent, env.Now())
			}
			return phys.Mangle{Delay: lateBy}
		})
	}
	var ends [2]lifeEnd
	dialed, accepted := sim.Time(-1), false
	work := func(e *lifeEnd, c *core.Conn) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			e.answers = v.work.run(p, c, buf)
			e.worked = true
		}
	}
	env.Go("dial", func(p *sim.Proc) {
		c := cl.Nodes[0].EP.Dial(p, 1, 0)
		ends[0].c, dialed = c, env.Now()
		work(&ends[0], c)(p)
	})
	env.Go("accept", func(p *sim.Proc) {
		c := cl.Nodes[1].EP.Accept(p)
		ends[1].c, accepted = c, true
		work(&ends[1], c)(p)
	})
	paused := [2]bool{}
	for i, st := range sched {
		env.At(lifeBase+lifeGrid[i], func() {
			e := &ends[st.end]
			if e.c == nil { // the dial is still running
				e.c = cl.Nodes[st.end].EP.ConnsForTest()[0]
			}
			switch st.act {
			case "Close":
				k := len(e.closes)
				e.closes = append(e.closes, env.Now())
				env.Go("close", func(p *sim.Proc) {
					e.c.Close(p)
					if k == 0 {
						e.closedAt = env.Now()
					}
					e.closes[k] = -1
				})
			case "Abandon":
				e.c.Abandon()
			case "pause", "resume":
				for _, o := range ends {
					if o.c != nil && o.c.State() == core.Closing {
						reach.pauseClosing = true
					}
				}
				if paused[st.end] = st.act == "pause"; paused[st.end] {
					cl.PauseNode(st.end)
				} else {
					cl.ResumeNode(st.end)
				}
			}
		})
	}
	if v.maxRetries == 0 {
		// Without a retry budget only a peer that comes back can answer a
		// handshake: heal every partition once the schedule has run.
		env.At(lifeBase+2*lifeGrid[3], func() {
			for n, p := range paused {
				if p {
					cl.ResumeNode(n)
				}
			}
		})
	}
	env.RunUntil(lifeHorizon)

	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if dialed < 0 || !accepted {
		fail("Dial or Accept never returned (dialed=%v accepted=%v)", dialed >= 0, accepted)
		return problems, reach
	}
	both := true
	for i := range ends {
		e := &ends[i]
		ended := e.c.State() == core.Ended
		both = both && ended
		if !e.worked {
			fail("end %d: the %s waiter never returned (conn %v)", i, v.work.name, e.c.State())
		}
		for _, at := range e.closes {
			if at >= 0 {
				fail("end %d: the Close called at %v never returned (conn %v)", i, at, e.c.State())
			}
		}
		for _, err := range e.answers {
			if err != nil && (!ended || !errors.Is(err, lifeSentinel(e.c))) {
				fail("end %d (conn %v, err %v): answer %v", i, e.c.State(), e.c.Err(), err)
			}
		}
		if ended {
			if armed := e.c.ArmedTimersForTest(); len(armed) > 0 {
				fail("end %d: ended with %v armed", i, armed)
			}
		}
		if ops, b := cl.Nodes[i].EP.QosPendingForTest(0); ops != 0 || b != 0 {
			fail("node %d: the class quota still holds %d ops / %d B", i, ops, b)
		}
		for _, ev := range recs[i].Events() {
			if ev.Kind == obs.EvClosed && ev.A == 1 && localClose(recs[i], ev) {
				reach.closeRace = true
			}
			if ev.Kind == obs.EvReconnect && len(e.closes) > 0 && ev.At >= e.closes[0] &&
				(e.closedAt == 0 || ev.At < e.closedAt) && !localCloseBefore(recs[i], ev.At) {
				reach.reconnDrain = true
			}
		}
	}
	if both {
		if n := cl.Nodes[0].EP.ActiveConns() + cl.Nodes[1].EP.ActiveConns(); n != 0 {
			fail("both ends ended, %d conns still tabled", n)
		}
	}
	if n := env.Procs(); n != 0 {
		fail("%d processes still parked", n)
	}
	if c := ends[0].c; c.Err() != nil && strings.Contains(c.Err().Error(), "no answer") {
		for _, at := range ackSent {
			reach.lateConnAck = reach.lateConnAck || at+lateBy > dialed
		}
	}
	return problems, reach
}

// localClose reports whether the conn of peer-close event pc had started
// its own close handshake first.
func localClose(r *obs.Recorder, pc obs.Event) bool {
	for _, ev := range r.Events() {
		if ev.Kind == obs.EvClosed && ev.A == 0 && ev.Conn == pc.Conn && ev.At <= pc.At {
			return true
		}
	}
	return false
}

// localCloseBefore reports whether a local close handshake started
// before at.
func localCloseBefore(r *obs.Recorder, at sim.Time) bool {
	for _, ev := range r.Events() {
		if ev.Kind == obs.EvClosed && ev.A == 0 && ev.At <= at {
			return true
		}
	}
	return false
}

// TestLifecycleExplorer runs every interleaving of up to two lifecycle
// events per end (so each end meets up to four: its own and its peer's
// ConnClose or Reset), on lifeGrid, against every kind of outstanding
// work, with Config.Reconnect off and on and MaxRetries 0 and 3, and a
// variant whose dial gives up just before its ConnAck arrives. After
// every run: each waiter — Dial, Accept, every Close, the work — has
// returned, and every error wraps the sentinel of how its conn ended;
// no timer is armed on an ended conn; the class quota is 0; no conn is
// tabled once both ends ended; no process is parked. It also asserts
// that the four concurrent exits were reached. With -short it runs a
// fixed slice of the schedules.
func TestLifecycleExplorer(t *testing.T) {
	scheds := lifeSchedules()
	var variants []lifeVariant
	for i := range lifeWorks {
		for _, rec := range []bool{false, true} {
			variants = append(variants,
				lifeVariant{&lifeWorks[i], rec, 0, false},
				lifeVariant{&lifeWorks[i], rec, 3, false},
				lifeVariant{&lifeWorks[i], rec, 3, true})
		}
	}
	stride := 1
	if testing.Short() {
		stride = 17
	}
	var reached lifeReach
	runs, failures := 0, 0
	for k := 0; k < len(variants)*len(scheds); k += stride {
		v, sched := variants[k%len(variants)], scheds[k/len(variants)]
		problems, r := exploreLife(v, sched)
		runs++
		reached.closeRace = reached.closeRace || r.closeRace
		reached.lateConnAck = reached.lateConnAck || r.lateConnAck
		reached.reconnDrain = reached.reconnDrain || r.reconnDrain
		reached.pauseClosing = reached.pauseClosing || r.pauseClosing
		if len(problems) > 0 {
			if failures++; failures <= 10 {
				t.Errorf("%v, schedule %v:\n\t%s", v, sched, strings.Join(problems, "\n\t"))
			}
		}
	}
	t.Logf("%d schedules, %d failed; reached %+v", runs, failures, reached)
	if !testing.Short() && runs < 10000 {
		t.Errorf("only %d schedules", runs)
	}
	for name, ok := range map[string]bool{
		"a local Close racing the peer's ConnClose":  reached.closeRace,
		"the dial give-up racing a late ConnAck":     reached.lateConnAck,
		"a reconnect beginning while Close drains":   reached.reconnDrain,
		"a pause or resume during a close handshake": reached.pauseClosing,
	} {
		if !ok {
			t.Errorf("never reached %s", name)
		}
	}
}
