package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// laneStep is what one firing, or one top-level step, of a lane program
// observes.
type laneStep struct {
	now      Time
	id       int // the arming that fired; -1 for a top-level step
	executed uint64
	pending  int
	live     int
	idle     bool
}

// laneCoverage counts the corner cases the random programs are meant to
// reach, summed over all seeds.
type laneCoverage struct {
	fallback   int // a record below its lane's last time went to the heap
	ownRefill  int // a callback refilled the lane it had just emptied
	grown      int // a lane's ring doubled
	headsTied  int // a record became head of its lane at another head's time
	zeroDelay  int // a record was queued for the current instant
	stopped    int // a Timer was stopped while lanes had records queued
	daemonLeft int // Run returned with only daemon events left
}

// laneProgram is a seeded random program over a few FIFO sources and
// plain timers. It runs against an Env twice: with the sources
// scheduling through lanes, and with every Lane.Sched* replaced by the
// Env's. What it does next is drawn from rng inside callbacks too, so
// the two runs stay the same program only as long as everything fires in
// the same order.
type laneProgram struct {
	t      *testing.T
	rng    *rand.Rand
	env    *Env
	lanes  []*Lane // nil: sources schedule on the Env
	cur    []Time  // per source: the latest time it has scheduled for
	timers []*Timer
	budget int // schedules left; keeps callback chains finite
	nextID int
	trace  []laneStep
	cov    *laneCoverage
}

const laneSources = 3

var laneDelays = []Time{0, 0, 0, 1, 1, 2, 3, 7, 40}

func (p *laneProgram) observe(id int) {
	e := p.env
	p.trace = append(p.trace, laneStep{e.Now(), id, e.Executed(), e.PendingEvents(), e.PendingLive(), e.Idle()})
}

// fired is the callback of every arming; src is the source it was
// scheduled through, -1 for a plain timer.
func (p *laneProgram) fired(id, src int) {
	p.observe(id)
	emptied := src >= 0 && p.lanes != nil && p.lanes[src].n == 0
	for k := p.rng.Intn(4); k > 0 && p.budget > 0; k-- {
		switch c := p.rng.Intn(10); {
		case c < 4 && src >= 0: // its own source
			if p.schedSource(src) && emptied {
				p.cov.ownRefill++
				emptied = false
			}
		case c < 7:
			p.schedSource(p.rng.Intn(laneSources))
		default:
			p.timerOp()
		}
	}
}

type laneArg struct{ id, src int }

func (p *laneProgram) firedArg(a any) { p.fired(a.(*laneArg).id, a.(*laneArg).src) }

// schedSource queues one completion on source s: usually behind what
// the source has queued, as a FIFO server would, sometimes at or near
// the current instant, which a lane has to notice is out of order. It
// reports whether the record went into the lane's ring.
func (p *laneProgram) schedSource(s int) (inRing bool) {
	e := p.env
	var at Time
	switch p.rng.Intn(8) {
	case 0:
		at = e.Now()
	case 1:
		at = e.Now() + Time(p.rng.Intn(4))
	default:
		at = max(p.cur[s], e.Now()) + laneDelays[p.rng.Intn(len(laneDelays))]
	}
	p.cur[s] = max(p.cur[s], at)
	id := p.nextID
	p.nextID++
	p.budget--
	plain := p.rng.Intn(2) == 0 // SchedAt or SchedAtArg
	fn := func() { p.fired(id, s) }
	arg := &laneArg{id, s}
	if p.lanes == nil {
		if plain {
			e.SchedAt(at, fn)
		} else {
			e.SchedAtArg(at, p.firedArg, arg)
		}
		return false
	}
	l := p.lanes[s]
	inRing = at >= l.last
	switch {
	case !inRing:
		p.cov.fallback++
	case l.n == 0:
		for _, o := range p.lanes {
			if o.n > 0 && o.recs[o.head].at == at {
				p.cov.headsTied++
			}
		}
	}
	if inRing && at == e.Now() {
		p.cov.zeroDelay++
	}
	size := len(l.recs)
	if plain { // a closure, as Env.SchedAt queues it
		l.SchedAtArg(at, callFunc, fn)
	} else {
		l.SchedAtArg(at, p.firedArg, arg)
	}
	if len(l.recs) > size {
		p.cov.grown++
	}
	return inRing
}

// timerOp arms, re-arms or stops a plain timer: the heap entries a
// lane's own entry has to keep its place among.
func (p *laneProgram) timerOp() {
	e := p.env
	d := laneDelays[p.rng.Intn(len(laneDelays))]
	id := p.nextID
	p.nextID++
	p.budget--
	fn := func() { p.fired(id, -1) }
	switch c := p.rng.Intn(8); {
	case c < 3 || len(p.timers) == 0:
		p.timers = append(p.timers, e.After(d, fn))
	case c < 4:
		p.timers = append(p.timers, e.Rearm(Daemon(nil), 100+d, fn)) // outlives most live work
	case c < 6:
		i := p.rng.Intn(len(p.timers))
		p.timers[i] = e.Rearm(p.timers[i], d, fn)
	default:
		if p.timers[p.rng.Intn(len(p.timers))].Stop() && e.queued > 0 {
			p.cov.stopped++
		}
	}
}

// checkLanes verifies what ties the lanes to the heap: every entry knows
// its index, a lane with records has its own entry there under its head
// record's key and an empty lane has none, and queued counts the rest.
func (p *laneProgram) checkLanes() {
	e := p.env
	if err := checkTiers(e); err != nil {
		p.t.Fatal(err)
	}
	queued := 0
	for i, l := range p.lanes {
		in := e.queuedAt(&l.rep)
		if in != (l.n > 0) {
			p.t.Fatalf("lane %d holds %d records; its entry in the heap: %v", i, l.n, in)
		}
		if l.n == 0 {
			continue
		}
		queued += l.n - 1
		if h, r := e.events[l.rep.index], l.recs[l.head]; h.at != r.at || h.seq != r.seq {
			p.t.Fatalf("lane %d: entry keyed (%v, %d), head record (%v, %d)", i, h.at, h.seq, r.at, r.seq)
		}
		for k := 1; k < l.n; k++ {
			a, b := l.recs[(l.head+k-1)&(len(l.recs)-1)], l.recs[(l.head+k)&(len(l.recs)-1)]
			if b.at < a.at || b.seq <= a.seq {
				p.t.Fatalf("lane %d: record %d (%v, %d) behind (%v, %d)", i, k, b.at, b.seq, a.at, a.seq)
			}
		}
	}
	if e.queued != queued {
		p.t.Fatalf("Env.queued = %d; lanes hold %d records behind their heads", e.queued, queued)
	}
}

func runLaneProgram(t *testing.T, seed int64, lanes bool, cov *laneCoverage) []laneStep {
	p := &laneProgram{t: t, rng: rand.New(rand.NewSource(seed)), env: NewEnv(seed),
		cur: make([]Time, laneSources), budget: 120, cov: cov}
	e := p.env
	defer e.Close()
	if lanes {
		for range laneSources {
			p.lanes = append(p.lanes, e.NewLane())
		}
	}
	for p.budget > 0 {
		switch c := p.rng.Intn(12); {
		case c < 6:
			p.schedSource(p.rng.Intn(laneSources))
		case c < 8:
			p.timerOp()
		case c < 11:
			e.RunUntil(e.Now() + laneDelays[p.rng.Intn(len(laneDelays))])
		default:
			e.Run()
			if e.PendingLive() == 0 && !e.Idle() {
				p.cov.daemonLeft++
			}
		}
		p.observe(-1)
		p.checkLanes()
	}
	e.RunUntil(e.Now() + Second) // daemon events too
	p.observe(-1)
	p.checkLanes()
	if !e.Idle() || e.PendingEvents() != 0 || e.PendingLive() != 0 {
		t.Fatalf("seed %d lanes=%v: drained, yet %d pending, %d live", seed, lanes, e.PendingEvents(), e.PendingLive())
	}
	return p.trace
}

// TestLaneAgainstPlainHeap is the proof that a lane is a container and
// nothing else: seeded random programs — several FIFO sources and plain
// and daemon timers armed, re-armed and stopped interleaved, equal timestamps, zero
// delays, callbacks that schedule onto their own and other sources,
// times below a source's last that must take the fallback — run once
// through lanes and once with every Lane.Sched* replaced by Env.Sched*,
// and every firing and every step must observe the same clock, the same
// arming, and the same Executed, PendingEvents, PendingLive and Idle.
func TestLaneAgainstPlainHeap(t *testing.T) {
	const programs = 1500
	var cov, none laneCoverage
	for seed := int64(1); seed <= programs; seed++ {
		want := runLaneProgram(t, seed, false, &none)
		got := runLaneProgram(t, seed, true, &cov)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d, observation %d: lanes %+v, plain heap %+v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d observations with lanes, %d on the plain heap", seed, len(got), len(want))
		}
	}
	if none != (laneCoverage{daemonLeft: none.daemonLeft}) {
		t.Fatalf("the plain runs touched lanes: %+v", none)
	}
	for name, n := range map[string]int{
		"fallback taken": cov.fallback, "lane refilled from its own callback": cov.ownRefill,
		"ring growth": cov.grown, "two lanes tied on at": cov.headsTied, "zero delay": cov.zeroDelay,
		"Stop beside queued records": cov.stopped, "Run ends on daemon events": cov.daemonLeft,
	} {
		if n < programs/20 {
			t.Errorf("corner case %q reached %d times in %d programs", name, n, programs)
		}
	}
}

// TestLanePendingAndClose pins what the leak gates and Close rely on:
// the pending counters count every queued record, not heap entries, and
// Close drops the records with everything else.
func TestLanePendingAndClose(t *testing.T) {
	e := NewEnv(1)
	a, b := e.NewLane(), e.NewLane()
	ran := 0
	count := func(any) { ran++ }
	held := new(int) // an argument Close must let go of
	for i := 1; i <= 5; i++ {
		a.SchedAtArg(Time(10*i), count, held)
	}
	b.SchedAtArg(20, count, nil)
	a.SchedAtArg(15, count, held) // below a's last: an ordinary event
	tm := e.After(35, func() { ran++ })
	e.Rearm(Daemon(nil), 1000, func() { ran++ })
	check := func(when string, pending, live, heap int) {
		t.Helper()
		if e.PendingEvents() != pending || e.PendingLive() != live || len(e.events) != heap || e.Idle() != (pending == 0) {
			t.Fatalf("%s: pending=%d live=%d heap=%d idle=%v, want %d %d %d", when,
				e.PendingEvents(), e.PendingLive(), len(e.events), e.Idle(), pending, live, heap)
		}
	}
	check("queued", 9, 8, 5) // the heap: one entry per lane, the fallback, two timers
	e.RunUntil(20)           // a@10, the fallback@15, a@20, b@20
	if ran != 4 || e.Executed() != 4 {
		t.Fatalf("ran %d, executed %d by t=20, want 4", ran, e.Executed())
	}
	check("part way", 5, 4, 3) // b is empty and out of the heap
	b.SchedAtArg(20, count, nil)
	check("refilled", 6, 5, 4)

	e.Close()
	check("closed", 0, 0, 0)
	if tm.Pending() || tm.Stop() {
		t.Fatal("a Timer survived Close")
	}
	for _, l := range []*Lane{a, b} {
		if l.n != 0 || slices.ContainsFunc(l.recs, func(r laneRec) bool { return r.fn != nil || r.arg != nil }) {
			t.Fatalf("Close left records in a lane: n=%d %+v", l.n, l.recs)
		}
	}
	if len(e.lanes) != 0 {
		t.Fatalf("Close kept %d lanes", len(e.lanes))
	}
	e.Close() // idempotent
	if ran != 4 || e.Executed() != 4 {
		t.Fatalf("Close ran something: ran %d, executed %d", ran, e.Executed())
	}
	for name, sched := range map[string]func(){
		"Lane.SchedAtArg": func() { b.SchedAtArg(100, count, nil) },
		"Env.NewLane":     func() { e.NewLane() },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "closed Env") {
					t.Fatalf("%s after Close: recovered %v, want a closed-Env panic", name, r)
				}
			}()
			sched()
		}()
	}
}

// BenchmarkLaneDispatch is the cost of one completion of a FIFO server
// with 128 jobs always queued, through a lane and on the plain heap,
// with 64 k timers pending behind as in BenchmarkEventDispatchDeep.
func BenchmarkLaneDispatch(b *testing.B) {
	for _, mode := range []string{"lane", "heap"} {
		b.Run(mode, func(b *testing.B) {
			e := NewEnv(1)
			for i := range 1 << 16 {
				e.SchedAt(Time(1<<40)+Time(i), nop)
			}
			sched := e.SchedAtArg
			if mode == "lane" {
				sched = e.NewLane().SchedAtArg
			}
			const depth = 128
			n := 0
			var done func(any)
			done = func(any) {
				if n++; n+depth <= b.N {
					sched(e.Now()+depth, done, nil)
				}
			}
			for i := 1; i <= min(depth, b.N); i++ {
				sched(Time(i), done, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.RunUntil(Time(b.N))
			if n != b.N {
				b.Fatalf("%d completions, want %d", n, b.N)
			}
		})
	}
}

// On moves a resource's lane from the first submission that carries a
// callback to the moment the resource is bound: what is built with the
// universe is not charged to whichever phase first waits on it.
func TestResourceOnMakesTheLaneAtBuildTime(t *testing.T) {
	e := NewEnv(1)
	lazy := NewResource("lazy")
	if len(e.lanes) != 0 {
		t.Fatalf("an unbound resource made %d lanes", len(e.lanes))
	}
	bound := NewResource("bound").On(e)
	if len(e.lanes) != 1 || bound.lane == nil || bound.lane.env != e {
		t.Fatalf("On made %d lanes, lane %v", len(e.lanes), bound.lane)
	}
	if bound.On(e) != bound || len(e.lanes) != 1 {
		t.Fatalf("a second On made a second lane (%d)", len(e.lanes))
	}
	var order []string
	bound.Submit(e, 5, func(any) { order = append(order, "bound") }, nil)
	if len(e.lanes) != 1 {
		t.Fatalf("a submission on a bound resource made a lane (%d)", len(e.lanes))
	}
	lazy.Submit(e, 7, func(any) { order = append(order, "lazy") }, nil)
	if len(e.lanes) != 2 {
		t.Fatalf("the unbound resource has no lane after its first callback (%d)", len(e.lanes))
	}
	if hot, later, lane := e.QueueDepth(); hot != 2 || later != 0 || lane != 0 {
		t.Fatalf("QueueDepth = %d, %d, %d, want the two lane heads in the hot heap", hot, later, lane)
	}
	e.Run()
	if e.Now() != 7 || strings.Join(order, ",") != "bound,lazy" {
		t.Fatalf("ran %v by %v", order, e.Now())
	}
	// Bound to another universe, the resource takes its lane there.
	e2 := NewEnv(2)
	if bound.On(e2); len(e2.lanes) != 1 || bound.lane.env != e2 {
		t.Fatalf("rebinding made %d lanes on the new Env", len(e2.lanes))
	}
}
