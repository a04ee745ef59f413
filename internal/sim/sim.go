// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock (nanosecond resolution) through a
// priority queue of events. Two execution styles coexist:
//
//   - Event-driven: callbacks scheduled with At/After run inside the
//     scheduler. Protocol state machines use this style.
//   - Process-driven: functions spawned with Go run as coroutines, one
//     at a time, and block on Sleep, Signal.Wait, Mailbox.Recv or Exec.
//     The event that wakes a process switches to it directly and back
//     when it blocks. Applications and benchmarks use this style.
//
// Exactly one entity (the scheduler or a single process) runs at any
// instant, so simulation state never needs locking, and runs with equal
// seeds are bit-for-bit reproducible. A process nobody wakes again stays
// parked until Close, which whoever creates an Env calls when done.
//
// Hot-path allocation model: event records are recycled through a
// per-Env freelist and the priority queue is a concrete 4-ary heap
// whose entries carry the (at, seq) key beside the record pointer, so
// ordering compares never touch an event. The queue holds exactly the
// pending events: Stop removes its event at once through the heap index
// the record tracks and recycles the record, and Rearm of a
// still-pending handle re-keys that record in place, so a timer that is
// re-armed a thousand times before it fires occupies one heap entry
// throughout and allocates nothing. Schedulers that do not need a
// cancel handle use the SchedAt/SchedAfter family, which allocates
// nothing in steady state; the Arg variants additionally avoid the
// per-call closure by passing a single pointer-shaped argument to a
// long-lived func(any). At/After return a *Timer handle (one small
// allocation).
//
// The queue has two tiers of the same heap type. What is scheduled less
// than tierHorizon ahead — wake-ups, interrupts, and every Lane entry —
// goes to the hot heap; sleeps and timers go to later, where most of
// them are stopped or re-armed before they fire. Each event keeps its
// (at, seq) key wherever it waits and run takes the smaller of the two
// tops, so the order of execution does not depend on the split; the hot
// heap is only as deep as what is about to happen.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Convenient duration units expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a time with an adaptive unit, e.g. "12.5us".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is one scheduled callback. Its (at, seq) key lives in the heap
// entry that points at it. Events are recycled through the Env
// freelist the moment they leave the heap; gen increments on every
// recycle so a stale *Timer handle from a previous life can never
// cancel the new occupant.
type event struct {
	fn     func()
	fnArg  func(any) // set instead of fn by the Arg variants
	arg    any
	daemon bool // does not keep Run alive (see AfterDaemon)
	far    bool // pending in Env.later, not Env.events
	index  int  // position in its heap while pending
	gen    uint64
	lane   *Lane // set on a lane's own entry, which stands for its head record
}

// heapEntry is one slot of the event queue: the ordering key stored
// inline, so sifting compares without dereferencing ev.
type heapEntry struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal-time events
	ev  *event
}

func (a *heapEntry) before(b *heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). seq is unique,
// so the order is total and pop order does not depend on heap shape.
// Sifting moves a hole instead of swapping: the entry being placed is
// written once, at its final position.
type eventHeap []heapEntry

const heapArity = 4

// up places x at i or above, shifting larger ancestors down.
func (h eventHeap) up(i int, x heapEntry) {
	for i > 0 {
		p := (i - 1) / heapArity
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = x
	x.ev.index = i
}

// down places x at i or below, shifting the smallest child up.
func (h eventHeap) down(i int, x heapEntry) {
	n := len(h)
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+heapArity, n); j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = x
	x.ev.index = i
}

// place puts x into the vacated slot i, sifting whichever way restores
// the heap order.
func (h eventHeap) place(i int, x heapEntry) {
	if i > 0 && x.before(&h[(i-1)/heapArity]) {
		h.up(i, x)
	} else {
		h.down(i, x)
	}
}

func (h *eventHeap) push(x heapEntry) {
	*h = append(*h, x)
	h.up(len(*h)-1, x)
}

// remove deletes the entry at i, refilling the slot with the last one.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	last := old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if i < n {
		old[:n].place(i, last)
	}
}

// tierHorizon splits the queue: an event scheduled at least this far
// ahead waits in Env.later. Outside lanes, scheduling distances are
// bimodal — under 2 us (wake-ups, interrupts) or over 128 us (think
// time, RTO, delayed-ACK and heartbeat timers; DESIGN.md §5.7) — so any
// value in between gives the same split.
const tierHorizon = 64 * Microsecond

// tier returns the heap ev is pending in.
func (e *Env) tier(ev *event) *eventHeap {
	if ev.far {
		return &e.later
	}
	return &e.events
}

// enqueue puts a new entry into the tier its distance from now selects.
func (e *Env) enqueue(x heapEntry) {
	x.ev.far = x.at-e.now >= tierHorizon
	e.tier(x.ev).push(x)
}

// Env is one simulation universe: a clock, an event queue, and a seeded
// random number generator. Create with NewEnv; drive with Run or RunUntil.
type Env struct {
	now    Time
	seq    uint64
	events eventHeap // hot tier: lane entries and what was scheduled < tierHorizon ahead
	later  eventHeap // everything scheduled further ahead
	free   []*event  // recycled event records
	live   int       // pending non-daemon events
	lanes  []*Lane
	queued int // lane records waiting behind their lane's head
	rng    *rand.Rand

	procs    Proc // sentinel of the ring of live processes; older is the newest
	running  bool // inside Run or RunUntil
	closed   bool
	stopped  bool
	onStop   []func() // run by Stop
	executed uint64
}

// NewEnv creates a simulation environment whose random number generator is
// seeded with seed. Equal seeds yield identical simulations.
func NewEnv(seed int64) *Env {
	e := &Env{rng: rand.New(rand.NewSource(seed))}
	e.procs.older, e.procs.newer = &e.procs, &e.procs
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random number generator.
// It must only be used from inside the simulation (events or processes).
func (e *Env) Rand() *rand.Rand { return e.rng }

// Executed reports how many events have executed so far.
func (e *Env) Executed() uint64 { return e.executed }

func (e *Env) getEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	// Close leaves the freelist empty for good: checked off the hot path.
	if e.closed {
		panic("sim: event scheduled on a closed Env")
	}
	return &event{}
}

// putEvent recycles an event that has left the heap. The generation
// bump invalidates every Timer handle pointing at the old life.
func (e *Env) putEvent(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// Timer identifies a scheduled event and allows canceling it. The
// handle stays valid forever: once the event has fired (or been
// stopped) the underlying record may be recycled for a later schedule,
// and the generation snapshot makes Stop/Pending on the stale handle a
// no-op rather than a misfire against the new occupant.
type Timer struct {
	env *Env
	ev  *event
	gen uint64
}

// valid reports whether the handle still refers to the life of the
// event it was created for. A record's generation moves on the moment
// it fires or is stopped, so a valid handle is exactly a pending one.
func (t *Timer) valid() bool {
	return t != nil && t.ev != nil && t.gen == t.ev.gen
}

// Stop cancels the timer's pending event, removing it from the queue.
// Stopping an already-fired or already-stopped timer is a no-op. It
// reports whether the event was still pending.
func (t *Timer) Stop() bool {
	if !t.valid() {
		return false
	}
	e, ev := t.env, t.ev
	if !ev.daemon {
		e.live--
	}
	e.tier(ev).remove(ev.index)
	e.putEvent(ev)
	return true
}

// Pending reports whether the timer's event has neither fired nor been
// stopped.
func (t *Timer) Pending() bool { return t.valid() }

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past panics: events must never move the clock backwards.
func (e *Env) At(at Time, fn func()) *Timer {
	ev := e.scheduleEvent(at, fn, nil, nil, false)
	return &Timer{env: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Env) After(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.At(e.now+d, fn)
}

// SchedAt schedules fn at absolute time at without returning a cancel
// handle. It allocates nothing in steady state; hot paths that never
// stop their events use this instead of At.
func (e *Env) SchedAt(at Time, fn func()) { e.scheduleEvent(at, fn, nil, nil, false) }

// SchedAfter schedules fn d nanoseconds from now without returning a
// cancel handle. Negative d panics.
func (e *Env) SchedAfter(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.scheduleEvent(e.now+d, fn, nil, nil, false)
}

// SchedAtArg schedules fn(arg) at absolute time at without returning a
// cancel handle. With a long-lived fn and a pointer-shaped arg the call
// performs no allocation at all — this is the zero-alloc replacement
// for scheduling a fresh capturing closure per frame.
func (e *Env) SchedAtArg(at Time, fn func(any), arg any) { e.scheduleEvent(at, nil, fn, arg, false) }

// SchedAfterArg schedules fn(arg) d nanoseconds from now without
// returning a cancel handle. Negative d panics.
func (e *Env) SchedAfterArg(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.scheduleEvent(e.now+d, nil, fn, arg, false)
}

// Rearm schedules fn to run d nanoseconds from now, reusing t as the
// cancel handle. A still-pending previous event is re-keyed in place
// (new time, fresh sequence number, one sift); otherwise the handle is
// re-pointed at a newly scheduled event. Either way a periodically
// re-armed timer costs one Timer allocation for the lifetime of its
// owner. A nil t behaves like After.
func (e *Env) Rearm(t *Timer, d Time, fn func()) *Timer {
	return e.rearm(t, d, fn, false)
}

// RearmDaemon is Rearm with daemon semantics (see AfterDaemon): the
// re-armed event never keeps Run alive by itself. A nil t behaves like
// AfterDaemon.
func (e *Env) RearmDaemon(t *Timer, d Time, fn func()) *Timer {
	return e.rearm(t, d, fn, true)
}

func (e *Env) rearm(t *Timer, d Time, fn func(), daemon bool) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	if t == nil {
		t = &Timer{}
	}
	if t.valid() && t.env == e {
		ev := t.ev
		if ev.daemon != daemon {
			if daemon {
				e.live--
			} else {
				e.live++
			}
			ev.daemon = daemon
		}
		ev.fn = fn
		x := heapEntry{at: e.now + d, seq: e.seq, ev: ev}
		e.seq++
		if h := e.tier(ev); ev.far == (d >= tierHorizon) {
			h.place(ev.index, x)
		} else { // the new distance is on the other side of the horizon
			h.remove(ev.index)
			e.enqueue(x)
		}
		return t
	}
	t.Stop()
	ev := e.scheduleEvent(e.now+d, fn, nil, nil, daemon)
	t.env = e
	t.ev = ev
	t.gen = ev.gen
	return t
}

// AtDaemon schedules a daemon event: it runs like any other event while
// the simulation is live, but does not by itself keep Run going — Run
// returns once only daemon events remain. Periodic observers (metric
// samplers) use daemon events so that a workload driving Run to
// completion is never kept alive by its own instrumentation.
func (e *Env) AtDaemon(at Time, fn func()) *Timer {
	ev := e.scheduleEvent(at, fn, nil, nil, true)
	return &Timer{env: e, ev: ev, gen: ev.gen}
}

// AfterDaemon schedules a daemon event d nanoseconds from now (see
// AtDaemon). Negative d panics.
func (e *Env) AfterDaemon(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.AtDaemon(e.now+d, fn)
}

func (e *Env) scheduleEvent(at Time, fn func(), fnArg func(any), arg any, daemon bool) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (%v < %v)", at, e.now))
	}
	ev := e.getEvent()
	ev.fn = fn
	ev.fnArg = fnArg
	ev.arg = arg
	ev.daemon = daemon
	if !daemon {
		e.live++
	}
	e.enqueue(heapEntry{at: at, seq: e.seq, ev: ev})
	e.seq++
	return ev
}

// Stop makes the current Run/RunUntil call return after the current event
// completes. Pending events stay queued and a later Run resumes them.
func (e *Env) Stop() {
	e.stopped = true
	for _, fn := range e.onStop {
		fn()
	}
}

// OnStop registers fn to run at every Stop. Owners of buffer freelists
// let their idle buffers go there (frame.Freelist.Trim): a stopped
// simulation is inspected, resumed or dropped, and keeps no idle buffer.
func (e *Env) OnStop(fn func()) { e.onStop = append(e.onStop, fn) }

// Run executes events until no live (non-daemon) events remain or Stop
// is called. It returns the time of the last executed event. Daemon
// events execute while live work is pending but never keep Run going on
// their own.
func (e *Env) Run() Time { return e.run(Time(1<<62-1), true) }

// RunUntil executes events with timestamps <= horizon, advancing the clock
// to each event's time. On return the clock rests at the later of its
// previous value and the last event executed; it never exceeds horizon.
// Unlike Run, an explicit horizon bounds daemon events too: they keep
// executing up to the horizon even with no live work left.
func (e *Env) RunUntil(horizon Time) Time { return e.run(horizon, false) }

func (e *Env) run(horizon Time, untilLiveDrained bool) Time {
	e.stopped = false
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped {
		// The next event is the smaller of the two tiers' tops.
		h := &e.events
		if len(e.later) > 0 && (len(e.events) == 0 || e.later[0].before(&e.events[0])) {
			h = &e.later
		}
		if len(*h) == 0 {
			break
		}
		top := (*h)[0]
		if top.at > horizon || (untilLiveDrained && e.live == 0) {
			break
		}
		e.now = top.at
		e.executed++
		next := top.ev
		if next.lane != nil {
			// A lane's entry stands for its head record; the lane takes
			// that off and re-keys the entry before the callback runs.
			fn, arg := next.lane.pop()
			fn(arg)
			continue
		}
		h.remove(0)
		if !next.daemon {
			e.live--
		}
		// Snapshot the callback and recycle the record before running
		// it: the callback may schedule new events (which can then
		// reuse this record) but can no longer observe it.
		fn, fnArg, arg := next.fn, next.fnArg, next.arg
		e.putEvent(next)
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
	}
	return e.now
}

// Idle reports whether the queue is empty: no event, daemon or not, is
// scheduled. Exact and O(1), since stopped events leave the queue at
// once and a Lane with anything queued keeps its head there.
func (e *Env) Idle() bool { return len(e.events)+len(e.later) == 0 }

// PendingLive returns the number of pending events that would keep Run
// going: scheduled and not daemon.
func (e *Env) PendingLive() int { return e.live }

// PendingEvents returns the number of scheduled events, daemon or not,
// wherever they wait: in the queue or behind the head of a Lane. Exact
// and O(1). Teardown leak gates use it: after every connection is closed
// and Run has drained, a nonzero count means some timer survived its
// owner.
func (e *Env) PendingEvents() int { return len(e.events) + len(e.later) + e.queued }

// QueueDepth splits PendingEvents by where the events wait: entries of
// the hot heap (one per non-empty Lane among them), entries of the later
// heap, and lane records queued behind their lane's head. The first is
// the depth that scheduling and running a near event sifts through.
func (e *Env) QueueDepth() (hot, later, lane int) { return len(e.events), len(e.later), e.queued }
