package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refEvent is one pending event of the reference model.
type refEvent struct {
	at     Time
	seq    uint64
	id     int // names the arming; the real callback reports it when it fires
	daemon bool
	h      *refHandle // nil for an arming without a cancel handle
}

// refHandle pairs a real *Timer with the arming it last pointed at,
// and whether the timer was made a daemon, which it stays for life.
type refHandle struct {
	t      *Timer
	id     int
	daemon bool
}

// rearmRef re-arms h's timer, or a new one for a nil h.t, at its new
// id: odd ids through the func(any) form, even ones through the closure
// form, which must key alike. A daemon handle goes through Daemon.
func rearmRef(e *Env, h *refHandle, d Time, fn func(), fnArg func(any)) *Timer {
	t := h.t
	if h.daemon {
		t = Daemon(t)
	}
	if h.id%2 == 1 {
		return e.RearmArg(t, d, fnArg, h.id)
	}
	return e.Rearm(t, d, fn)
}

// modelCoverage counts the corner cases the random programs are meant
// to reach, summed over all seeds.
type modelCoverage struct {
	stopInCallback, stopSibling, rearmSibling int
	rearmInPlace, rearmEarlier, staleOccupied int
	stoppedRuns, daemonOnlyReturns            int
}

// heapModel drives one Env and a sorted-slice reference in lockstep:
// every operation is applied to both, every result is compared, and
// every firing must be the reference's minimum (at, seq).
type heapModel struct {
	t       *testing.T
	seed    int64
	rng     *rand.Rand
	env     *Env
	ref     []refEvent // sorted by (at, seq)
	seq     uint64
	now     Time
	handles []*refHandle
	nextID  int
	budget  int // schedules left; keeps callback chains finite
	cov     *modelCoverage

	inRun, inCallback  bool
	untilLive, stopReq bool
	horizon            Time
}

func (m *heapModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d: "+format, append([]any{m.seed}, args...)...)
}

func (m *heapModel) find(id int) int {
	for i := range m.ref {
		if m.ref[i].id == id {
			return i
		}
	}
	return -1
}

func (m *heapModel) live() int {
	n := 0
	for _, r := range m.ref {
		if !r.daemon {
			n++
		}
	}
	return n
}

// insert adds a new arming, reachable through h, to the reference and
// returns its id.
func (m *heapModel) insert(at Time, daemon bool, h *refHandle) int {
	r := refEvent{at: at, seq: m.seq, id: m.nextID, daemon: daemon, h: h}
	m.seq++
	m.nextID++
	m.budget--
	i := sort.Search(len(m.ref), func(i int) bool {
		o := m.ref[i]
		return o.at > r.at || (o.at == r.at && o.seq > r.seq)
	})
	m.ref = append(m.ref, refEvent{})
	copy(m.ref[i+1:], m.ref[i:])
	m.ref[i] = r
	return r.id
}

func (m *heapModel) remove(id int) bool {
	i := m.find(id)
	if i < 0 {
		return false
	}
	m.ref = append(m.ref[:i], m.ref[i+1:]...)
	return true
}

// check compares the engine's counters with the reference and verifies
// the heap's shape invariants.
func (m *heapModel) check() {
	e := m.env
	if e.PendingEvents() != len(m.ref) || e.PendingLive() != m.live() || e.Idle() != (len(m.ref) == 0) {
		m.fatalf("pending=%d live=%d idle=%v; reference has %d pending, %d live",
			e.PendingEvents(), e.PendingLive(), e.Idle(), len(m.ref), m.live())
	}
	if e.Now() != m.now {
		m.fatalf("Now = %v, reference %v", e.Now(), m.now)
	}
	if err := checkTiers(e); err != nil {
		m.fatalf("%v", err)
	}
}

// checkTiers verifies the shape of both heaps: every entry knows its
// index and its tier, and no entry orders before its parent.
func checkTiers(e *Env) error {
	for far, h := range map[bool]eventHeap{false: e.events, true: e.later} {
		for i := range h {
			if int(h[i].ev.index) != i || h[i].ev.far != far {
				return fmt.Errorf("heap(far=%v)[%d]: ev.index = %d, ev.far = %v", far, i, h[i].ev.index, h[i].ev.far)
			}
			if i > 0 && h[i].before(&h[(i-1)/heapArity]) {
				return fmt.Errorf("heap(far=%v)[%d] orders before its parent", far, i)
			}
		}
	}
	return nil
}

// queuedAt reports whether ev is in the queue right now.
func (e *Env) queuedAt(ev *event) bool {
	h := *e.tier(ev)
	return int(ev.index) < len(h) && h[ev.index].ev == ev
}

var modelDelays = []Time{0, 0, 1, 1, 2, 3, 5, 8, 40, 2000}

func (m *heapModel) delay() Time { return modelDelays[m.rng.Intn(len(modelDelays))] }

// dueNow reports whether h's arming is pending at the current instant:
// inside a callback, a sibling of the event that is running.
func (m *heapModel) dueNow(h *refHandle) bool {
	i := m.find(h.id)
	return i >= 0 && m.ref[i].at == m.now
}

// pick chooses a handle, stale ones included; half the time it prefers
// one due at this very instant. Nothing pending is earlier than now, so
// those are a prefix of the reference.
func (m *heapModel) pick() *refHandle {
	if len(m.handles) == 0 {
		return nil
	}
	if m.rng.Intn(2) == 0 {
		var due []*refHandle
		for _, r := range m.ref {
			if r.at != m.now {
				break
			}
			if r.h != nil {
				due = append(due, r.h)
			}
		}
		if len(due) > 0 {
			return due[m.rng.Intn(len(due))]
		}
	}
	return m.handles[m.rng.Intn(len(m.handles))]
}

// arm records a new handle-bearing arming at now+d and returns the
// handle and the callback to schedule.
func (m *heapModel) arm(d Time, daemon bool) (*refHandle, func()) {
	h := &refHandle{daemon: daemon}
	h.id = m.insert(m.now+d, daemon, h)
	m.handles = append(m.handles, h)
	return h, m.fire(h.id)
}

// noteStale counts a handle whose record has been recycled and is in
// the queue again on behalf of a later arming.
func (m *heapModel) noteStale(h *refHandle) {
	ev := h.t.ev
	if h.t.gen != ev.gen && m.env.queuedAt(ev) {
		m.cov.staleOccupied++
	}
}

func (m *heapModel) fire(id int) func() { return func() { m.fired(id) } }

func (m *heapModel) firedArg(arg any) { m.fired(arg.(int)) }

// fired runs as the real callback of arming id.
func (m *heapModel) fired(id int) {
	switch {
	case !m.inRun:
		m.fatalf("event %d ran outside Run", id)
	case m.stopReq:
		m.fatalf("event %d ran after Env.Stop", id)
	case len(m.ref) == 0:
		m.fatalf("event %d fired; reference is empty", id)
	}
	want := m.ref[0]
	if want.id != id || want.at != m.env.Now() {
		m.fatalf("fired %d at %v; reference expects %d at %v (seq %d)", id, m.env.Now(), want.id, want.at, want.seq)
	}
	if want.at > m.horizon {
		m.fatalf("event %d at %v ran past horizon %v", id, want.at, m.horizon)
	}
	if m.untilLive && m.live() == 0 {
		m.fatalf("Run executed daemon event %d with no live work pending", id)
	}
	m.ref = m.ref[1:]
	m.now = want.at
	m.check()
	m.inCallback = true
	for n := m.rng.Intn(4); n > 0; n-- {
		m.step()
	}
	m.inCallback = false
}

// step applies one random operation to the engine and the reference.
func (m *heapModel) step() {
	r := m.rng.Intn(100)
	if m.budget <= 0 && (r < 44 || (r >= 70 && r < 97)) {
		r = 50 // out of schedules: stop something instead
	}
	switch {
	case r < 20:
		d := m.delay()
		h, fn := m.arm(d, false)
		h.t = m.env.After(d, fn)
	case r < 28:
		d := m.delay()
		h, fn := m.arm(d, false)
		h.t = m.env.At(m.now+d, fn)
	case r < 34:
		d := m.delay()
		h, fn := m.arm(d, true)
		h.t = m.env.Rearm(Daemon(nil), d, fn)
	case r < 44:
		d := m.delay()
		m.env.SchedAtArg(m.now+d, m.firedArg, m.insert(m.now+d, false, nil))
	case r < 62:
		h := m.pick()
		if h == nil {
			return
		}
		m.noteStale(h)
		sibling := m.inCallback && m.dueNow(h)
		want := m.remove(h.id)
		if got := h.t.Stop(); got != want {
			m.fatalf("Stop(%d) = %v, reference %v", h.id, got, want)
		}
		if want && m.inCallback {
			m.cov.stopInCallback++
			if sibling {
				m.cov.stopSibling++
			}
		}
	case r < 70:
		h := m.pick()
		if h == nil {
			return
		}
		m.noteStale(h)
		if got, want := h.t.Pending(), m.find(h.id) >= 0; got != want {
			m.fatalf("Pending(%d) = %v, reference %v", h.id, got, want)
		}
	case r < 97:
		h := m.pick()
		if h == nil || m.rng.Intn(8) == 0 {
			// nil *Timer: Rearm behaves like After, Daemon makes one.
			h = &refHandle{id: -1, daemon: r >= 90}
			m.handles = append(m.handles, h)
		} else {
			m.noteStale(h)
		}
		d := m.delay()
		if i := m.find(h.id); h.t != nil && i >= 0 {
			m.cov.rearmInPlace++
			if m.now+d < m.ref[i].at {
				m.cov.rearmEarlier++
			}
			if m.inCallback && m.ref[i].at == m.now {
				m.cov.rearmSibling++
			}
			m.remove(h.id)
		}
		h.id = m.insert(m.now+d, h.daemon, h)
		t := rearmRef(m.env, h, d, m.fire(h.id), m.firedArg)
		if h.t != nil && t != h.t {
			m.fatalf("Rearm returned a different handle")
		}
		h.t = t
	default:
		if m.inCallback {
			m.env.Stop()
			m.stopReq = true
		}
	}
	m.check()
}

// run calls Run or RunUntil and checks where and why it returned.
func (m *heapModel) run(untilLive bool, horizon Time) {
	m.inRun, m.untilLive, m.horizon, m.stopReq = true, untilLive, horizon, false
	var got Time
	if untilLive {
		got = m.env.Run()
	} else {
		got = m.env.RunUntil(horizon)
	}
	m.inRun = false
	if got != m.now {
		m.fatalf("run returned %v, reference clock %v", got, m.now)
	}
	m.check()
	switch {
	case m.stopReq:
		m.cov.stoppedRuns++
	case untilLive:
		if m.live() != 0 {
			m.fatalf("Run returned with %d live events pending", m.live())
		}
		if len(m.ref) > 0 {
			m.cov.daemonOnlyReturns++
		}
	case len(m.ref) > 0 && m.ref[0].at <= horizon:
		m.fatalf("RunUntil(%v) left an event at %v", horizon, m.ref[0].at)
	}
}

func runHeapModel(t *testing.T, seed int64, cov *modelCoverage) {
	rng := rand.New(rand.NewSource(seed))
	m := &heapModel{t: t, seed: seed, rng: rng, env: NewEnv(seed), cov: cov, budget: 150}
	prefill := 12
	if seed%8 == 0 {
		// Deep enough for four heap levels.
		prefill, m.budget = 120, 400
	}
	for round := 0; round < 6; round++ {
		for n := rng.Intn(prefill) + 1; n > 0; n-- {
			m.step()
		}
		if rng.Intn(2) == 0 {
			m.run(true, Time(1<<62-1))
		} else {
			m.run(false, m.now+m.delay()*Time(rng.Intn(4)))
		}
	}
	// Drain: with no schedules left every callback chain ends.
	m.budget = 0
	for tries := 0; len(m.ref) > 0; tries++ {
		if tries > 1000 {
			m.fatalf("queue does not drain: %d pending", len(m.ref))
		}
		m.run(false, Time(1<<60))
	}
}

// TestHeapAgainstSortedReference runs seeded random programs of every
// scheduling and cancellation call against a sorted-slice reference.
func TestHeapAgainstSortedReference(t *testing.T) {
	var cov modelCoverage
	for seed := int64(1); seed <= 1200; seed++ {
		runHeapModel(t, seed, &cov)
	}
	for name, n := range map[string]int{
		"Stop from inside a callback":              cov.stopInCallback,
		"Stop of a sibling due at the same time":   cov.stopSibling,
		"Rearm of a sibling due at the same time":  cov.rearmSibling,
		"Rearm of a pending handle":                cov.rearmInPlace,
		"Rearm to an earlier time":                 cov.rearmEarlier,
		"stale handle whose record is queued anew": cov.staleOccupied,
		"Run cut short by Env.Stop":                cov.stoppedRuns,
		"Run returning with only daemons pending":  cov.daemonOnlyReturns,
	} {
		if n == 0 {
			t.Errorf("no random program reached: %s", name)
		}
	}
}

// TestRearmChurnKeepsHeapSmall pins what eager cancellation buys: a
// timer re-armed a million times before it fires, as an RTO is on
// every transmitted frame, occupies one queue entry throughout.
func TestRearmChurnKeepsHeapSmall(t *testing.T) {
	e := NewEnv(1)
	for i := 0; i < 16; i++ {
		e.SchedAt(Time(1<<40)+Time(i), nop)
	}
	fired := 0
	fire := func() { fired++ }
	tm := e.After(2*Millisecond, fire)
	free := len(e.free)
	const rearms = 1_000_000
	// AllocsPerRun calls the function once more than it counts.
	allocs := testing.AllocsPerRun(rearms-1, func() {
		tm = e.Rearm(tm, 2*Millisecond, fire)
	})
	if allocs != 0 {
		t.Errorf("Rearm of a pending timer allocates %v per call, want 0", allocs)
	}
	if got := e.PendingEvents(); got != 17 {
		t.Errorf("PendingEvents = %d after %d re-arms among 16 live events, want 17", got, rearms)
	}
	if len(e.free) != free {
		t.Errorf("free list went from %d to %d records", free, len(e.free))
	}
	e.RunUntil(2 * Millisecond)
	if fired != 1 || e.PendingEvents() != 16 {
		t.Errorf("fired %d times, %d pending; want 1 and 16", fired, e.PendingEvents())
	}
}

// TestAllocsRearmArgPending pins the static-callback timer form: re-arming
// a pending timer through RearmArg, with a package-level callback and a
// pointer argument, allocates nothing, and the last arm's callback and
// argument are the ones that run.
func TestAllocsRearmArgPending(t *testing.T) {
	e := NewEnv(1)
	var got *int
	fire := func(arg any) { got = arg.(*int) }
	a, b := new(int), new(int)
	tm := e.RearmArg(nil, Millisecond, fire, a)
	allocs := testing.AllocsPerRun(1000, func() {
		tm = e.RearmArg(tm, Millisecond, fire, b)
	})
	if allocs != 0 {
		t.Errorf("RearmArg of a pending timer allocates %v per call, want 0", allocs)
	}
	if n := e.PendingEvents(); n != 1 {
		t.Errorf("%d events pending after re-arms of one timer, want 1", n)
	}
	e.Run()
	if got != b {
		t.Error("the re-armed timer did not run its last callback with its last argument")
	}
}

// TestAllocsRearmDaemonPending pins the daemon timer: re-arming it while
// pending, and again once it has fired, allocates nothing, and it stays
// a daemon throughout.
func TestAllocsRearmDaemonPending(t *testing.T) {
	e := NewEnv(1)
	fired := 0
	fire := func(any) { fired++ }
	tm := e.RearmArg(Daemon(nil), Millisecond, fire, e)
	allocs := testing.AllocsPerRun(1000, func() {
		tm = e.RearmArg(Daemon(tm), Millisecond, fire, e)
	})
	if allocs != 0 {
		t.Errorf("RearmArg of a pending daemon timer allocates %v per call, want 0", allocs)
	}
	if !tm.Pending() || e.PendingEvents() != 1 || e.PendingLive() != 0 {
		t.Errorf("pending %v, %d events, %d live; want true, 1, 0", tm.Pending(), e.PendingEvents(), e.PendingLive())
	}
	allocs = testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + Millisecond)
		tm = e.RearmArg(Daemon(tm), Millisecond, fire, e)
	})
	if allocs != 0 {
		t.Errorf("RearmArg of a fired daemon timer allocates %v per call, want 0", allocs)
	}
	if fired != 101 || e.PendingLive() != 0 {
		t.Errorf("fired %d times with %d live events, want 101 and 0", fired, e.PendingLive())
	}
}
