package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// Where a pending event of the tier model waits.
const (
	inHot = iota
	inLater
	inRing // a lane's ring; the head record is the one the hot heap holds
)

// tierEvent is one pending event of the reference: its key, and where
// the engine is expected to keep it.
type tierEvent struct {
	at     Time
	seq    uint64
	id     int
	daemon bool
	where  int
	lane   int        // inRing: which lane
	h      *refHandle // nil for an arming without a cancel handle
}

// tierCoverage counts the corner cases of the two-tier queue the random
// programs are meant to reach, summed over all seeds.
type tierCoverage struct {
	rearmHotToLater, rearmLaterToHot, rearmSameTier int
	stopInLater, stopInHot                          int
	tieLaterFirst, tieHotFirst                      int // equal at in both heaps: seq decides
	firedFromLater, firedFromRing                   int
	betweenTiers                                    int // RunUntil came back with the hot heap empty and later not
	stopFromLater                                   int // Env.Stop from the callback of a later-tier event
	daemonOnlyLater                                 int // Run ended with nothing but daemon events, all in later
	closeWithLater                                  int // Close invalidated a Timer parked in later
	laneFarAhead, laneFallback                      int
}

// tierModel drives one Env and a sorted-slice reference in lockstep, as
// heapModel does, with delays on both sides of tierHorizon, lanes, and a
// reference that also knows which tier every event belongs to: every
// firing must be the reference's minimum (at, seq), and Executed,
// PendingEvents, PendingLive, Idle and QueueDepth must be exact at every
// step.
type tierModel struct {
	t        *testing.T
	seed     int64
	rng      *rand.Rand
	env      *Env
	ref      []tierEvent // sorted by (at, seq)
	seq      uint64
	now      Time
	executed uint64
	handles  []*refHandle
	lanes    []*Lane
	laneLast []Time // per lane: time of the newest record its ring ever took
	laneN    []int  // per lane: records in its ring
	nextID   int
	budget   int // schedules left; keeps callback chains finite
	cov      *tierCoverage

	inRun, inCallback  bool
	untilLive, stopReq bool
	horizon            Time
	curWhere           int // where the event whose callback is running waited
}

func (m *tierModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d: "+format, append([]any{m.seed}, args...)...)
}

func (m *tierModel) find(id int) int {
	for i := range m.ref {
		if m.ref[i].id == id {
			return i
		}
	}
	return -1
}

func (m *tierModel) count(where int) (n int) {
	for _, r := range m.ref {
		if r.where == where {
			n++
		}
	}
	return n
}

func (m *tierModel) live() (n int) {
	for _, r := range m.ref {
		if !r.daemon {
			n++
		}
	}
	return n
}

// tierOf is where an event armed d ahead through the Env belongs.
func tierOf(d Time) int {
	if d >= tierHorizon {
		return inLater
	}
	return inHot
}

func (m *tierModel) insert(r tierEvent) int {
	r.seq, r.id = m.seq, m.nextID
	m.seq++
	m.nextID++
	m.budget--
	i := sort.Search(len(m.ref), func(i int) bool {
		o := m.ref[i]
		return o.at > r.at || (o.at == r.at && o.seq > r.seq)
	})
	m.ref = append(m.ref, tierEvent{})
	copy(m.ref[i+1:], m.ref[i:])
	m.ref[i] = r
	return r.id
}

func (m *tierModel) remove(i int) {
	m.ref = append(m.ref[:i], m.ref[i+1:]...)
}

// check compares every counter of the engine with the reference and
// verifies the shape of both heaps.
func (m *tierModel) check() {
	e := m.env
	heads := 0
	for _, n := range m.laneN {
		if n > 0 {
			heads++
		}
	}
	wantHot, wantLater, wantLane := m.count(inHot)+heads, m.count(inLater), m.count(inRing)-heads
	hot, later, lane := e.QueueDepth()
	if hot != wantHot || later != wantLater || lane != wantLane {
		m.fatalf("QueueDepth = (%d, %d, %d), reference (%d, %d, %d)", hot, later, lane, wantHot, wantLater, wantLane)
	}
	if e.PendingEvents() != len(m.ref) || hot+later+lane != len(m.ref) ||
		e.PendingLive() != m.live() || e.Idle() != (len(m.ref) == 0) {
		m.fatalf("pending=%d live=%d idle=%v; reference has %d pending, %d live",
			e.PendingEvents(), e.PendingLive(), e.Idle(), len(m.ref), m.live())
	}
	if e.Now() != m.now || e.Executed() != m.executed {
		m.fatalf("Now = %v after %d events, reference %v after %d", e.Now(), e.Executed(), m.now, m.executed)
	}
	if err := checkTiers(e); err != nil {
		m.fatalf("%v", err)
	}
}

var tierDelays = []Time{0, 0, 1, 3, 40, 2 * Microsecond, 30 * Microsecond,
	tierHorizon - 1, tierHorizon, tierHorizon + 1, 100 * Microsecond, 500 * Microsecond, 2 * Millisecond}

func (m *tierModel) delay() Time { return tierDelays[m.rng.Intn(len(tierDelays))] }

func (m *tierModel) pick() *refHandle {
	if len(m.handles) == 0 {
		return nil
	}
	return m.handles[m.rng.Intn(len(m.handles))]
}

// arm records a handle-bearing arming at now+d.
func (m *tierModel) arm(d Time, daemon bool) (*refHandle, func()) {
	h := &refHandle{daemon: daemon}
	h.id = m.insert(tierEvent{at: m.now + d, daemon: daemon, where: tierOf(d), h: h})
	m.handles = append(m.handles, h)
	return h, m.fire(h.id)
}

func (m *tierModel) fire(id int) func() { return func() { m.fired(id) } }

func (m *tierModel) firedArg(arg any) { m.fired(arg.(int)) }

// fired runs as the real callback of arming id.
func (m *tierModel) fired(id int) {
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
	// Another event due at this very time in the other heap: only the
	// sequence number tells which of the two tops runs first.
	for _, o := range m.ref[1:] {
		if o.at != want.at {
			break
		}
		if (o.where == inLater) != (want.where == inLater) {
			if want.where == inLater {
				m.cov.tieLaterFirst++
			} else {
				m.cov.tieHotFirst++
			}
			break
		}
	}
	switch want.where {
	case inLater:
		m.cov.firedFromLater++
	case inRing:
		m.cov.firedFromRing++
		m.laneN[want.lane]--
	}
	m.ref = m.ref[1:]
	m.now = want.at
	m.executed++
	m.curWhere = want.where
	m.check()
	m.inCallback = true
	for n := m.rng.Intn(3); n > 0; n-- {
		m.step()
	}
	m.inCallback = false
}

// schedLane queues one record on a lane: usually behind what the lane
// has queued, any distance ahead, sometimes near the current instant,
// where a time below the lane's last makes it an ordinary event.
func (m *tierModel) schedLane() {
	l := m.rng.Intn(len(m.lanes))
	var at Time
	if m.rng.Intn(5) == 0 {
		at = m.now + m.delay()
	} else {
		at = max(m.laneLast[l], m.now) + m.delay()
	}
	r := tierEvent{at: at, where: inRing, lane: l}
	if at < m.laneLast[l] {
		r.where = tierOf(at - m.now)
		m.cov.laneFallback++
	} else {
		m.laneLast[l] = at
		m.laneN[l]++
		if at-m.now >= tierHorizon {
			m.cov.laneFarAhead++ // in the hot heap, or behind it, whatever the distance
		}
	}
	m.lanes[l].SchedAtArg(at, m.firedArg, m.insert(r))
}

// step applies one random operation to the engine and the reference.
func (m *tierModel) step() {
	r := m.rng.Intn(100)
	if m.budget <= 0 && (r < 52 || (r >= 70 && r < 96)) {
		r = 60 // out of schedules: stop something instead
	}
	switch {
	case r < 14:
		d := m.delay()
		h, fn := m.arm(d, false)
		h.t = m.env.After(d, fn)
	case r < 20:
		d := m.delay()
		h, fn := m.arm(d, false)
		h.t = m.env.At(m.now+d, fn)
	case r < 26:
		d := m.delay()
		h, fn := m.arm(d, true)
		if m.rng.Intn(2) == 0 {
			h.t = m.env.Rearm(Daemon(nil), d, fn)
		} else {
			h.t = m.env.RearmArg(Daemon(nil), d, m.firedArg, h.id)
		}
	case r < 34:
		d := m.delay()
		m.env.SchedAtArg(m.now+d, m.firedArg, m.insert(tierEvent{at: m.now + d, where: tierOf(d)}))
	case r < 46:
		m.schedLane()
	case r < 52:
		// At the very time of something already pending: a sleeper armed
		// long ago and a wake-up armed now meet at the two tops.
		if len(m.ref) == 0 {
			return
		}
		d := m.ref[m.rng.Intn(len(m.ref))].at - m.now
		h, fn := m.arm(d, false)
		h.t = m.env.At(m.now+d, fn)
	case r < 66:
		h := m.pick()
		if h == nil {
			return
		}
		i := m.find(h.id)
		if i >= 0 {
			if m.ref[i].where == inLater {
				m.cov.stopInLater++
			} else {
				m.cov.stopInHot++
			}
			m.remove(i)
		}
		if got := h.t.Stop(); got != (i >= 0) {
			m.fatalf("Stop(%d) = %v, reference %v", h.id, got, i >= 0)
		}
	case r < 70:
		h := m.pick()
		if h == nil {
			return
		}
		if got, want := h.t.Pending(), m.find(h.id) >= 0; got != want {
			m.fatalf("Pending(%d) = %v, reference %v", h.id, got, want)
		}
	case r < 96:
		h := m.pick()
		if h == nil || m.rng.Intn(8) == 0 {
			// nil *Timer: Rearm behaves like After, Daemon makes one.
			h = &refHandle{id: -1, daemon: r >= 90}
			m.handles = append(m.handles, h)
		}
		d := m.delay()
		if i := m.find(h.id); h.t != nil && i >= 0 {
			switch from, to := m.ref[i].where, tierOf(d); {
			case from == to:
				m.cov.rearmSameTier++
			case to == inLater:
				m.cov.rearmHotToLater++
			default:
				m.cov.rearmLaterToHot++
			}
			m.remove(i)
		}
		h.id = m.insert(tierEvent{at: m.now + d, daemon: h.daemon, where: tierOf(d), h: h})
		t := rearmRef(m.env, h, d, m.fire(h.id), m.firedArg)
		if h.t != nil && t != h.t {
			m.fatalf("Rearm returned a different handle")
		}
		h.t = t
	default:
		if m.inCallback {
			m.env.Stop()
			m.stopReq = true
			if m.curWhere == inLater {
				m.cov.stopFromLater++
			}
		}
	}
	m.check()
}

// run calls Run or RunUntil and checks where and why it returned.
func (m *tierModel) run(untilLive bool, horizon Time) {
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
	later := m.count(inLater)
	switch {
	case m.stopReq:
	case untilLive:
		if m.live() != 0 {
			m.fatalf("Run returned with %d live events pending", m.live())
		}
		if later > 0 && later == len(m.ref) {
			m.cov.daemonOnlyLater++
		}
	case len(m.ref) > 0 && m.ref[0].at <= horizon:
		m.fatalf("RunUntil(%v) left an event at %v", horizon, m.ref[0].at)
	case later > 0 && later == len(m.ref):
		m.cov.betweenTiers++
	}
}

func runTierModel(t *testing.T, seed int64, cov *tierCoverage) {
	rng := rand.New(rand.NewSource(seed))
	m := &tierModel{t: t, seed: seed, rng: rng, env: NewEnv(seed), cov: cov, budget: 150,
		laneLast: make([]Time, 2), laneN: make([]int, 2)}
	defer m.env.Close()
	for range m.laneN {
		m.lanes = append(m.lanes, m.env.NewLane())
	}
	for round := 0; round < 6; round++ {
		for n := rng.Intn(12) + 1; n > 0; n-- {
			m.step()
		}
		if rng.Intn(3) == 0 {
			m.run(true, Time(1<<62-1))
		} else {
			m.run(false, m.now+m.delay()*Time(rng.Intn(4)))
		}
	}
	if seed%3 == 0 {
		// Close with whatever is pending: every handle goes stale, in
		// whichever heap its record waited.
		for _, r := range m.ref {
			if r.where == inLater && r.h != nil {
				m.cov.closeWithLater++
				break
			}
		}
		m.env.Close()
		m.ref, m.laneN = nil, make([]int, len(m.laneN))
		m.check()
		for _, h := range m.handles {
			if h.t != nil && (h.t.Pending() || h.t.Stop()) {
				m.fatalf("Timer of arming %d survived Close", h.id)
			}
		}
		return
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

// TestTiersAgainstSortedReference is the proof that the split of the
// event queue is a matter of storage only: seeded random programs of
// every scheduling and cancellation call, with delays on both sides of
// tierHorizon and lanes queueing any distance ahead, run against a
// sorted-slice reference that every firing, Executed and every pending
// counter is compared with.
func TestTiersAgainstSortedReference(t *testing.T) {
	const programs = 1500
	var cov tierCoverage
	for seed := int64(1); seed <= programs; seed++ {
		runTierModel(t, seed, &cov)
	}
	t.Logf("%+v", cov)
	for name, n := range map[string]int{
		"Rearm in place from the hot heap to later":     cov.rearmHotToLater,
		"Rearm in place from later to the hot heap":     cov.rearmLaterToHot,
		"Rearm in place within a tier":                  cov.rearmSameTier,
		"Stop of a record in later":                     cov.stopInLater,
		"Stop of a record in the hot heap":              cov.stopInHot,
		"equal at in both heaps, later's seq lower":     cov.tieLaterFirst,
		"equal at in both heaps, the hot seq lower":     cov.tieHotFirst,
		"an event run from later":                       cov.firedFromLater,
		"a lane record run":                             cov.firedFromRing,
		"RunUntil horizon between the tiers":            cov.betweenTiers,
		"Env.Stop from a later-tier callback":           cov.stopFromLater,
		"Run ending on daemon events in later only":     cov.daemonOnlyLater,
		"Close with a Timer parked in later":            cov.closeWithLater,
		"a lane record at least tierHorizon ahead":      cov.laneFarAhead,
		"a lane record below its lane's last (a plain)": cov.laneFallback,
	} {
		if n < programs/50 {
			t.Errorf("corner case %q reached %d times in %d programs", name, n, programs)
		}
	}
}

// TestSleepersStayOutOfTheHotHeap is what the split is for: ten thousand
// processes asleep for a millisecond at a time wait in later, and a lane
// ticking every microsecond beside them dispatches through a hot heap of
// a handful of entries, however many sleepers there are.
func TestSleepersStayOutOfTheHotHeap(t *testing.T) {
	const sleepers = 10_000
	e := NewEnv(1)
	defer e.Close()
	maxHot, maxLater := 0, 0
	sample := func() {
		hot, later, lane := e.QueueDepth()
		if hot+later+lane != e.PendingEvents() {
			t.Fatalf("QueueDepth (%d, %d, %d) does not sum to PendingEvents %d", hot, later, lane, e.PendingEvents())
		}
		maxHot, maxLater = max(maxHot, hot), max(maxLater, later)
	}
	for i := range sleepers {
		e.Go("sleeper", func(p *Proc) {
			p.Sleep(Millisecond + Time(i)*97) // staggered over the next millisecond
			for range 3 {
				sample()
				p.Sleep(Millisecond)
			}
		})
	}
	e.RunUntil(0) // every process has started and gone to sleep
	if hot, later, lane := e.QueueDepth(); hot != 0 || later != sleepers || lane != 0 {
		t.Fatalf("with every process asleep QueueDepth = (%d, %d, %d), want (0, %d, 0)", hot, later, lane, sleepers)
	}
	l := e.NewLane()
	ticks := 0
	var tick func(any)
	tick = func(any) {
		sample()
		if ticks++; e.Procs() > 0 {
			l.SchedAtArg(e.Now()+Microsecond, tick, nil)
		}
	}
	l.SchedAtArg(Microsecond, tick, nil)
	e.Run()
	if maxHot > 4 || maxLater != sleepers || ticks < 4000 || e.Procs() != 0 {
		t.Errorf("over %d ticks the hot heap reached %d entries (want <= 4) and later %d (want %d); %d processes left",
			ticks, maxHot, maxLater, sleepers, e.Procs())
	}
}
