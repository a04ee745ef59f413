package sim

// Wheel is a coalescing timer wheel: short-lived timers land in
// tick-granularity buckets, and the environment's event heap carries at
// most ONE scheduled event per occupied bucket instead of one per
// timer. An endpoint multiplexing hundreds of connections arms and
// cancels an ACK, NACK, RTO and heartbeat timer per connection many
// times per round trip; routed through a wheel, all of that churn costs
// O(1) slice appends and flag flips, and the heap sees a handful of
// bucket events per horizon.
//
// Firing times are rounded UP to the next tick boundary, so a wheel
// timer never fires early; within one bucket, timers fire in arming
// order, keeping runs deterministic. Timers beyond the wheel's horizon
// (slots x tick) fall back to plain heap events — coalescing only pays
// for the short, hot timers, and the fallback keeps far-future timers
// (dead-interval guards, probe intervals) exact.
//
// Daemon-ness is tracked per bucket: a bucket's scheduled event keeps
// Run alive only while the bucket holds at least one live (non-daemon)
// timer, so an idle connection whose only wheel entries are daemon
// heartbeats never keeps an otherwise-finished simulation running —
// the same contract as Env.AfterDaemon.
type Wheel struct {
	env   *Env
	tick  Time
	slots []wheelSlot
	n     int // armed, unexpired, unstopped timers (bucketed + overflow)
}

type wheelSlot struct {
	at      Time          // absolute firing time of the scheduled event
	entries []*WheelTimer // armed in order; stopped entries are skipped
	active  int           // entries neither fired nor stopped
	live    int           // active non-daemon entries
	timer   *Timer        // the one heap event for this bucket
	daemon  bool          // daemon-ness timer was scheduled with
	seq     uint64        // bumped per firing; guards stale bucket events
}

// WheelTimer is one timer armed on a Wheel. It satisfies the same
// Stop/Pending contract as *Timer; both are nil-receiver-safe.
type WheelTimer struct {
	w      *Wheel
	fn     func()
	slot   int    // bucket index, or -1 for a heap-backed overflow timer
	heap   *Timer // overflow only: the underlying heap event
	daemon bool
	done   bool // fired or stopped
}

// wheelSlots fixes the ring size. With the tick durations protocol
// timers use (tens of microseconds) the horizon comfortably covers ACK
// delays, NACK ages and RTOs; anything longer overflows to the heap.
const wheelSlots = 512

// NewWheel creates a wheel with the given tick granularity. Tick must
// be positive; finer ticks mean less firing-time rounding but more
// bucket events.
func NewWheel(env *Env, tick Time) *Wheel {
	if tick <= 0 {
		panic("sim: wheel tick must be positive")
	}
	return &Wheel{env: env, tick: tick, slots: make([]wheelSlot, wheelSlots)}
}

// Tick returns the wheel's bucket granularity.
func (w *Wheel) Tick() Time { return w.tick }

// Len returns the number of armed, not-yet-fired, not-stopped timers.
func (w *Wheel) Len() int {
	if w == nil {
		return 0
	}
	return w.n
}

// After arms fn to fire d nanoseconds from now, rounded up to the next
// tick boundary. Negative d panics, matching Env.After.
func (w *Wheel) After(d Time, fn func()) *WheelTimer { return w.arm(d, fn, false) }

// AfterDaemon is After with daemon semantics: the timer fires normally
// while the simulation is live but never keeps Run going on its own.
func (w *Wheel) AfterDaemon(d Time, fn func()) *WheelTimer { return w.arm(d, fn, true) }

func (w *Wheel) arm(d Time, fn func(), daemon bool) *WheelTimer {
	if d < 0 {
		panic("sim: negative wheel delay")
	}
	now := w.env.Now()
	// Round up: a boundary exactly at now+d is kept (never fires early
	// either way), and d = 0 fires at the first boundary >= now.
	at := (now + d + w.tick - 1) / w.tick * w.tick
	if at >= now+Time(len(w.slots))*w.tick {
		return w.armOverflow(d, fn, daemon)
	}
	si := int(at/w.tick) % len(w.slots)
	s := &w.slots[si]
	if s.active > 0 && s.at != at {
		// Bucket held by a different lap of the ring: impossible while
		// the horizon check above holds, but fall back to the heap
		// rather than corrupt the bucket if the invariant ever breaks.
		return w.armOverflow(d, fn, daemon)
	}
	t := &WheelTimer{w: w, fn: fn, slot: si, daemon: daemon}
	if s.active == 0 {
		s.at = at
		s.entries = s.entries[:0]
	}
	s.entries = append(s.entries, t)
	s.active++
	if !daemon {
		s.live++
	}
	w.n++
	w.syncSlot(si)
	return t
}

// armOverflow backs a timer with a plain heap event.
func (w *Wheel) armOverflow(d Time, fn func(), daemon bool) *WheelTimer {
	t := &WheelTimer{w: w, slot: -1, daemon: daemon}
	fire := func() {
		if t.done {
			return
		}
		t.done = true
		w.n--
		fn()
	}
	if daemon {
		t.heap = w.env.AfterDaemon(d, fire)
	} else {
		t.heap = w.env.After(d, fire)
	}
	w.n++
	return t
}

// syncSlot (re)schedules the bucket's single heap event so that its
// daemon-ness reflects the bucket's contents: non-daemon while any live
// timer is armed, daemon while only daemon timers remain, stopped when
// the bucket empties. The scheduled daemon-ness is kept in the slot:
// the record behind a stopped or fired handle is recycled at once and
// says nothing about this bucket.
func (w *Wheel) syncSlot(si int) {
	s := &w.slots[si]
	if s.active == 0 {
		if s.timer != nil {
			s.timer.Stop()
			s.timer = nil
		}
		return
	}
	wantDaemon := s.live == 0
	if s.timer.Pending() && s.daemon == wantDaemon {
		return
	}
	s.timer.Stop()
	s.daemon = wantDaemon
	seq := s.seq
	fire := func() { w.fireSlot(si, seq) }
	if wantDaemon {
		s.timer = w.env.AtDaemon(s.at, fire)
	} else {
		s.timer = w.env.At(s.at, fire)
	}
}

// wheelDetached marks a timer whose bucket is mid-fire: it no longer
// participates in slot accounting, only in its own done flag.
const wheelDetached = -2

// fireSlot runs every armed timer in the bucket, in arming order. The
// sequence guard discards a stale event that survived rescheduling.
// Entries are detached from the slot before any callback runs, so a
// callback that stops a sibling timer (or arms a new one into this
// bucket's next lap) never corrupts the slot counters.
func (w *Wheel) fireSlot(si int, seq uint64) {
	s := &w.slots[si]
	if s.seq != seq {
		return
	}
	s.seq++
	entries := s.entries
	s.entries = nil
	s.active, s.live = 0, 0
	s.timer = nil
	for _, t := range entries {
		t.slot = wheelDetached
	}
	for _, t := range entries {
		if t.done {
			continue
		}
		t.done = true
		w.n--
		t.fn()
	}
}

// Stop cancels the timer if it has not fired. It reports whether the
// timer was still pending, matching *Timer.Stop. Nil-safe.
func (t *WheelTimer) Stop() bool {
	if t == nil || t.done {
		return false
	}
	if t.slot == wheelDetached {
		// The bucket is mid-fire: the entry is already off the slot's
		// books, so only the timer's own state (and the wheel count,
		// which fireSlot has not yet decremented for it) change.
		t.done = true
		t.w.n--
		return true
	}
	if t.slot < 0 {
		if !t.heap.Stop() {
			return false
		}
		t.done = true
		t.w.n--
		return true
	}
	t.done = true
	w := t.w
	s := &w.slots[t.slot]
	s.active--
	w.n--
	if !t.daemon {
		s.live--
	}
	w.syncSlot(t.slot)
	return true
}

// Pending reports whether the timer has neither fired nor been stopped.
// Nil-safe.
func (t *WheelTimer) Pending() bool {
	if t == nil || t.done {
		return false
	}
	if t.slot == wheelDetached {
		return true // its bucket is firing at this very instant
	}
	if t.slot < 0 {
		return t.heap.Pending()
	}
	return true
}
