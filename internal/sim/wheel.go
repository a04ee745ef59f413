package sim

// Wheel is a coalescing timer wheel: short-lived timers land in
// tick-granularity buckets, and the environment's event heap carries at
// most ONE scheduled event per occupied bucket instead of one per
// timer, so arming costs a slice append.
//
// Firing times are rounded UP to the next tick boundary, so a wheel
// timer never fires early; within one bucket, timers fire in arming
// order, keeping runs deterministic. Timers beyond the wheel's horizon
// (slots x tick) fall back to plain heap events — coalescing only pays
// for the short, hot timers, and the fallback keeps far-future timers
// exact. A wheel timer cannot be stopped.
type Wheel struct {
	env   *Env
	tick  Time
	slots [][]func() // per bucket, the armed timers in arming order
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
	return &Wheel{env: env, tick: tick, slots: make([][]func(), wheelSlots)}
}

// After arms fn to fire d nanoseconds from now, rounded up to the next
// tick boundary. Negative d panics, matching Env.After.
func (w *Wheel) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative wheel delay")
	}
	now := w.env.Now()
	// Round up: a boundary exactly at now+d is kept (never fires early
	// either way), and d = 0 fires at the first boundary >= now.
	at := (now + d + w.tick - 1) / w.tick * w.tick
	if at >= now+Time(len(w.slots))*w.tick {
		w.env.After(d, fn)
		return
	}
	// Within the horizon an occupied bucket always holds timers for this
	// very at: two firing times one lap apart cannot both lie in it.
	si := int(at/w.tick) % len(w.slots)
	if len(w.slots[si]) == 0 {
		w.env.At(at, func() { w.fire(si) })
	}
	w.slots[si] = append(w.slots[si], fn)
}

// fire runs the bucket's timers in arming order. The bucket is emptied
// first, so a callback may arm a timer into its next lap.
func (w *Wheel) fire(si int) {
	fns := w.slots[si]
	w.slots[si] = nil
	for _, fn := range fns {
		fn()
	}
}
