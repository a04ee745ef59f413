package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"multiedge/internal/race"
)

// TestSignalReference drives one Signal through random interleavings
// of Wait from several processes and OnFire, before and after the fire,
// and compares what runs with a reference. The fire queues every waiter
// in the order it began to wait and then every callback in the order it
// subscribed; after the fire, a Wait returns at once and an OnFire
// queues its callback behind what is already queued. Actions run at
// distinct instants, except that one may share the fire's instant and
// run just after it. HasWaiters and Fired are checked around the fire.
func TestSignalReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEnv(1)
		var s Signal
		var got, want, waiters, cbs, queued []string
		settle := func() { want, queued = append(want, queued...), nil }
		n := 1 + rng.Intn(12)
		fireAt := Time(2 + 2*rng.Intn(n+1))
		e.SchedAt(fireAt, func() {
			if s.Fired() || s.HasWaiters() != (len(waiters)+len(cbs) > 0) {
				t.Errorf("seed %d: before Fire, Fired=%v HasWaiters=%v with %d waiters and %d callbacks",
					seed, s.Fired(), s.HasWaiters(), len(waiters), len(cbs))
			}
			s.Fire(e)
			if !s.Fired() || s.HasWaiters() {
				t.Errorf("seed %d: after Fire, Fired=%v HasWaiters=%v", seed, s.Fired(), s.HasWaiters())
			}
			queued = append(append(queued, waiters...), cbs...)
		})
		for i := 1; i <= n; i++ {
			at := Time(2*i + rng.Intn(2)) // 2i collides with the fire when it is fireAt
			name := fmt.Sprintf("%d@%d", i, at)
			if rng.Intn(2) == 0 {
				name = "wait " + name
				e.Go(name, func(p *Proc) {
					p.Sleep(at)
					if at > fireAt {
						settle()
					}
					if s.Fired() {
						want = append(want, name)
					} else {
						waiters = append(waiters, name)
					}
					p.Wait(&s)
					got = append(got, name)
				})
				continue
			}
			name = "cb " + name
			e.SchedAt(at, func() {
				if at > fireAt {
					settle()
				}
				if s.Fired() {
					queued = append(queued, name)
				} else {
					cbs = append(cbs, name)
				}
				s.OnFire(e, func() { got = append(got, name) })
			})
		}
		e.Run()
		settle()
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: ran %v, want %v", seed, got, want)
		}
		e.Close()
	}
}

// TestSignalHasWaiters pins what Conn.finish charges a user wake on: a
// lone callback counts as waiting, as a lone waiter does, and nothing
// waits on a fired signal.
func TestSignalHasWaiters(t *testing.T) {
	e := NewEnv(1)
	var cb, w Signal
	if cb.HasWaiters() {
		t.Error("a zero Signal has waiters")
	}
	cb.OnFire(e, func() {})
	e.Go("w", func(p *Proc) { p.Wait(&w) })
	e.Run()
	if !cb.HasWaiters() || !w.HasWaiters() {
		t.Errorf("HasWaiters is %v with only a callback and %v with only a waiter, want true", cb.HasWaiters(), w.HasWaiters())
	}
	cb.Fire(e)
	w.Fire(e)
	if cb.HasWaiters() || w.HasWaiters() {
		t.Error("a fired Signal reports waiters")
	}
}

// TestAllocsSignalWaitFire gates the common case, one process waiting
// on a signal that an event fires, at zero allocations: the waiter is
// held inline.
func TestAllocsSignalWaitFire(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	fire := func(x any) { x.(*Signal).Fire(e) }
	var allocs float64
	e.Go("measure", func(p *Proc) {
		s := new(Signal)
		step := func() {
			*s = Signal{}
			e.SchedAfterArg(1, fire, s)
			p.Wait(s)
			if !s.Fired() {
				t.Error("Wait returned before the fire")
			}
		}
		for i := 0; i < 16; i++ {
			step()
		}
		allocs = testing.AllocsPerRun(100, step)
	})
	e.Run()
	t.Logf("Wait and Fire with one waiter: %.2f allocs", allocs)
	if !race.Enabled && allocs != 0 {
		t.Errorf("Wait and Fire with one waiter allocate %.2f times, want 0", allocs)
	}
}

// TestAllocsSignalSize pins a Signal at two words: every Handle, Conn
// and Proc embeds one.
func TestAllocsSignalSize(t *testing.T) {
	if n := unsafe.Sizeof(Signal{}); n > 16 {
		t.Errorf("Signal is %d B, more than 16: keep what only a second waiter or a callback needs in the overflow record", n)
	}
}
