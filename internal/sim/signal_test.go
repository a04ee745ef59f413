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
// of Wait from several processes, before and after the fire, and
// compares what runs with a reference. The fire queues every waiter in
// the order it began to wait; after the fire, a Wait returns at once.
// Waits start at distinct instants, except that one may share the
// fire's instant and run just after it. HasWaiters and Fired are
// checked around the fire.
func TestSignalReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEnv(1)
		var s Signal
		var got, want, waiters, queued []string
		settle := func() { want, queued = append(want, queued...), nil }
		n := 1 + rng.Intn(12)
		fireAt := Time(2 + 2*rng.Intn(n+1))
		e.SchedAt(fireAt, func() {
			if s.Fired() || s.HasWaiters() != (len(waiters) > 0) {
				t.Errorf("seed %d: before Fire, Fired=%v HasWaiters=%v with %d waiters",
					seed, s.Fired(), s.HasWaiters(), len(waiters))
			}
			s.Fire(e)
			if !s.Fired() || s.HasWaiters() {
				t.Errorf("seed %d: after Fire, Fired=%v HasWaiters=%v", seed, s.Fired(), s.HasWaiters())
			}
			queued = append(queued, waiters...)
		})
		for i := 1; i <= n; i++ {
			at := Time(2*i + rng.Intn(2)) // 2i collides with the fire when it is fireAt
			name := fmt.Sprintf("wait %d@%d", i, at)
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
// lone waiter counts, as do several, and nothing waits on a fired
// signal.
func TestSignalHasWaiters(t *testing.T) {
	e := NewEnv(1)
	var one, two Signal
	if one.HasWaiters() {
		t.Error("a zero Signal has waiters")
	}
	e.Go("w", func(p *Proc) { p.Wait(&one) })
	for _, name := range []string{"a", "b"} {
		e.Go(name, func(p *Proc) { p.Wait(&two) })
	}
	e.Run()
	if !one.HasWaiters() || !two.HasWaiters() {
		t.Errorf("HasWaiters is %v with one waiter and %v with two, want true", one.HasWaiters(), two.HasWaiters())
	}
	one.Fire(e)
	two.Fire(e)
	if one.HasWaiters() || two.HasWaiters() {
		t.Error("a fired Signal reports waiters")
	}
	e.Run()
	e.Close()
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
			e.SchedAtArg(e.Now()+1, fire, s)
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

// TestAllocsSignalWaiters gates several processes waiting on one
// signal at zero allocations: the waiters chain through the processes
// themselves. They wake in the order they began to wait. Each round
// fires the signal the waiters park on and points them at a fresh one.
func TestAllocsSignalWaiters(t *testing.T) {
	const k = 4
	e := NewEnv(1)
	defer e.Close()
	var sigs [2]Signal
	s := &sigs[0]
	woke := make([]int, 0, k)
	for i := 0; i < k; i++ {
		e.Go(fmt.Sprint("waiter ", i), func(p *Proc) {
			for {
				p.Wait(s)
				woke = append(woke, i)
				p.Sleep(1)
			}
		})
	}
	e.RunUntil(0) // every waiter parks on sigs[0], in spawn order
	round := func() {
		old := s
		s = &sigs[0]
		if old == s {
			s = &sigs[1]
		}
		*s, woke = Signal{}, woke[:0]
		if !old.HasWaiters() {
			t.Fatal("no process waits on the signal")
		}
		old.Fire(e)
		e.RunUntil(e.Now() + 1) // they wake, then park on s in wake order
	}
	round()
	allocs := testing.AllocsPerRun(100, round)
	if want := []int{0, 1, 2, 3}; !slices.Equal(woke, want) {
		t.Errorf("waiters woke in order %v, want %v", woke, want)
	}
	t.Logf("Wait by %d processes and Fire: %.2f allocs", k, allocs)
	if !race.Enabled && allocs != 0 {
		t.Errorf("Wait by %d processes and Fire allocate %.2f times, want 0", k, allocs)
	}
}

// TestAllocsSignalSize pins a Signal at one word, and the Proc that
// lends its waiter link at 80 B: every Handle and Proc embeds a
// Signal.
func TestAllocsSignalSize(t *testing.T) {
	if n := unsafe.Sizeof(Signal{}); n > 8 {
		t.Errorf("Signal is %d B, more than 8: chain later waiters through Proc.waitNext", n)
	}
	if n := unsafe.Sizeof(Proc{}); n > 80 {
		t.Errorf("Proc is %d B, more than 80", n)
	}
}
