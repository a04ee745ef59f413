package sim

import "testing"

func TestWheelFiresInOrderAndRoundsUp(t *testing.T) {
	env := NewEnv(1)
	w := NewWheel(env, 10*Microsecond)
	var order []int
	env.After(0, func() {
		w.After(12*Microsecond, func() { order = append(order, 1) }) // rounds to 20us
		w.After(15*Microsecond, func() { order = append(order, 2) }) // same bucket, later arm
		w.After(5*Microsecond, func() { order = append(order, 3) })  // rounds to 10us
	})
	end := env.Run()
	if got, want := len(order), 3; got != want {
		t.Fatalf("fired %d timers, want %d", got, want)
	}
	if order[0] != 3 || order[1] != 1 || order[2] != 2 {
		t.Errorf("firing order %v, want [3 1 2] (bucket time, then arming order)", order)
	}
	if end != 20*Microsecond {
		t.Errorf("last event at %v, want 20us", end)
	}
}

func TestWheelOneHeapEventPerBucket(t *testing.T) {
	env := NewEnv(1)
	w := NewWheel(env, 10*Microsecond)
	fired := 0
	env.After(0, func() {
		for i := 0; i < 100; i++ {
			w.After(10*Microsecond, func() { fired++ })
		}
		// 100 timers in one bucket: the heap should hold the bucket
		// event plus nothing else from the wheel.
		if got := env.PendingEvents(); got != 1 {
			t.Errorf("pending heap events = %d, want 1 (one per occupied bucket)", got)
		}
	})
	env.Run()
	if fired != 100 {
		t.Fatalf("fired %d, want 100", fired)
	}
}

func TestWheelOverflowFallsBackToHeap(t *testing.T) {
	env := NewEnv(1)
	w := NewWheel(env, 10*Microsecond)
	firedAt := Time(-1)
	env.After(0, func() {
		// Far beyond the 512-slot horizon: exact heap timing, no rounding.
		w.After(123456789*Nanosecond, func() { firedAt = env.Now() })
	})
	env.Run()
	if firedAt != 123456789*Nanosecond {
		t.Errorf("overflow timer fired at %v, want exactly 123456789ns", firedAt)
	}
}

func TestWheelRearmFromCallback(t *testing.T) {
	env := NewEnv(1)
	w := NewWheel(env, 10*Microsecond)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			w.After(10*Microsecond, tick)
		}
	}
	env.After(0, func() { w.After(10*Microsecond, tick) })
	end := env.Run()
	if count != 5 {
		t.Fatalf("ticked %d times, want 5", count)
	}
	if end != 50*Microsecond {
		t.Errorf("last tick at %v, want 50us", end)
	}
}
