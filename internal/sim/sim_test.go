package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEnv(1)
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEnv(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.After(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events not FIFO at %d: %v", i, got[i])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.After(10, func() {
		order = append(order, "a")
		e.After(5, func() { order = append(order, "c") })
		e.After(0, func() { order = append(order, "b") })
	})
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEnv(1)
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At(past) did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEnv(1)
	defer func() {
		if recover() == nil {
			t.Error("After(-1) did not panic")
		}
	}()
	e.After(-1, func() {})
}

// TestOnStopRunsAtEachStop: what OnStop registers runs inside the event
// that calls Stop, once per Stop, and Run resumes the pending events.
func TestOnStopRunsAtEachStop(t *testing.T) {
	e := NewEnv(1)
	var stops []Time
	e.OnStop(func() { stops = append(stops, e.Now()) })
	e.After(10, e.Stop)
	e.After(20, func() {})
	e.After(30, e.Stop)
	if e.Run(); len(stops) != 1 || stops[0] != 10 {
		t.Fatalf("after the first Run: stops at %v, want [10]", stops)
	}
	if e.Run(); len(stops) != 2 || stops[1] != 30 {
		t.Fatalf("after the second Run: stops at %v, want [10 30]", stops)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEnv(1)
	fired := false
	tm := e.After(10, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer not pending after schedule")
	}
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	if tm.Pending() {
		t.Error("stopped timer still pending")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEnv(1)
	tm := e.After(1, func() {})
	e.Run()
	if tm.Stop() {
		t.Error("Stop after fire returned true")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEnv(1)
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.After(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Now() != 20 {
		t.Errorf("Now = %v after horizon run, want 20", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	e := NewEnv(1)
	n := 0
	for i := 1; i <= 10; i++ {
		e.After(Time(i), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 3 {
		t.Fatalf("executed %d events before Stop took effect, want 3", n)
	}
	e.Run()
	if n != 10 {
		t.Fatalf("executed %d events after resume, want 10", n)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEnv(1)
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		wake = e.Now()
		p.Sleep(50)
	})
	end := e.Run()
	if wake != 100 {
		t.Errorf("woke at %v, want 100", wake)
	}
	if end != 150 {
		t.Errorf("sim ended at %v, want 150", end)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcDoneSignal(t *testing.T) {
	e := NewEnv(1)
	p1 := e.Go("worker", func(p *Proc) { p.Sleep(42) })
	var joined Time
	e.Go("joiner", func(p *Proc) {
		p.Wait(p1.Done())
		joined = e.Now()
	})
	e.Run()
	if joined != 42 {
		t.Errorf("joined at %v, want 42", joined)
	}
	if !p1.Dead() {
		t.Error("worker not dead after Run")
	}
}

func boom() { panic("boom") }

func TestProcPanicPropagates(t *testing.T) {
	e := NewEnv(1)
	e.Go("bad", func(p *Proc) { boom() })
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{`process "bad"`, "boom", "sim.boom("} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic out of Run lacks %q:\n%s", want, msg)
			}
		}
	}()
	e.Run()
}

func TestSignalWaitBeforeAndAfterFire(t *testing.T) {
	e := NewEnv(1)
	var s Signal
	var early, late Time
	e.Go("early", func(p *Proc) {
		p.Wait(&s)
		early = e.Now()
	})
	e.After(10, func() { s.Fire(e) })
	e.Go("late", func(p *Proc) {
		p.Sleep(50)
		p.Wait(&s) // already fired: returns immediately
		late = e.Now()
	})
	e.Run()
	if early != 10 {
		t.Errorf("early waiter woke at %v, want 10", early)
	}
	if late != 50 {
		t.Errorf("late waiter woke at %v, want 50", late)
	}
	if !s.Fired() {
		t.Error("signal not fired")
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	e := NewEnv(1)
	var s Signal
	s.Fire(e)
	defer func() {
		if recover() == nil {
			t.Error("double Fire did not panic")
		}
	}()
	s.Fire(e)
}

func TestSignalOnFire(t *testing.T) {
	e := NewEnv(1)
	var s Signal
	var calls []Time
	s.OnFire(e, func() { calls = append(calls, e.Now()) })
	e.After(7, func() { s.Fire(e) })
	e.Run()
	s.OnFire(e, func() { calls = append(calls, e.Now()) }) // post-fire subscribe
	e.Run()
	if len(calls) != 2 || calls[0] != 7 || calls[1] != 7 {
		t.Errorf("calls = %v, want [7 7]", calls)
	}
}

func TestWaitAll(t *testing.T) {
	e := NewEnv(1)
	var a, b Signal
	e.After(10, func() { a.Fire(e) })
	e.After(30, func() { b.Fire(e) })
	var done Time
	e.Go("w", func(p *Proc) {
		p.WaitAll(&a, &b)
		done = e.Now()
	})
	e.Run()
	if done != 30 {
		t.Errorf("WaitAll returned at %v, want 30", done)
	}
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEnv(1)
	var mb Mailbox[int]
	var got []int
	e.Go("recv", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, mb.Recv(p))
		}
	})
	e.Go("send", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			mb.Send(e, i)
		}
	})
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("got = %v, want 0..4 in order", got)
		}
	}
}

func TestMailboxTryRecv(t *testing.T) {
	e := NewEnv(1)
	var mb Mailbox[string]
	if _, ok := mb.TryRecv(); ok {
		t.Fatal("TryRecv on empty mailbox returned ok")
	}
	mb.Send(e, "x")
	if mb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", mb.Len())
	}
	v, ok := mb.TryRecv()
	if !ok || v != "x" {
		t.Fatalf("TryRecv = %q,%v, want x,true", v, ok)
	}
}

func TestMailboxMultipleWaiters(t *testing.T) {
	e := NewEnv(1)
	var mb Mailbox[int]
	var got []int
	for i := 0; i < 3; i++ {
		e.Go("recv", func(p *Proc) { got = append(got, mb.Recv(p)) })
	}
	e.After(10, func() {
		mb.Send(e, 1)
		mb.Send(e, 2)
		mb.Send(e, 3)
	})
	e.Run()
	if len(got) != 3 {
		t.Fatalf("received %d items, want 3", len(got))
	}
	sum := got[0] + got[1] + got[2]
	if sum != 6 {
		t.Fatalf("items = %v, want a permutation of 1..3", got)
	}
}

func TestResourceSerialization(t *testing.T) {
	e := NewEnv(1)
	r := NewResource("cpu")
	var completions []Time
	e.After(0, func() {
		r.Submit(e, 10, func() { completions = append(completions, e.Now()) })
		r.Submit(e, 10, func() { completions = append(completions, e.Now()) })
		r.Submit(e, 5, func() { completions = append(completions, e.Now()) })
	})
	e.Run()
	want := []Time{10, 20, 25}
	for i := range want {
		if completions[i] != want[i] {
			t.Fatalf("completions = %v, want %v", completions, want)
		}
	}
	if r.BusyTime() != 25 {
		t.Errorf("BusyTime = %v, want 25", r.BusyTime())
	}
	if r.Jobs() != 3 {
		t.Errorf("Jobs = %d, want 3", r.Jobs())
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEnv(1)
	r := NewResource("cpu")
	var done Time
	e.After(0, func() { r.Submit(e, 10, nil) })
	e.After(100, func() { r.Submit(e, 10, func() { done = e.Now() }) })
	e.Run()
	if done != 110 {
		t.Errorf("second job done at %v, want 110 (idle gap respected)", done)
	}
	if r.BusyTime() != 20 {
		t.Errorf("BusyTime = %v, want 20", r.BusyTime())
	}
}

func TestResourceExecBlocks(t *testing.T) {
	e := NewEnv(1)
	r := NewResource("cpu")
	var at Time
	e.Go("a", func(p *Proc) { p.Exec(r, 30) })
	e.Go("b", func(p *Proc) {
		p.Exec(r, 20)
		at = e.Now()
	})
	e.Run()
	if at != 50 {
		t.Errorf("second Exec finished at %v, want 50", at)
	}
}

func TestUtilizationWindow(t *testing.T) {
	e := NewEnv(1)
	r := NewResource("cpu")
	var u float64
	e.After(0, func() {
		snap := r.Snapshot(e)
		r.Submit(e, 25, nil)
		e.After(100, func() { u = snap.Since(e, r) })
	})
	e.Run()
	if u < 0.24 || u > 0.26 {
		t.Errorf("utilization = %v, want 0.25", u)
	}
}

// TestDeterminism runs a randomized workload twice with the same seed and
// requires identical traces, and once with a different seed expecting the
// trace to differ.
func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []Time {
		e := NewEnv(seed)
		var out []Time
		var mb Mailbox[int]
		for i := 0; i < 4; i++ {
			e.Go("p", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(Time(e.Rand().Intn(100)))
					mb.Send(e, j)
					out = append(out, e.Now())
				}
			})
		}
		e.Go("drain", func(p *Proc) {
			for i := 0; i < 80; i++ {
				mb.Recv(p)
				out = append(out, -e.Now())
			}
		})
		e.Run()
		return out
	}
	a, b, c := trace(7), trace(7), trace(8)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces (suspicious)")
	}
}

// Property: for any batch of non-negative delays, events fire in
// nondecreasing time order and the clock ends at the max delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEnv(1)
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.After(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a resource's total busy time equals the sum of submitted work
// and the last completion is at least that sum.
func TestPropertyResourceBusy(t *testing.T) {
	f := func(seed int64, works []uint16) bool {
		e := NewEnv(seed)
		r := NewResource("cpu")
		var sum Time
		var last Time
		rng := rand.New(rand.NewSource(seed))
		at := Time(0)
		for _, w := range works {
			w := Time(w)
			sum += w
			at += Time(rng.Intn(50))
			e.At(at, func() { last = r.Submit(e, w, nil) })
		}
		e.Run()
		return r.BusyTime() == sum && (len(works) == 0 || last >= sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestYield(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) { order = append(order, "b1") })
	e.Run()
	if len(order) != 3 || order[0] != "a1" || order[1] != "b1" || order[2] != "a2" {
		t.Fatalf("order = %v, want [a1 b1 a2]", order)
	}
}

func nop() {}

func BenchmarkEventDispatch(b *testing.B) { benchmarkDispatch(b, 0) }

// BenchmarkEventDispatchDeep is the same with 64 k events pending behind
// the one being dispatched (the benchmark's sim.dispatch_deep_ns).
func BenchmarkEventDispatchDeep(b *testing.B) { benchmarkDispatch(b, 1<<16) }

func benchmarkDispatch(b *testing.B, pending int) {
	e := NewEnv(1)
	for i := 0; i < pending; i++ {
		e.SchedAt(Time(1<<40)+Time(i), nop)
	}
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			e.After(1, fire)
		}
	}
	e.After(1, fire)
	b.ResetTimer()
	e.RunUntil(Time(b.N))
}

// BenchmarkTimerChurn re-arms one heap timer 1024 times between
// firings, as an ACK or RTO timer is on every frame (the benchmark's
// sim.timer_stop_rearm_ns).
func BenchmarkTimerChurn(b *testing.B) {
	e := NewEnv(1)
	var t *Timer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t = e.Rearm(t, Millisecond, nop)
		if i%1024 == 1023 {
			e.RunUntil(e.Now() + 2*Millisecond)
		}
	}
}

// BenchmarkProcSwitch is one park and resume (the benchmark's
// sim.proc_switch_ns).
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEnv(1)
	defer e.Close()
	e.Go("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSpawn is the whole life of a process that parks once.
func BenchmarkProcSpawn(b *testing.B) {
	e := NewEnv(1)
	defer e.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Go("p", func(p *Proc) { p.Sleep(1) })
		e.Run()
	}
}

func BenchmarkResourceSubmit(b *testing.B) {
	e := NewEnv(1)
	r := NewResource("cpu")
	e.After(0, func() {
		for i := 0; i < b.N; i++ {
			r.Submit(e, 1, nil)
		}
	})
	b.ResetTimer()
	e.Run()
}
