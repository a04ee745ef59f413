package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// settledGoroutines polls until the goroutine count is at most want: a
// coroutine that has returned is reaped by the runtime a moment after
// the switch away from it.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

func mustPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Errorf("%s: panic %q, want one containing %q", what, msg, want)
		}
	}()
	fn()
}

func TestCloseUnwindsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv(1)
	var never, other Signal
	var box Mailbox[int]
	cpu := NewResource("cpu")
	deferred := map[string]int{}
	spawn := func(name string, block func(p *Proc)) {
		e.Go(name, func(p *Proc) {
			defer func() { deferred[name]++ }()
			block(p)
			t.Errorf("%s ran past the call it was parked in", name)
		})
	}
	spawn("sleep", func(p *Proc) { p.Sleep(Second) })
	spawn("wait", func(p *Proc) { p.Wait(&never) })
	spawn("waitall", func(p *Proc) { p.WaitAll(&other, &never) })
	spawn("recv", func(p *Proc) { box.Recv(p) })
	spawn("exec", func(p *Proc) { p.Exec(cpu, Second) })
	e.After(5, func() { other.Fire(e) })
	e.RunUntil(10)
	ran := false
	e.Go("unborn", func(p *Proc) { ran = true })
	if got := e.Procs(); got != 6 {
		t.Fatalf("Procs() = %d before Close, want 6", got)
	}

	e.Close()
	if got := e.Procs(); got != 0 {
		t.Errorf("Procs() = %d after Close, want 0", got)
	}
	if got := e.PendingEvents(); got != 0 {
		t.Errorf("PendingEvents() = %d after Close, want 0", got)
	}
	for _, name := range []string{"sleep", "wait", "waitall", "recv", "exec"} {
		if deferred[name] != 1 {
			t.Errorf("%s: deferred call ran %d times, want 1", name, deferred[name])
		}
	}
	if ran {
		t.Error("a process that had not started ran during Close")
	}
	if got := settledGoroutines(before); got != before {
		t.Errorf("%d goroutines after Close, %d before NewEnv", got, before)
	}
}

func TestCloseDeferredParkRepanics(t *testing.T) {
	e := NewEnv(1)
	var never Signal
	var trail []string
	e.Go("stubborn", func(p *Proc) {
		defer func() { trail = append(trail, "outer") }()
		defer func() {
			trail = append(trail, "inner")
			p.Sleep(1) // parks again while being unwound
			trail = append(trail, "slept")
		}()
		p.Wait(&never)
	})
	e.Run()
	e.Close()
	if want := []string{"inner", "outer"}; !slices.Equal(trail, want) {
		t.Errorf("unwind ran %v, want %v", trail, want)
	}
	if e.Procs() != 0 || e.PendingEvents() != 0 {
		t.Errorf("after Close: %d procs, %d events", e.Procs(), e.PendingEvents())
	}
}

func TestCloseIdempotentAndGuarded(t *testing.T) {
	e := NewEnv(1)
	e.After(1, func() { mustPanic(t, "Close in an event", "inside Run", e.Close) })
	e.Go("p", func(p *Proc) {
		p.Sleep(2)
		mustPanic(t, "Close in a process", "inside Run", e.Close)
	})
	e.Run()

	tm := e.After(10, nop)
	e.Close()
	e.Close()
	if tm.Pending() || tm.Stop() {
		t.Error("a timer survived Close")
	}
	mustPanic(t, "Go", "closed Env", func() { e.Go("late", func(*Proc) {}) })
	mustPanic(t, "SchedAfter", "closed Env", func() { e.SchedAfter(1, nop) })
	mustPanic(t, "Rearm", "closed Env", func() { e.Rearm(tm, 1, nop) })
	if e.Procs() != 0 || e.PendingEvents() != 0 {
		t.Errorf("after use of a closed Env: %d procs, %d events", e.Procs(), e.PendingEvents())
	}
}

func TestKilledProcDoneDoesNotFire(t *testing.T) {
	e := NewEnv(1)
	var never Signal
	victim := e.Go("victim", func(p *Proc) { p.Wait(&never) })
	woken, unwound := false, false
	e.Go("waiter", func(p *Proc) {
		defer func() { unwound = true }()
		p.Wait(victim.Done())
		woken = true
	})
	e.Run()
	e.Close()
	if woken || victim.Done().Fired() {
		t.Error("Done of a killed process fired")
	}
	if !unwound || !victim.Dead() {
		t.Errorf("waiter unwound = %v, victim dead = %v; want both", unwound, victim.Dead())
	}
}

// TestProcSwitchOrderUnchanged pins, from the channel-handoff
// implementation this one replaced, when every step of a mixed program
// runs: how a process is switched to must not move what is scheduled.
func TestProcSwitchOrderUnchanged(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var steps []string
	step := func(p *Proc, what string) {
		steps = append(steps, fmt.Sprintf("%d %s.%s", e.Now(), p.Name(), what))
	}
	cpu := NewResource("cpu")
	var sig Signal
	var ping, pong Mailbox[int]
	var workers []*Signal
	for i := 0; i < 3; i++ {
		w := e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			step(p, "start")
			p.Yield()
			step(p, "yielded")
			if i == 1 {
				e.Go("child", func(c *Proc) {
					step(c, "start")
					c.Exec(cpu, 4)
					step(c, "ran")
				})
			}
			p.Exec(cpu, Time(5+i))
			step(p, "ran")
			p.Wait(&sig)
			step(p, "signalled")
		})
		workers = append(workers, w.Done())
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(20)
		step(p, "fire")
		sig.Fire(e)
	})
	e.Go("ping", func(p *Proc) {
		for i := 0; i < 3; i++ {
			ping.Send(e, i)
			step(p, fmt.Sprint("sent", i))
			step(p, fmt.Sprint("got", pong.Recv(p)))
			p.Sleep(3)
		}
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v := ping.Recv(p)
			step(p, fmt.Sprint("got", v))
			p.Exec(cpu, 2)
			pong.Send(e, v*10)
		}
	})
	e.Go("joiner", func(p *Proc) {
		p.WaitAll(workers...)
		step(p, "joined")
	})
	e.Run()

	want := []string{
		"0 w0.start", "0 w1.start", "0 w2.start", "0 ping.sent0", "0 pong.got0",
		"0 w0.yielded", "0 w1.yielded", "0 w2.yielded", "0 child.start",
		"2 ping.got0", "5 ping.sent1", "5 pong.got1", "7 w0.ran", "13 w1.ran",
		"20 firer.fire", "20 w2.ran", "20 w2.signalled", "20 w0.signalled",
		"20 w1.signalled", "20 joiner.joined", "24 child.ran", "26 ping.got10",
		"29 ping.sent2", "29 pong.got2", "31 ping.got20",
	}
	if !slices.Equal(steps, want) {
		t.Errorf("steps ran as\n%s\nwant\n%s", strings.Join(steps, "\n"), strings.Join(want, "\n"))
	}
	if got := e.Executed(); got != 30 {
		t.Errorf("Executed() = %d, want 30", got)
	}
	if got := e.Procs(); got != 0 {
		t.Errorf("Procs() = %d after every process returned, want 0", got)
	}
}
