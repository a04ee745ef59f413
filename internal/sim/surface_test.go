package sim

import (
	"reflect"
	"testing"
	"unsafe"
)

// maxSchedulingMethods pins the kernel's scheduling surface: the
// exported methods of Env, Lane, Resource and Signal that take a
// callback. Like the other size ratchets it may only be lowered.
const maxSchedulingMethods = 9

// TestSchedulingSurface counts every exported way to put a callback on
// the queue. Env.Go spawns a process and Env.OnStop hooks Stop: they
// take a func but schedule no event.
func TestSchedulingSurface(t *testing.T) {
	notEvents := map[string]bool{"Env.Go": true, "Env.OnStop": true}
	var names []string
	for _, ty := range []reflect.Type{reflect.TypeOf(&Env{}), reflect.TypeOf(&Lane{}), reflect.TypeOf(&Resource{}), reflect.TypeOf(&Signal{})} {
		for i := 0; i < ty.NumMethod(); i++ {
			m := ty.Method(i)
			name := ty.Elem().Name() + "." + m.Name
			for j := 1; j < m.Type.NumIn(); j++ {
				if m.Type.In(j).Kind() == reflect.Func && !notEvents[name] {
					names = append(names, name)
					break
				}
			}
		}
	}
	t.Logf("%d scheduling methods: %v", len(names), names)
	if len(names) > maxSchedulingMethods {
		t.Errorf("%d exported scheduling methods, pinned at %d: express the new one through an existing form", len(names), maxSchedulingMethods)
	}
}

// TestAllocsEventSize pins the records every schedule touches: an event
// holds one callback and its argument in 48 B, and a Timer handle, daemon
// status included, stays in the 24 B size class.
func TestAllocsEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 48 {
		t.Errorf("event is %d B, more than 48: it holds one func(any) callback and its argument", n)
	}
	if n := unsafe.Sizeof(Timer{}); n > 24 {
		t.Errorf("Timer is %d B, more than 24: every conn keeps several", n)
	}
}

// TestAllocsSchedAtFunc pins the closure forms at the cost of the
// fn(arg) form: a stored func() queued through SchedAt or SchedAfter
// rides as the argument of a trampoline and allocates nothing.
func TestAllocsSchedAtFunc(t *testing.T) {
	e := NewEnv(1)
	n := 0
	fn := func() { n++ }
	step := func() {
		e.SchedAt(e.Now()+1, fn)
		e.SchedAfter(2, fn)
		e.Run()
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("SchedAt and SchedAfter of a stored func allocate %v per pair, want 0", allocs)
	}
	if n != 2*1002 {
		t.Errorf("the stored func ran %d times, want %d", n, 2*1002)
	}
}

// TestDaemonIsForLife pins how a timer becomes a daemon: Daemon makes
// one, every re-arm through either form keeps it one, and a plain timer
// cannot be turned into one.
func TestDaemonIsForLife(t *testing.T) {
	e := NewEnv(1)
	plain := e.After(1, nop)
	mustPanic(t, "Daemon of a plain timer", "not a daemon", func() { Daemon(plain) })
	d := e.Rearm(Daemon(nil), 5, nop)
	if Daemon(d) != d {
		t.Fatal("Daemon of a daemon timer returned another timer")
	}
	e.RearmArg(d, 10, func(any) {}, nil)
	if e.PendingLive() != 1 || e.PendingEvents() != 2 {
		t.Fatalf("%d live of %d pending, want 1 of 2", e.PendingLive(), e.PendingEvents())
	}
	if e.Run(); e.Now() != 1 || !d.Pending() {
		t.Errorf("Run returned at %v with the daemon pending %v, want at 1 with it pending", e.Now(), d.Pending())
	}
	e.RunUntil(10)
	e.Rearm(d, 1, nop) // fired: re-armed on a fresh record, still a daemon
	if e.PendingLive() != 0 || !d.Pending() {
		t.Errorf("%d live events after re-arming a fired daemon, want 0", e.PendingLive())
	}
}
