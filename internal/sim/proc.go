package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: a coroutine the event that wakes it
// switches to directly and that switches back at its next blocking call
// (Sleep, Wait, Recv, Exec) or its return. No Go scheduler pass and no
// other thread is involved, and at most one process runs at a time.
type Proc struct {
	env      *Env
	name     string
	done     Signal
	waitNext *Proc // next waiter, in arrival order, on the Signal p waits on

	// The coroutine (iter.Pull): next resumes the body, yield parks it,
	// stop makes a parked yield return false. Nil once the process has
	// ended, so that a retained *Proc pins no stack.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	older, newer *Proc // the ring of live processes through Env.procs
}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment this process runs in.
func (p *Proc) Env() *Env { return p.env }

// Done returns a signal that fires when the process returns. It does
// not fire for a process that Env.Close unwinds.
func (p *Proc) Done() *Signal { return &p.done }

// Dead reports whether the process has returned or been unwound.
func (p *Proc) Dead() bool { return p.next == nil }

// Go spawns fn as a new simulated process that starts at the current
// virtual time (after already-queued events at this instant).
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, older: e.procs.older, newer: &e.procs}
	e.SchedAtArg(e.now, wakeProc, p) // first, so that a closed Env panics before a coroutine exists
	p.older.newer, p.newer.older = p, p
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	return p
}

// procKilled is what park panics with once Close has stopped the
// process, so that its deferred calls run. Application code must not
// recover it: a process that did would go on running inside Close.
type procKilled struct{}

// exit is deferred under every process body and holds the only recover
// outside tests. A real panic is re-raised with the process name and
// stack; iter.Pull hands it to the wake event, so it surfaces from Run.
func (p *Proc) exit() {
	r := recover()
	p.release()
	if _, killed := r.(procKilled); killed {
		return
	}
	p.done.fire(p.env)
	if r != nil {
		panic(fmt.Sprintf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack()))
	}
}

// release takes p off the live list and drops its coroutine.
func (p *Proc) release() {
	p.older.newer, p.newer.older = p.newer, p.older
	p.older, p.newer = nil, nil
	p.next, p.yield, p.stop = nil, nil, nil
}

// wakeProc is the event that runs a process until it parks or returns.
// Scheduled with p as its argument, it costs a process no closure.
func wakeProc(p any) {
	if next := p.(*Proc).next; next != nil {
		next()
	}
}

// park switches back to the scheduler until the next wake-up.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Procs returns the number of live processes. Once a workload has
// drained they are all parked for good, and Close is what frees them.
func (e *Env) Procs() int {
	n := 0
	for p := e.procs.older; p != &e.procs; p = p.older {
		n++
	}
	return n
}

// Close ends the universe: every live process is unwound where it is
// parked (deferred calls run, the stack is freed, Done does not fire)
// and the event queue is dropped, both tiers and the lanes, which
// invalidates every Timer. The
// creator of the Env calls it when done: a process parked forever pins
// its goroutine and all it can reach. Close is idempotent and must be
// called from outside Run. What deferred calls schedule or spawn during
// the unwind is dropped too; scheduling anything after Close panics.
func (e *Env) Close() {
	if e.running {
		panic("sim: Close called from inside Run")
	}
	for p := e.procs.older; p != &e.procs; p = e.procs.older {
		p.stop()
		if p.next != nil { // never started, so exit did not run
			p.release()
		}
	}
	for _, tier := range []eventHeap{e.events, e.later} {
		for _, h := range tier {
			h.ev.gen++
		}
	}
	for _, l := range e.lanes {
		l.drop()
	}
	e.events, e.later, e.free, e.lanes, e.live, e.queued, e.closed = nil, nil, nil, nil, 0, 0, true
}

// Sleep suspends the process for d virtual nanoseconds.
func (p *Proc) Sleep(d Time) {
	p.env.SchedAtArg(p.env.after(d), wakeProc, p)
	p.park()
}

// Yield reschedules the process at the current time, letting every other
// event and process queued at this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Signal is a one-shot completion event that processes can wait on.
// The zero value is ready to use. It is one word: nil, its newest
// waiter, or fired once it has fired. Its waiters form a ring through
// Proc.waitNext in arrival order, the newest linking back to the
// oldest. A process can lend the link because it parks on one thing at
// a time, so waiting allocates nothing and appends in constant time.
type Signal struct{ w *Proc }

// fired is what a signal points at once it has fired.
var fired = new(Proc)

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.w == fired }

// HasWaiters reports whether any process is currently waiting on the
// signal.
func (s *Signal) HasWaiters() bool { return s.w != nil && s.w != fired }

// Fire fires the signal at the current virtual time, waking all waiting
// processes in the order they began to wait. Firing twice panics: a
// Signal represents exactly one completion.
func (s *Signal) Fire(e *Env) {
	if s.Fired() {
		panic("sim: Signal fired twice")
	}
	s.fire(e)
}

func (s *Signal) fire(e *Env) {
	last := s.w
	if s.w = fired; last == nil || last == fired {
		return
	}
	for p := last.waitNext; ; p = p.waitNext {
		e.SchedAtArg(e.now, wakeProc, p)
		if p == last {
			return
		}
	}
}

// Wait blocks the process until the signal fires; it returns immediately
// if the signal already fired.
func (p *Proc) Wait(s *Signal) {
	switch {
	case s.Fired():
		return
	case s.w == nil:
		p.waitNext = p
	default:
		p.waitNext, s.w.waitNext = s.w.waitNext, p
	}
	s.w = p
	p.park()
}

// WaitAll blocks until every given signal has fired.
func (p *Proc) WaitAll(sigs ...*Signal) {
	for _, s := range sigs {
		p.Wait(s)
	}
}

// Mailbox is an unbounded FIFO queue for passing values between simulated
// processes and event-driven code.
type Mailbox[T any] struct {
	items   []T
	head    int // live items are items[head:]; resets to 0 on drain
	waiters []*Proc
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) - m.head }

// HasWaiters reports whether any process is blocked in Recv. Senders
// that charge a wakeup cost only when someone is actually asleep (e.g.
// completion-queue delivery) test this before paying it.
func (m *Mailbox[T]) HasWaiters() bool { return len(m.waiters) > 0 }

// Send enqueues v and wakes one waiting receiver, if any.
func (m *Mailbox[T]) Send(e *Env, v T) {
	if m.head > 0 && m.head == len(m.items) {
		m.items, m.head = m.items[:0], 0
	}
	m.items = append(m.items, v)
	if len(m.waiters) > 0 {
		p := m.waiters[0]
		m.waiters = m.waiters[:copy(m.waiters, m.waiters[1:])]
		e.SchedAtArg(e.now, wakeProc, p)
	}
}

// Recv dequeues the oldest item, blocking while the mailbox is empty.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for m.Len() == 0 {
		m.waiters = append(m.waiters, p)
		p.park()
	}
	v, _ := m.TryRecv()
	return v
}

// TryRecv dequeues the oldest item without blocking; ok reports whether an
// item was available.
func (m *Mailbox[T]) TryRecv() (v T, ok bool) {
	if m.Len() == 0 {
		return v, false
	}
	v = m.items[m.head]
	var zero T
	m.items[m.head] = zero
	m.head++
	if m.head == len(m.items) {
		m.items, m.head = m.items[:0], 0
	}
	return v, true
}
