package sim

// Lane is a FIFO of scheduled callbacks for a source whose completion
// times never decrease: a serializing resource, a transmit queue, a
// constant-delay wire. Only the head record is represented in the event
// heap, by one entry the lane owns for good; the records queued behind
// it wait in a ring, so a server with a hundred jobs queued costs the
// heap one entry, and running the head re-keys that entry in place. The
// entry lives in the hot tier (Env.events) however far ahead its head
// is, so re-keying it never has to move it between heaps.
//
// A lane is a fast path, never an assumption: every record takes its
// key from Env.key when it is scheduled, exactly as a heap event does,
// and a record whose time is below the lane's last one goes to the
// heap as an ordinary event. Events run in the total order on (at, seq)
// whichever container holds them, so scheduling through a lane changes
// neither when nor in what order anything runs.
type Lane struct {
	env  *Env
	rep  event // the head record's heap entry while the lane is not empty
	recs []laneRec
	head int  // index of the head record in recs (a power-of-two ring)
	n    int  // queued records
	last Time // time of the newest record ever queued: at most now once it has run
}

// laneRec is one queued callback with the key it will run under.
type laneRec struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// NewLane creates an empty lane on e.
func (e *Env) NewLane() *Lane {
	if e.closed {
		panic("sim: lane created on a closed Env")
	}
	l := &Lane{env: e, recs: make([]laneRec, 4)}
	l.rep.arg = l // and no fn: see Env.run
	e.lanes = append(e.lanes, l)
	return l
}

// SchedAtArg schedules fn(arg) at absolute time at, like Env.SchedAtArg.
func (l *Lane) SchedAtArg(at Time, fn func(any), arg any) {
	e := l.env
	// Out of order behind a queued record, in the past, or on a closed
	// Env: the heap path orders the first and panics on the other two.
	if at < l.last || at < e.now || e.closed {
		e.scheduleEvent(at, fn, arg, false)
		return
	}
	if l.n == len(l.recs) {
		l.grow()
	}
	x := e.key(at, &l.rep)
	l.recs[(l.head+l.n)&(len(l.recs)-1)] = laneRec{at: at, seq: x.seq, fn: fn, arg: arg}
	if l.n == 0 {
		e.events.push(x)
	} else {
		e.queued++
	}
	e.live++
	l.n++
	l.last = at
}

// grow doubles the full ring, moving the records to start at slot 0.
func (l *Lane) grow() {
	recs := make([]laneRec, 2*len(l.recs))
	k := copy(recs, l.recs[l.head:])
	copy(recs[k:], l.recs[:l.head])
	l.recs, l.head = recs, 0
}

// pop takes the head record off the lane, whose entry is at the top of
// the heap, and leaves the heap holding the next record or nothing.
func (l *Lane) pop() (fn func(any), arg any) {
	e := l.env
	r := &l.recs[l.head]
	fn, arg = r.fn, r.arg
	*r = laneRec{}
	l.head = (l.head + 1) & (len(l.recs) - 1)
	l.n--
	if l.n > 0 {
		next := &l.recs[l.head]
		e.events.down(0, heapEntry{at: next.at, seq: next.seq, ev: &l.rep})
		e.queued--
	} else {
		e.events.remove(0)
	}
	e.live--
	return fn, arg
}

// drop empties the lane for Close, releasing what its records reference.
func (l *Lane) drop() {
	clear(l.recs)
	l.head, l.n = 0, 0
}
