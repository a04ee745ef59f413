package sim

// Resource models a serializing server such as a CPU or a DMA engine:
// submitted work items execute one after another in FIFO order, each
// occupying the resource for its stated duration. It also accounts total
// busy time, from which callers derive utilization over a window.
//
// The implementation keeps only the time the resource next becomes free;
// FIFO order follows from submissions being timestamped monotonically,
// which is also what lets the completions wait in a Lane.
type Resource struct {
	name  string
	avail Time // when the next submitted work item can start
	busy  Time // cumulative busy time
	jobs  uint64
	lane  *Lane // completion callbacks, in submission order
}

// NewResource creates a named resource, idle at time zero.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// BusyTime returns cumulative busy time accounted so far, including time
// already committed to queued work.
func (r *Resource) BusyTime() Time { return r.busy }

// Jobs returns the number of work items submitted so far.
func (r *Resource) Jobs() uint64 { return r.jobs }

// Submit queues a work item of the given duration and returns its
// completion time. If then is non-nil, then(arg) runs at completion,
// which with a long-lived then and a pointer-shaped arg allocates
// nothing (see Env.SchedAtArg). Zero-duration work is legal and
// completes after earlier queued work.
func (r *Resource) Submit(e *Env, work Time, then func(any), arg any) Time {
	if work < 0 {
		panic("sim: negative work duration")
	}
	done := max(e.Now(), r.avail) + work
	r.avail = done
	r.busy += work
	r.jobs++
	if then != nil {
		r.laneOn(e).SchedAtArg(done, then, arg)
	}
	return done
}

// On creates the resource's completion lane on e now and returns r.
// Whoever builds a universe binds its resources, so that the lanes are
// part of what building costs: left to laneOn they are allocated inside
// whichever phase first waits on the resource, and a live-heap reading
// around that phase (the benchmark's bytes_per_conn around the first
// dial) charges them to it.
func (r *Resource) On(e *Env) *Resource {
	r.laneOn(e)
	return r
}

// laneOn returns the completion lane, created on first use unless On
// did it: an unbound resource nothing ever waits on costs no lane.
func (r *Resource) laneOn(e *Env) *Lane {
	if r.lane == nil || r.lane.env != e {
		r.lane = e.NewLane()
	}
	return r.lane
}

// Exec queues a work item and blocks the calling process until it
// completes.
func (p *Proc) Exec(r *Resource, work Time) {
	r.Submit(p.env, work, wakeProc, p)
	p.park()
}

// Utilization is a busy-time snapshot taken at a point in time; two
// snapshots bracket a measurement window.
type Utilization struct {
	At   Time
	Busy Time
}

// Snapshot captures the resource's busy time at the current instant.
func (r *Resource) Snapshot(e *Env) Utilization {
	return Utilization{At: e.Now(), Busy: r.busy}
}

// Since returns the busy fraction (0..1+) of the window from the snapshot
// to now. The fraction can exceed 1 transiently because Submit commits
// busy time for queued-but-unfinished work.
func (u Utilization) Since(e *Env, r *Resource) float64 {
	dt := e.Now() - u.At
	if dt <= 0 {
		return 0
	}
	return float64(r.busy-u.Busy) / float64(dt)
}
