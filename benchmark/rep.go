package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// opKind is how a loop uses core; latencies are also reported per kind.
type opKind int

const (
	kWrite opKind = iota
	kRead
	kSQ
	kNotify
	nKinds
)

var kindNames = [nKinds]string{"write", "read", "sq", "notify"}

// maxSlots bounds how many operations one loop keeps outstanding.
const maxSlots = 32

// repWatchdog is the wall time after which a rep is given up.
const repWatchdog = 60 * time.Second

var errWatchdog = errors.New("rep exceeded the wall watchdog")

// client is one closed loop: it issues its next operation only after an
// earlier one completed.
type client struct {
	r      *rep
	id     int
	ops    int                          // operations the loop attempts
	run    func(p *sim.Proc, c *client) // the measured loop
	verify func() int                   // regions failing byte-verify after the drain
	region []byte                       // one verified region, for the corruption fault

	lat     [nKinds][]int32 // issue call -> completion of each successful op, virtual ns
	issue   []int32         // issue call -> return of each issue call, virtual ns
	okBytes int64           // payload bytes of successful ops
	errs    int             // ops that returned or completed with an error
	seq     int             // ops begun so far
	kind    [maxSlots]opKind
	t0      [maxSlots]sim.Time
	sp      [maxSlots]int
}

func clampNs(d sim.Time) int32 { return int32(min(int64(d), math.MaxInt32)) }

// begin marks the start of an operation's issue call in the given slot.
func (c *client) begin(slot int, kind opKind) {
	c.kind[slot] = kind
	c.t0[slot] = c.r.env.Now()
	c.sp[slot] = -1
	if c.r.tr != nil && c.seq%opSampling == 0 {
		c.sp[slot] = c.r.tr.begin("issue", c.r.windowSpan, int64(c.id)<<32|int64(c.seq))
	}
	c.seq++
}

// issued marks the return of the issue call begun in the slot.
func (c *client) issued(slot int) {
	c.issue = append(c.issue, clampNs(c.r.env.Now()-c.t0[slot]))
	if id := c.sp[slot]; id >= 0 {
		tr := c.r.tr
		tr.end(id)
		c.sp[slot] = tr.begin("wait", c.r.windowSpan, tr.spans[id].Op)
	}
}

// done records the completion of one operation issued in the slot. A batch
// calls it once per completion-queue entry.
func (c *client) done(slot, payload int, err error) {
	if id := c.sp[slot]; id >= 0 {
		c.r.tr.end(id)
		c.sp[slot] = -1
	}
	if err != nil {
		c.errs++
		return
	}
	k := c.kind[slot]
	c.lat[k] = append(c.lat[k], clampNs(c.r.env.Now()-c.t0[slot]))
	c.okBytes += int64(payload)
}

// faults are deliberate defects the tests inject to see the gates fire.
type faults struct {
	corruptByte bool // flip one byte of a verified region before verifying
	leakConn    bool // leave one conn open at teardown
}

// edge is everything read at one edge of the measurement window.
type edge struct {
	wall       time.Time
	virt       sim.Time
	executed   uint64
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	net        cluster.NetReport
	app, proto []sim.Time // BusyTime per node
	portBytes  []uint64   // byte times sent per link direction
}

// rep is one run of a workload on a fresh cluster.
type rep struct {
	repSpec
	arena *arena

	cl  *cluster.Cluster
	env *sim.Env
	tr  *tracer
	cpu *bytes.Buffer // CPU profile of the window, traced reps only

	clients    []*client
	background []func(p *sim.Proc) // peers of the loops, started with them
	dialed     []*core.Conn        // dialing ends, closed at teardown
	dialNs     []int32
	ports      []portRef
	slices     []slice
	recording  bool
	finished   int
	windowSpan int
	horizon    sim.Time
	deadline   time.Time
	stop       bool

	open, close edge
}

// portRef is one link direction whose utilisation is tracked.
type portRef struct {
	bytes, frames *uint64
}

// addClient registers a loop that attempts ops[k] operations of kind k with
// the given number of issue calls; its sample storage comes from the arena
// so that the live heap is the same in every rep.
func (r *rep) addClient(ops [nKinds]int, issues int, run func(p *sim.Proc, c *client)) *client {
	c := &client{r: r, id: len(r.clients), run: run}
	for k, n := range ops {
		c.ops += n
		c.lat[k] = r.arena.take(n)
	}
	c.issue = r.arena.take(issues)
	r.clients = append(r.clients, c)
	return c
}

// dial establishes a conn from node `from` to node `to`, recording how long
// the handshake took in virtual time.
func (r *rep) dial(p *sim.Proc, from, to int) *core.Conn {
	t0 := r.env.Now()
	c := r.cl.Nodes[from].EP.Dial(p, to, 0)
	r.dialNs = append(r.dialNs, clampNs(r.env.Now()-t0))
	r.dialed = append(r.dialed, c)
	return c
}

// advance runs the simulation until a stop is requested, no live event
// remains, or the watchdog expires. Running in slices of virtual time adds
// no event and moves no clock; it only lets the wall clock be checked.
func (r *rep) advance() error {
	for {
		r.horizon += sliceLen
		t, e := time.Now(), r.env.Executed()
		r.env.RunUntil(r.horizon)
		now := time.Now()
		if r.recording {
			r.slices = append(r.slices, slice{wallNs: int64(now.Sub(t)), events: int64(r.env.Executed() - e)})
		}
		if r.stop {
			r.stop = false
			return nil
		}
		if r.env.PendingLive() == 0 {
			return nil
		}
		if now.After(r.deadline) {
			return errWatchdog
		}
	}
}

// sliceLen is the virtual time the simulation advances between two looks at
// the wall clock: a fraction of a millisecond of wall time on every
// workload, shorter than the stretches in which a shared box slows down.
const sliceLen = 250 * sim.Microsecond

// slice is one sliceLen of virtual time inside the window: how long it took
// and how many events it executed.
type slice struct {
	wallNs, events int64
}

// snap reads one edge of the window. Reads that allocate (Collect) sit
// outside the MemStats reads, and the wall clock is read innermost.
func (r *rep) snap(e *edge, opening bool) {
	var m runtime.MemStats
	if opening {
		r.snapCounters(e)
		runtime.ReadMemStats(&m)
		e.wall = time.Now()
	} else {
		e.wall = time.Now()
		runtime.ReadMemStats(&m)
		r.snapCounters(e)
	}
	e.mallocs, e.allocBytes, e.numGC = m.Mallocs, m.TotalAlloc, m.NumGC
}

func (r *rep) snapCounters(e *edge) {
	e.virt = r.env.Now()
	e.executed = r.env.Executed()
	e.net = r.cl.Collect()
	e.app, e.proto = e.app[:0], e.proto[:0]
	for _, n := range r.cl.Nodes {
		e.app = append(e.app, n.CPUs.App.BusyTime())
		e.proto = append(e.proto, n.CPUs.Proto.BusyTime())
	}
	e.portBytes = e.portBytes[:0]
	for _, p := range r.ports {
		e.portBytes = append(e.portBytes, *p.bytes+uint64(frame.WireLen(0))**p.frames)
	}
}

// finish is called by every loop when it ends; the last one closes the
// window from inside the simulation and stops the run.
func (r *rep) finish() {
	r.finished++
	if r.finished < len(r.clients) {
		return
	}
	r.snap(&r.close, false)
	if r.cpu != nil {
		pprof.StopCPUProfile()
	}
	r.stop = true
	r.env.Stop()
}

// heapAlloc collects garbage and returns the live heap. With release set it
// also hands every free page back to the operating system, which puts the
// allocator in the same state before every rep: whether a fresh cluster's
// memory comes from recycled pages (cleared by the runtime) or from new ones
// (cleared by the kernel on first touch) otherwise depends on how far the
// background scavenger got, and set-up time is twice as long one way as the
// other.
func heapAlloc(release bool) uint64 {
	if release {
		debug.FreeOSMemory()
	} else {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// repResult is what survives a rep once its cluster is dropped.
type repResult struct {
	Seed      int64 `json:"seed"`
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
	Ops       int   `json:"ops"`   // completed and verified
	Bytes     int64 `json:"bytes"` // payload of completed ops

	VirtNs  int64 `json:"virt_ns"`  // window, virtual time
	WallNs  int64 `json:"wall_ns"`  // window, wall time
	BuildNs int64 `json:"build_ns"` // set-up: cluster.New, wall time
	FillNs  int64 `json:"fill_ns"`  // set-up: Alloc and fill, wall time
	DialNs  int64 `json:"dial_ns"`  // set-up: establishing every conn, wall time

	Executed   uint64 `json:"events"`
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	NumGC      uint32 `json:"gc_cycles"`

	AppBusyNs    int64   `json:"app_busy_ns"`   // all nodes
	ProtoBusyNs  int64   `json:"proto_busy_ns"` // all nodes
	AppBusyMax   int64   `json:"app_busy_max_ns"`
	ProtoBusyMax int64   `json:"proto_busy_max_ns"`
	LinkUtilPct  float64 `json:"link_util_pct"` // busiest link direction

	HeapBuild   int64 `json:"heap_build_bytes"` // live heap added by cluster.New and fill
	HeapConns   int64 `json:"heap_conns_bytes"` // live heap added by establishing every conn
	Conns       int   `json:"conns"`            // Conn objects on both ends
	PendingEnd  int   `json:"pending_events_end"`
	ActiveEnd   int   `json:"active_conns_end"`
	IssueWallNs int64 `json:"issue_wall_ns,omitempty"` // sampled issue spans, traced reps
	WaitWallNs  int64 `json:"wait_wall_ns,omitempty"`  // sampled wait spans, traced reps

	Errors []string `json:"errors,omitempty"`

	net    cluster.NetReport
	slices []slice
	dialNs []int32
	lat    [nKinds][][]int32 // per kind, one slice per loop
	issue  [][]int32
	tr     *tracer
	cpu    []byte
}

// repSpec says which rep to run.
type repSpec struct {
	w         *workload
	sz        sizing
	seed      int64 // cluster seed
	idx       int   // keys the workload inputs together with seed
	share     int   // arena share to record samples into
	traced    bool  // record spans and a CPU profile of the window
	setupOnly bool  // stop once every conn is established
	faults    faults
}

// runRep runs one rep on a fresh cluster: set-up, window, teardown, verify,
// collect.
func runRep(s repSpec, ar *arena) *repResult {
	r := &rep{repSpec: s, arena: ar, windowSpan: -1}
	ar.use(s.share)
	res := &repResult{Seed: s.seed}
	if s.traced {
		r.tr = newTracer(1 << 16)
		r.cpu = new(bytes.Buffer)
	}
	repSpan := r.tr.begin("rep", -1, -1)
	if err := r.setUp(res, repSpan); err != nil {
		res.Errors = append(res.Errors, fmt.Sprintf("set-up: %v", err))
		res.Failed = res.Attempted
		return res
	}
	if s.setupOnly {
		return res
	}
	r.measure(res, repSpan)
	r.tr.end(repSpan)
	if r.tr != nil {
		res.tr = r.tr
		res.IssueWallNs, res.WaitWallNs = r.tr.wallByName("issue"), r.tr.wallByName("wait")
	}
	if r.cpu != nil {
		res.cpu = r.cpu.Bytes()
	}
	return res
}

// setUp builds the cluster, fills the buffers and establishes every conn.
// The heap readings between the steps are not part of the set-up time.
func (r *rep) setUp(res *repResult, repSpan int) error {
	tr := r.tr
	heap0 := heapAlloc(true)
	r.deadline = time.Now().Add(repWatchdog)
	setupSpan := tr.begin("setup", repSpan, -1)
	cfg, missing := r.w.config(r.sz)
	cfg.Seed = r.seed
	for _, m := range missing {
		noteMissing(m)
	}
	t := time.Now()
	sp := tr.begin("cluster.New", setupSpan, -1)
	r.cl = cluster.New(cfg)
	r.env = r.cl.Env
	if tr != nil {
		tr.env = r.env.Now
	}
	tr.end(sp)
	res.BuildNs = int64(time.Since(t))

	sp = tr.begin("fill", setupSpan, -1)
	connect := r.w.prepare(r)
	for n := range r.cl.Nodes {
		for l := range r.cl.Nodes[n].NICs {
			for _, p := range r.cl.RailPorts(n, l) {
				r.ports = append(r.ports, portRef{&p.TxBytes, &p.TxFrames})
			}
		}
	}
	for _, e := range []*edge{&r.open, &r.close} {
		e.app = make([]sim.Time, 0, len(r.cl.Nodes))
		e.proto = make([]sim.Time, 0, len(r.cl.Nodes))
		e.portBytes = make([]uint64, 0, len(r.ports))
	}
	tr.end(sp)
	res.FillNs = int64(time.Since(t)) - res.BuildNs
	heap1 := heapAlloc(false)
	res.HeapBuild = int64(heap1) - int64(heap0)

	t = time.Now()
	sp = tr.begin("dial", setupSpan, -1)
	connect()
	err := r.advance()
	tr.end(sp)
	res.DialNs = int64(time.Since(t))
	tr.end(setupSpan)
	res.HeapConns = int64(heapAlloc(false)) - int64(heap1)
	for _, n := range r.cl.Nodes {
		res.Conns += n.EP.ActiveConns()
	}
	res.dialNs = r.dialNs
	for _, c := range r.clients {
		res.Attempted += c.ops
	}
	return err
}

// measure runs the window, tears the conns down, verifies every region and
// checks the leak gates.
func (r *rep) measure(res *repResult, repSpan int) {
	tr, f := r.tr, r.faults
	fail := func(format string, a ...any) {
		res.Errors = append(res.Errors, fmt.Sprintf(format, a...))
	}
	// Window: every loop starts at the same instant; the last to finish
	// closes the window.
	r.windowSpan = tr.begin("window", repSpan, -1)
	for _, c := range r.clients {
		r.env.Go(fmt.Sprintf("loop%d", c.id), func(p *sim.Proc) {
			c.run(p, c)
			r.finish()
		})
	}
	for i, bg := range r.background {
		r.env.Go(fmt.Sprintf("peer%d", i), bg)
	}
	if r.cpu != nil {
		if err := pprof.StartCPUProfile(r.cpu); err != nil {
			fail("cpu profile: %v", err)
			r.cpu = nil
		}
	}
	r.slices = make([]slice, 0, 1<<16)
	r.snap(&r.open, true)
	r.recording = true
	err := r.advance()
	r.recording = false
	tr.end(r.windowSpan)
	res.slices = r.slices
	if r.finished < len(r.clients) {
		// Deadlock or watchdog: close the window here so that what did
		// complete is still reported; the rest counts as failed.
		r.snap(&r.close, false)
		if r.cpu != nil {
			pprof.StopCPUProfile()
		}
		if err == nil {
			err = errors.New("simulation drained with loops unfinished")
		}
		fail("window: %v (%d of %d loops finished)", err, r.finished, len(r.clients))
	}

	// Teardown: close every conn from its dialing end and drain.
	tdSpan := tr.begin("teardown", repSpan, -1)
	if err == nil {
		sp := tr.begin("close", tdSpan, -1)
		for i, c := range r.dialed {
			if f.leakConn && i == 0 {
				continue
			}
			r.env.Go("close", func(p *sim.Proc) { c.Close(p) })
		}
		tr.end(sp)
		sp = tr.begin("drain", tdSpan, -1)
		if err := r.advance(); err != nil {
			fail("teardown: %v", err)
		}
		tr.end(sp)
	}
	tr.end(tdSpan)

	// Verify every region written or read, then the leak gates.
	sp := tr.begin("verify", repSpan, -1)
	if f.corruptByte {
		b := r.clients[0].region
		b[len(b)/2] ^= 0x40
	}
	for _, c := range r.clients {
		bad := c.verify()
		if bad > 0 {
			fail("loop %d: %d regions fail byte-verify", c.id, bad)
		}
		ok := -bad
		for k := range c.lat {
			ok += len(c.lat[k])
			res.lat[k] = append(res.lat[k], c.lat[k])
		}
		ok = max(ok, 0)
		res.Ops += ok
		res.Failed += c.ops - ok
		res.Bytes += c.okBytes
		res.issue = append(res.issue, c.issue)
	}
	tr.end(sp)

	sp = tr.begin("collect", repSpan, -1)
	res.PendingEnd = r.env.PendingEvents()
	for _, n := range r.cl.Nodes {
		res.ActiveEnd += n.EP.ActiveConns()
	}
	if res.PendingEnd != 0 || res.ActiveEnd != 0 {
		fail("leak: %d events pending, %d conns active after teardown", res.PendingEnd, res.ActiveEnd)
	}
	r.window(res)
	tr.end(sp)
}

// window turns the two edges into the rep's window figures.
func (r *rep) window(res *repResult) {
	o, c := &r.open, &r.close
	res.VirtNs = int64(c.virt - o.virt)
	res.WallNs = int64(c.wall.Sub(o.wall))
	res.Executed = c.executed - o.executed
	res.Mallocs = c.mallocs - o.mallocs
	res.AllocBytes = c.allocBytes - o.allocBytes
	res.NumGC = c.numGC - o.numGC
	res.net = c.net.Sub(o.net)
	for i := range c.app {
		a, p := int64(c.app[i]-o.app[i]), int64(c.proto[i]-o.proto[i])
		res.AppBusyNs += a
		res.ProtoBusyNs += p
		res.AppBusyMax = max(res.AppBusyMax, a)
		res.ProtoBusyMax = max(res.ProtoBusyMax, p)
	}
	var busiest uint64
	for i := range c.portBytes {
		busiest = max(busiest, c.portBytes[i]-o.portBytes[i])
	}
	linkNs := float64(busiest) * float64(r.cl.Cfg.Link.PsPerByte) / 1000
	res.LinkUtilPct = 100 * ratio(linkNs, float64(res.VirtNs))
}

// arena hands out sample storage from one allocation made before the first
// rep, so that keeping the samples of earlier reps does not grow the heap
// (and change the garbage collector's pace) from rep to rep.
type arena struct {
	buf       []int32
	share     int // samples one rep may take
	used, end int // the part of the current share handed out, and its end
}

func newArena(share, shares int) *arena {
	return &arena{buf: make([]int32, share*shares), share: share}
}

// use makes share i the one take hands out.
func (a *arena) use(i int) {
	a.used = i * a.share
	a.end = a.used + a.share
}

// take returns an empty slice with room for n samples.
func (a *arena) take(n int) []int32 {
	if a.used+n > a.end || a.end > len(a.buf) {
		return make([]int32, 0, n) // sizing bug; stay correct
	}
	s := a.buf[a.used : a.used : a.used+n]
	a.used += n
	return s
}
