package obs

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"multiedge/internal/sim"
)

// Recorder: a fixed-size, allocation-free ring buffer of protocol events
// (Kind), one per endpoint, built for a set of kinds. The flight
// recorder (FlightKinds) is cheap enough to leave on unconditionally in
// every stress harness: recording one event is a bounds-checked store
// into a preallocated array plus a few integer updates — no allocation,
// no RNG, no scheduled event — so it can never perturb the simulation
// or its determinism. When a chaos invariant, leak gate or peer-death
// path fires, the rings are frozen into a PostMortem: a cause-tagged
// dump of the last events per connection, as JSON and as a
// human-readable timeline. The traffic view (TrafficKinds) renders the
// same ring as per-kind totals and a bucketed timeline.

// stateTransition reports whether k changes the connection's lifecycle
// state — the events a post-mortem timeline must always keep for the
// victim connection.
func stateTransition(k Kind) bool {
	switch k {
	case EvDial, EvEstablished, EvClosed, EvFailed, EvPeerDead,
		EvReconnect, EvRebirth:
		return true
	}
	return false
}

// NoConn marks endpoint-level events not tied to one connection.
const NoConn = ^uint32(0)

// Event is one recorded protocol event. 32 bytes, stored by value in the
// ring: recording allocates nothing.
type Event struct {
	At   sim.Time
	A, B int64
	Conn uint32
	Kind Kind
}

// Recorder is one endpoint's event ring. The zero-size ring is invalid;
// create with NewRecorder. A nil *Recorder is the disabled state: Record
// is a nil-check no-op, so instrumented code holds one unconditionally.
type Recorder struct {
	node        int
	kinds       KindSet
	buf         []Event
	n           uint64 // events ever recorded; n - len(buf) of them overwritten
	count       [kindCount]uint64
	bytes       [kindCount]uint64 // sums of B over byteKinds
	first, last sim.Time
}

// DefaultRecorderEvents is the per-endpoint ring capacity harnesses use
// unless configured otherwise (32 KiB per endpoint at 32 B/event).
const DefaultRecorderEvents = 1024

// NewRecorder creates a recorder for node that keeps the given kinds in
// a ring of the given capacity (DefaultRecorderEvents if size <= 0).
func NewRecorder(node, size int, kinds KindSet) *Recorder {
	if size <= 0 {
		size = DefaultRecorderEvents
	}
	return &Recorder{node: node, kinds: kinds, buf: make([]Event, 0, size)}
}

// Record appends one event if the recorder was built for its kind,
// overwriting the oldest once the ring is full. The per-kind totals keep
// counting what falls off. Nil-safe and allocation-free.
func (r *Recorder) Record(at sim.Time, conn uint32, k Kind, a, b int64) {
	if !r.Takes(k) {
		return
	}
	ev := Event{At: at, A: a, B: b, Conn: conn, Kind: k}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.n%uint64(len(r.buf))] = ev
	}
	if r.n == 0 {
		r.first = at
	}
	r.n++
	r.last = at
	r.count[k]++
	if byteKinds.Has(k) {
		r.bytes[k] += uint64(b)
	}
}

// Takes reports whether the recorder keeps kind k (false on nil), so a
// caller can skip building an event nobody records.
func (r *Recorder) Takes(k Kind) bool { return r != nil && r.kinds.Has(k) }

// Count returns how many events of kind k were recorded, including
// those the ring has since overwritten (0 on nil).
func (r *Recorder) Count(k Kind) uint64 {
	if r == nil || k >= kindCount {
		return 0
	}
	return r.count[k]
}

// Bytes returns the payload bytes recorded for kind k (0 on nil, and for
// kinds whose B is not a byte count).
func (r *Recorder) Bytes(k Kind) uint64 {
	if r == nil || k >= kindCount {
		return 0
	}
	return r.bytes[k]
}

// Events returns the ring's contents in recording order (oldest first).
// The slice is freshly allocated; the ring keeps recording.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	head := int(r.n % uint64(len(r.buf))) // oldest surviving event (0 until the ring wraps)
	return append(append(make([]Event, 0, len(r.buf)), r.buf[head:]...), r.buf[:head]...)
}

// Summary renders the per-kind totals of every kind recorded at least
// once, with the span of time they cover.
func (r *Recorder) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %v .. %v\n", r.first, r.last)
	for k := Kind(1); k < kindCount; k++ {
		if r.count[k] > 0 {
			fmt.Fprintf(&b, "  %-11s %8d events %12d bytes\n", k, r.count[k], r.bytes[k])
		}
	}
	return b.String()
}

// Timeline renders the ring's events bucketed by the given interval: a
// header naming every kind the recorder takes, then one row of per-kind
// counts per bucket — a text version of the paper's traffic-over-time
// analysis. Columns are as wide as the longest name plus one.
func (r *Recorder) Timeline(bucket sim.Time) string {
	evs := r.Events()
	if len(evs) == 0 {
		return "trace: no events\n"
	}
	var kinds []Kind
	w := 0
	for k := Kind(1); k < kindCount; k++ {
		if r.kinds.Has(k) {
			kinds = append(kinds, k)
			w = max(w, len(k.String())+1)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%12s", "t")
	for _, k := range kinds {
		fmt.Fprintf(&b, "%*s", w, k)
	}
	fmt.Fprintln(&b)
	var row [kindCount]int
	flush := func(at sim.Time) {
		fmt.Fprintf(&b, "%12v", at)
		for _, k := range kinds {
			fmt.Fprintf(&b, "%*d", w, row[k])
		}
		fmt.Fprintln(&b)
		row = [kindCount]int{}
	}
	cur := evs[0].At / bucket * bucket
	for _, ev := range evs {
		for ev.At >= cur+bucket {
			flush(cur)
			cur += bucket
		}
		row[ev.Kind]++
	}
	flush(cur)
	return b.String()
}

// TimelineNote is one non-recorder entry merged into a post-mortem
// timeline — typically an injected fault from the chaos Runner.
type TimelineNote struct {
	At   sim.Time `json:"at_ns"`
	Text string   `json:"what"`
}

// NodeEvents is one node's slice of a post-mortem: the last events per
// connection, in recording order.
type NodeEvents struct {
	Node        int     `json:"node"`
	Recorded    uint64  `json:"recorded"`    // events ever recorded on this node
	Overwritten uint64  `json:"overwritten"` // events lost to ring wraparound
	Events      []Event `json:"events"`
}

// PostMortem is a frozen, cause-tagged flight-recorder dump, built when
// a chaos invariant, leak gate or peer-death path fires.
type PostMortem struct {
	Cause  string         `json:"cause"`
	At     sim.Time       `json:"at_ns"`
	Faults []TimelineNote `json:"faults"` // injected faults, chronological
	Nodes  []NodeEvents   `json:"nodes"`  // one entry per attached recorder, by node
}

// postMortemLastN bounds the per-connection tail kept in a dump. State
// transitions are always kept regardless of the bound.
const postMortemLastN = 16

// BuildPostMortem freezes the given recorders (nils skipped) into a
// cause-tagged dump: for every node, the last postMortemLastN events of
// each connection plus every lifecycle state transition still in the
// ring. Pass the injected-fault timeline (may be nil) so the dump can
// interleave causes with effects.
func BuildPostMortem(cause string, at sim.Time, faults []TimelineNote, recs ...*Recorder) *PostMortem {
	pm := &PostMortem{Cause: cause, At: at, Faults: slices.Clone(faults)}
	sort.SliceStable(pm.Faults, func(i, j int) bool { return pm.Faults[i].At < pm.Faults[j].At })
	for _, r := range recs {
		if r == nil {
			continue
		}
		all := r.Events()
		ne := NodeEvents{Node: r.node, Recorded: r.n, Overwritten: r.n - uint64(len(all))}
		// Count per-conn tails from the end, keeping state transitions
		// unconditionally so a busy conn's doorbell storm cannot push its
		// own failure history out of the dump.
		tail := make(map[uint32]int)
		for i := len(all) - 1; i >= 0; i-- {
			if ev := all[i]; stateTransition(ev.Kind) || tail[ev.Conn] < postMortemLastN {
				ne.Events = append(ne.Events, ev)
				tail[ev.Conn]++
			}
		}
		slices.Reverse(ne.Events)
		pm.Nodes = append(pm.Nodes, ne)
	}
	sort.SliceStable(pm.Nodes, func(i, j int) bool { return pm.Nodes[i].Node < pm.Nodes[j].Node })
	return pm
}

// JSON renders the dump as a JSON document. Endpoint-level events
// (NoConn) carry conn -1, and kinds are written by name.
func (pm *PostMortem) JSON() []byte {
	type event struct {
		AtNs sim.Time `json:"at_ns"`
		Conn int64    `json:"conn"`
		Kind string   `json:"kind"`
		A    int64    `json:"a"`
		B    int64    `json:"b"`
	}
	type node struct {
		NodeEvents
		Events []event `json:"events"` // in place of NodeEvents.Events
	}
	nodes := make([]node, 0, len(pm.Nodes))
	for _, n := range pm.Nodes {
		events := make([]event, 0, len(n.Events))
		for _, ev := range n.Events {
			conn := int64(ev.Conn)
			if ev.Conn == NoConn {
				conn = -1
			}
			events = append(events, event{AtNs: ev.At, Conn: conn, Kind: ev.Kind.String(), A: ev.A, B: ev.B})
		}
		nodes = append(nodes, node{NodeEvents: n, Events: events})
	}
	return EncodeJSON(struct {
		Schema string `json:"schema"`
		*PostMortem
		Faults []TimelineNote `json:"faults"` // in place of PostMortem's, [] when none
		Nodes  []node         `json:"nodes"`
	}{Schema: "multiedge-postmortem/v1", PostMortem: pm, Faults: list(pm.Faults), Nodes: nodes})
}

// Timeline renders the dump as a human-readable, chronologically merged
// timeline: injected faults and every node's kept events, one line
// each, cause-tagged in the header.
func (pm *PostMortem) Timeline() string {
	type line struct {
		at   sim.Time
		text string
	}
	var lines []line
	for _, f := range pm.Faults {
		lines = append(lines, line{f.At, fmt.Sprintf("FAULT  %s", f.Text)})
	}
	for _, n := range pm.Nodes {
		for _, ev := range n.Events {
			conn := "conn " + strconv.FormatUint(uint64(ev.Conn), 10)
			if ev.Conn == NoConn {
				conn = "endpoint"
			}
			lines = append(lines, line{ev.At, fmt.Sprintf("n%-3d %-8s %-12s a=%d b=%d",
				n.Node, conn, ev.Kind.String(), ev.A, ev.B)})
		}
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].at < lines[j].at })
	var b strings.Builder
	fmt.Fprintf(&b, "POST-MORTEM at %s: %s\n", fmtTime(pm.At), pm.Cause)
	for _, n := range pm.Nodes {
		fmt.Fprintf(&b, "  node %d: %d events recorded, %d overwritten, %d in dump\n",
			n.Node, n.Recorded, n.Overwritten, len(n.Events))
	}
	for _, l := range lines {
		fmt.Fprintf(&b, "  %12s  %s\n", fmtTime(l.at), l.text)
	}
	return b.String()
}

// fmtTime renders a virtual timestamp as microseconds for timelines.
func fmtTime(t sim.Time) string { return string(us(t)) + "us" }
