package obs

import (
	"strconv"

	"multiedge/internal/sim"
)

// SpanID names one operation span globally: the initiating node, the
// initiator's local connection id, and the operation id the protocol
// assigned on that connection. Frames carry (ConnID, OpID) on the wire
// and each endpoint knows the peer node and the peer's local id for
// every connection, so both sides of a transfer can address the same
// span.
type SpanID struct {
	Node int
	Conn uint32
	Op   uint64
}

// SpanEvent is one timestamped child event of a span: a protocol event
// (Kind) scoped to one operation, with its A and B as Seq and Len. The
// tags name its args in the Chrome trace, whose event carries At and
// Kind itself.
type SpanEvent struct {
	At   sim.Time `json:"-"`
	Kind Kind     `json:"-"`
	Node int      `json:"node"` // node where the event happened
	Link int      `json:"link"` // rail index for frame events, -1 otherwise
	Seq  uint32   `json:"seq"`
	Len  int      `json:"len"` // payload bytes for frame events
}

// Span traces one operation end to end. Fields are written by the
// instrumented layers and read by the exporters; no methods mutate
// simulation state.
type Span struct {
	ID     SpanID
	Name   string // op kind: "write", "read", "write-notify", or layer op
	Layer  string // "core", "dsm", "blk", "msg"
	Size   int    // payload bytes
	Start  sim.Time
	End    sim.Time
	Done   bool
	Events []SpanEvent

	reg *Registry
}

// EnableSpans switches span recording on. Nil-safe.
func (r *Registry) EnableSpans() {
	if r != nil {
		r.spansOn = true
	}
}

// SpansEnabled reports whether spans are being recorded; false on nil,
// so instrumented code can gate all span work on this single check.
func (r *Registry) SpansEnabled() bool { return r != nil && r.spansOn }

// StartOpSpan opens a span for an operation. Returns nil (safe to use)
// when spans are disabled or the registry is nil. Opening the same id
// twice returns the existing span.
func (r *Registry) StartOpSpan(id SpanID, layer, name string, size int) *Span {
	if !r.SpansEnabled() {
		return nil
	}
	if s, ok := r.open[id]; ok {
		return s
	}
	s := &Span{ID: id, Name: name, Layer: layer, Size: size, Start: r.env.Now(), reg: r}
	r.open[id] = s
	r.spans = append(r.spans, s)
	return s
}

// FindSpan returns the open span with the given id, or nil.
func (r *Registry) FindSpan(id SpanID) *Span {
	if !r.SpansEnabled() {
		return nil
	}
	return r.open[id]
}

// StartLayerSpan opens a span that is not tied to a wire-visible
// operation id — DSM page fetches, block commits, message sends. The
// registry allocates it a private id (Conn = layerConn) so it can never
// collide with protocol op ids.
func (r *Registry) StartLayerSpan(node int, layer, name string, size int) *Span {
	if !r.SpansEnabled() {
		return nil
	}
	r.autoOp++
	id := SpanID{Node: node, Conn: layerConn, Op: r.autoOp}
	return r.StartOpSpan(id, layer, name, size)
}

// layerConn is the reserved connection id for layer spans; real
// connection ids are small per-endpoint indices that never get near it.
const layerConn = ^uint32(0)

// Event appends a child event. Nil-safe: instrumented code can hold a
// nil *Span and call this unconditionally.
func (s *Span) Event(at sim.Time, kind Kind, node, link int, seq uint32, n int) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, SpanEvent{At: at, Kind: kind, Node: node, Link: link, Seq: seq, Len: n})
}

// EndAt closes the span at the given time, removes it from the open
// set, and feeds the op-latency histogram. Nil-safe and idempotent.
func (s *Span) EndAt(at sim.Time) {
	if s == nil || s.Done {
		return
	}
	s.Done = true
	s.End = at
	if r := s.reg; r != nil {
		delete(r.open, s.ID)
		r.Histogram("op_latency_us", LatencyBucketsUs, L("layer", s.Layer), L("op", s.Name)).
			Observe(float64(at-s.Start) / 1000) // ns → µs
	}
}

// Retransmits counts the frame-retx events in the span (0 on nil).
func (s *Span) Retransmits() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, e := range s.Events {
		if e.Kind == EvFrameRetx {
			n++
		}
	}
	return n
}

// String renders a compact identity for test failure messages.
func (id SpanID) String() string {
	return "n" + strconv.Itoa(id.Node) + "/c" + strconv.FormatUint(uint64(id.Conn), 10) +
		"/op" + strconv.FormatUint(id.Op, 10)
}
