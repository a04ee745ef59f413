package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"multiedge/internal/sim"
)

// evil holds every character a hand-written JSON writer tends to get
// wrong: a quote, a backslash, a newline, HTML's < and &, and non-ASCII
// text.
const evil = "a \"quoted\" C:\\path\nnext <b>&amp; µs–ü"

// decode unmarshals doc into v, failing the test on any error.
func decode(t *testing.T, doc []byte, v any) {
	t.Helper()
	if doc == nil {
		t.Fatal("document did not encode")
	}
	if err := json.Unmarshal(doc, v); err != nil {
		t.Fatalf("decode: %v\n%s", err, doc)
	}
}

// TestSnapshotJSONRoundTrip: every sample of a snapshot decodes back to
// its name, labels, value and type.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env)
	r.Gauge("depth", L("path", evil), NodeLabel(3)).Add(2.5)
	r.Histogram("lat_us", []float64{1, 10}, L(evil, "k")).Observe(4)
	r.AddCollector(func(emit func(Sample)) {
		emit(Sample{Name: "frames_total", Labels: []Label{L("why", evil)}, Value: 1e21, Type: TypeCounter})
	})
	env.RunUntil(7 * sim.Microsecond)
	snap := r.Gather()

	var doc struct {
		AtNs    sim.Time `json:"at_ns"`
		Samples []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
			Type   string            `json:"type"`
		} `json:"samples"`
	}
	decode(t, snap.JSON(), &doc)
	if doc.AtNs != snap.At || len(doc.Samples) != len(snap.Samples) {
		t.Fatalf("at %v with %d samples; want %v with %d", doc.AtNs, len(doc.Samples), snap.At, len(snap.Samples))
	}
	for i, want := range snap.Samples {
		got := doc.Samples[i]
		labels := map[string]string{}
		for _, l := range want.Labels {
			labels[l.Key] = l.Value
		}
		if got.Name != want.Name || !reflect.DeepEqual(got.Labels, labels) ||
			got.Value != want.Value || got.Type != metricTypeNames[want.Type] {
			t.Errorf("sample %d decoded as %+v; want %+v", i, got, want)
		}
	}
}

// TestHealthTimelineRoundTrip: a health timeline decodes back into the
// EndpointHealth values sampled, and empty lists stay lists.
func TestHealthTimelineRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env)
	entry := EndpointHealth{Node: 2, ActiveConns: 1, SchedCtrlQ: 3, SchedSendQ: 4,
		Conns: []ConnHealth{{Conn: 1, Peer: 0, State: evil, Incarnation: 9, Reconnects: 2,
			SRTTUs: 12.25, RTTVarUs: 0.5, RTOUs: 200, Rails: []RailHealth{{SRTTUs: 11, RTTVarUs: 1, RTOUs: 100}},
			Inflight: 5, Window: 16, Cwnd: 8, SQDepth: 1, CQDepth: 2, JournalOps: 3, BytesAcked: 1 << 40}}}
	r.SampleHealth(2, sim.Millisecond, func() EndpointHealth {
		e := entry
		e.At = env.Now()
		return e
	})
	r.SampleHealth(5, 2*sim.Millisecond, func() EndpointHealth { return EndpointHealth{At: env.Now(), Node: 5} })
	env.Go("work", func(p *sim.Proc) { p.Sleep(5 * sim.Millisecond) })
	env.Run()
	r.Quiesce()

	out := HealthTimelineJSON(r.HealthLogs())
	var doc struct {
		Schema string `json:"schema"`
		Nodes  []struct {
			Node    int              `json:"node"`
			EveryNs sim.Time         `json:"every_ns"`
			Entries []EndpointHealth `json:"entries"`
		} `json:"nodes"`
	}
	decode(t, out, &doc)
	if doc.Schema != "multiedge-health/v1" || len(doc.Nodes) != 2 {
		t.Fatalf("schema %q with %d nodes", doc.Schema, len(doc.Nodes))
	}
	for i, l := range r.HealthLogs() {
		got := doc.Nodes[i]
		if got.Node != l.Node || got.EveryNs != l.Every || len(got.Entries) != len(l.Entries) {
			t.Fatalf("node %d decoded as %d every %v with %d entries", l.Node, got.Node, got.EveryNs, len(got.Entries))
		}
		for j, want := range l.Entries {
			if want.Conns == nil {
				want.Conns = []ConnHealth{} // written as [], decoded as empty
			}
			if !reflect.DeepEqual(got.Entries[j], want) {
				t.Errorf("node %d entry %d decoded as %+v; want %+v", l.Node, j, got.Entries[j], want)
			}
		}
	}
	if bytes.Contains(out, []byte("null")) {
		t.Errorf("an empty list was written as null:\n%s", out)
	}
}

// TestPostMortemRoundTrip: a dump decodes back to its cause, faults and
// events, with NoConn as -1 and kinds by name.
func TestPostMortemRoundTrip(t *testing.T) {
	r0 := NewRecorder(0, 4, FlightKinds)
	for i := range 6 {
		r0.Record(sim.Time(1000*i), 1, EvDoorbell, int64(i), 0)
	}
	r0.Record(9000, NoConn, EvRateDefer, 2, 500)
	r1 := NewRecorder(1, 8, FlightKinds)
	faults := []TimelineNote{{At: 2500, Text: evil}, {At: 1500, Text: "pause"}}
	pm := BuildPostMortem(evil, 10000, faults, r1, r0)

	type event struct {
		AtNs sim.Time `json:"at_ns"`
		Conn int64    `json:"conn"`
		Kind string   `json:"kind"`
		A, B int64
	}
	var doc struct {
		Schema string         `json:"schema"`
		Cause  string         `json:"cause"`
		AtNs   sim.Time       `json:"at_ns"`
		Faults []TimelineNote `json:"faults"`
		Nodes  []struct {
			Node        int     `json:"node"`
			Recorded    uint64  `json:"recorded"`
			Overwritten uint64  `json:"overwritten"`
			Events      []event `json:"events"`
		} `json:"nodes"`
	}
	out := pm.JSON()
	decode(t, out, &doc)
	if doc.Schema != "multiedge-postmortem/v1" || doc.Cause != pm.Cause || doc.AtNs != pm.At ||
		!reflect.DeepEqual(doc.Faults, pm.Faults) || len(doc.Nodes) != len(pm.Nodes) {
		t.Fatalf("dump decoded as %+v; want %+v", doc, pm)
	}
	for i, n := range pm.Nodes {
		got := doc.Nodes[i]
		if got.Node != n.Node || got.Recorded != n.Recorded || got.Overwritten != n.Overwritten ||
			len(got.Events) != len(n.Events) {
			t.Fatalf("node %d decoded as %+v; want %+v", n.Node, got, n)
		}
		for j, ev := range n.Events {
			conn := int64(ev.Conn)
			if ev.Conn == NoConn {
				conn = -1
			}
			if want := (event{ev.At, conn, ev.Kind.String(), ev.A, ev.B}); got.Events[j] != want {
				t.Errorf("node %d event %d decoded as %+v; want %+v", n.Node, j, got.Events[j], want)
			}
		}
	}
	if !bytes.Contains(out, []byte(`"conn":-1`)) || !bytes.Contains(out, []byte(`"events":[]`)) {
		t.Errorf("dump lacks the NoConn event or node 1's empty event list:\n%s", out)
	}
}

// TestChromeTraceRoundTrip: every span, child event and sampler tick
// decodes back from the trace, and metadata events carry no ts.
func TestChromeTraceRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env)
	r.EnableSpans()
	r.Sample("q", 1, []Label{L("path", evil)}, 4*sim.Microsecond, func() float64 { return 0.125 })
	s := r.StartOpSpan(SpanID{Node: 0, Conn: 2, Op: 7}, "core", evil, 256)
	env.RunUntil(5 * sim.Microsecond)
	s.Event(env.Now(), EvFrameTx, 1, 1, 42, 256)
	s.EndAt(6 * sim.Microsecond)
	open := r.StartLayerSpan(1, evil, "page-fetch", 4096)
	open.Event(env.Now(), EvRxApply, 1, -1, 3, 4096)
	env.RunUntil(9 * sim.Microsecond)
	r.Quiesce()

	type event struct {
		Ph   string          `json:"ph"`
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Pid  int             `json:"pid"`
		Tid  int             `json:"tid"`
		Ts   *float64        `json:"ts"`
		Dur  float64         `json:"dur"`
		S    string          `json:"s"`
		Args json.RawMessage `json:"args"`
	}
	var doc struct {
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		TraceEvents     []event `json:"traceEvents"`
	}
	decode(t, r.ChromeTrace(), &doc)
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	us := func(t sim.Time) float64 { return float64(t) / 1000 }
	var spans []*Span
	var names []string
	var counters int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Ts != nil {
				t.Errorf("metadata event %s carries ts %v", e.Name, *e.Ts)
			}
			var args struct{ Name string }
			decode(t, e.Args, &args)
			names = append(names, args.Name)
		case "X":
			sp := r.spans[len(spans)]
			spans = append(spans, sp)
			var args struct {
				ID                 string
				Size, Events, Retx int
				Unfinished         bool
			}
			decode(t, e.Args, &args)
			end := sp.End
			if !sp.Done {
				end = env.Now()
			}
			if e.Name != sp.Name || e.Cat != sp.Layer || e.Pid != sp.ID.Node || e.Ts == nil ||
				*e.Ts != us(sp.Start) || e.Dur != us(end-sp.Start) || args.ID != sp.ID.String() ||
				args.Size != sp.Size || args.Events != len(sp.Events) || args.Unfinished == sp.Done {
				t.Errorf("span decoded as %+v %+v; want %+v", e, args, sp)
			}
		case "i":
			sp := spans[len(spans)-1]
			var args struct {
				Op string
				SpanEvent
			}
			decode(t, e.Args, &args)
			want := sp.Events[0]
			args.At, args.Kind = want.At, want.Kind
			if e.Name != want.Kind.String() || e.Cat != sp.Layer || e.Ts == nil || *e.Ts != us(want.At) ||
				e.S != "t" || args.Op != sp.ID.String() || args.SpanEvent != want {
				t.Errorf("child event decoded as %+v %+v; want %+v", e, args, want)
			}
		case "C":
			var args struct{ Value float64 }
			decode(t, e.Args, &args)
			sp := r.samplers[0]
			if e.Name != "q path="+evil || e.Pid != sp.Node || *e.Ts != us(sp.Times[counters]) ||
				args.Value != sp.Values[counters] {
				t.Errorf("counter decoded as %+v %+v", e, args)
			}
			counters++
		}
	}
	if len(spans) != 2 || counters != len(r.samplers[0].Times) || !strings.Contains(strings.Join(names, "|"), evil) {
		t.Fatalf("decoded %d spans, %d counters, track names %q", len(spans), counters, names)
	}
}

// TestNonFiniteIsAnError: a NaN or infinite value reaches the caller of
// WriteFiles as an error, and no invalid document is written.
func TestNonFiniteIsAnError(t *testing.T) {
	r := New(sim.NewEnv(1))
	r.Gauge("ratio").Add(math.NaN())
	if doc := r.Gather().JSON(); doc != nil {
		t.Fatalf("NaN encoded as %s", doc)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if _, err := r.WriteFiles(path, true, false); err == nil {
		t.Fatal("WriteFiles accepted a NaN gauge")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a document was written anyway (stat: %v)", err)
	}
}

// TestGatherIndependentOfCreationOrder: two registries fed the same
// gauges and histograms, created in different orders, gather the same
// snapshot.
func TestGatherIndependentOfCreationOrder(t *testing.T) {
	feed := func(reverse bool) Snapshot {
		r := New(sim.NewEnv(1))
		steps := []func(){
			func() { r.Gauge("depth", NodeLabel(1)).Add(3) },
			func() { r.Gauge("depth", NodeLabel(0)).Add(1) },
			func() { r.Histogram("lat_us", []float64{10}, NodeLabel(0)).Observe(4) },
			func() { r.Histogram("lat_us", []float64{10}, L("le_src", evil)).Observe(40) },
			func() { r.Gauge("aaa").Add(-1) },
			func() { r.Histogram("op_latency_us", LatencyBucketsUs, L("layer", "core"), L("op", "read")).Observe(2) },
		}
		for i := range steps {
			if reverse {
				i = len(steps) - 1 - i
			}
			steps[i]()
		}
		return r.Gather()
	}
	a, b := feed(false), feed(true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("creation order changed the snapshot:\n%v\n%v", a, b)
	}
	if !bytes.Equal(a.JSON(), b.JSON()) || !bytes.Equal(a.Prometheus(), b.Prometheus()) {
		t.Fatal("creation order changed an export")
	}
}
