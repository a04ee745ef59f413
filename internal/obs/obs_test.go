package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"multiedge/internal/sim"
)

// Stop halts one sampler ahead of Quiesce, so the tests can stop a
// single series; programs only ever stop them all. Nil-safe.
func (s *Sampler) Stop() {
	if s != nil {
		s.stop()
	}
}

// Stop does the same for one health log.
func (l *HealthLog) Stop() {
	if l != nil {
		l.stop()
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	// Every method must be a no-op, not a panic.
	r.Gauge("g").Add(1)
	r.Histogram("h", nil).Observe(2)
	r.AddCollector(func(emit func(Sample)) { emit(Sample{Name: "y"}) })
	r.EnableSpans()
	if r.SpansEnabled() {
		t.Fatal("nil registry reports spans enabled")
	}
	sp := r.StartOpSpan(SpanID{}, "core", "write", 10)
	sp.Event(0, EvFrameTx, 0, 0, 0, 0)
	sp.EndAt(5)
	r.StartLayerSpan(0, "dsm", "page-fetch", 4096).EndAt(1)
	if r.FindSpan(SpanID{}) != nil {
		t.Fatal("nil registry found a span")
	}
	r.Sample("q", 0, nil, sim.Microsecond, func() float64 { return 0 }).Stop()
	r.Quiesce()
	snap := r.Gather()
	if len(snap.Samples) != 0 {
		t.Fatalf("nil registry gathered %d samples", len(snap.Samples))
	}
	if out := r.ChromeTrace(); !json.Valid(out) {
		t.Fatalf("nil ChromeTrace invalid JSON: %s", out)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env)
	// Counters reach the registry as collector samples.
	r.AddCollector(func(emit func(Sample)) {
		emit(Sample{Name: "frames_total", Labels: []Label{L("link", "1"), NodeLabel(0)}, Value: 5, Type: TypeCounter})
	})
	g := r.Gauge("queue_depth", NodeLabel(0), L("link", "1"))
	g.Add(7)
	if g2 := r.Gauge("queue_depth", L("link", "1"), NodeLabel(0)); g2 != g {
		t.Fatal("label order changed metric identity")
	}
	g.Add(-2)
	h := r.Histogram("lat_us", []float64{10, 100}, NodeLabel(0))
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	snap := r.Gather()
	if v, ok := snap.Get("frames_total", NodeLabel(0), L("link", "1")); !ok || v != 5 {
		t.Fatalf("counter = %v, %v; want 5", v, ok)
	}
	if v, ok := snap.Get("queue_depth", NodeLabel(0), L("link", "1")); !ok || v != 5 {
		t.Fatalf("gauge = %v, %v; want 5", v, ok)
	}
	if v, ok := snap.Get("lat_us_bucket", NodeLabel(0), L("le", "10")); !ok || v != 1 {
		t.Fatalf("bucket le=10 = %v, %v; want 1", v, ok)
	}
	if v, ok := snap.Get("lat_us_bucket", NodeLabel(0), L("le", "100")); !ok || v != 2 {
		t.Fatalf("bucket le=100 = %v, %v; want cumulative 2", v, ok)
	}
	if v, ok := snap.Get("lat_us_bucket", NodeLabel(0), L("le", "+Inf")); !ok || v != 3 {
		t.Fatalf("bucket +Inf = %v, %v; want 3", v, ok)
	}
	if v, ok := snap.Get("lat_us_count", NodeLabel(0)); !ok || v != 3 {
		t.Fatalf("count = %v, %v; want 3", v, ok)
	}
	if v, ok := snap.Get("lat_us_sum", NodeLabel(0)); !ok || v != 555 {
		t.Fatalf("sum = %v, %v; want 555", v, ok)
	}
}

func TestCollector(t *testing.T) {
	r := New(sim.NewEnv(1))
	n := 0
	r.AddCollector(func(emit func(Sample)) {
		n++
		emit(Sample{Name: "layer_ops", Labels: []Label{NodeLabel(2)}, Value: float64(40 + n)})
	})
	if v, ok := r.Gather().Get("layer_ops", NodeLabel(2)); !ok || v != 41 {
		t.Fatalf("collector sample = %v, %v", v, ok)
	}
	// Collectors are re-polled every gather: always current.
	if v, _ := r.Gather().Get("layer_ops", NodeLabel(2)); v != 42 {
		t.Fatalf("second gather = %v; want 42", v)
	}
}

func TestSpansLifecycle(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env)
	// Spans off: StartOpSpan must return a usable nil.
	if s := r.StartOpSpan(SpanID{Node: 1, Conn: 0, Op: 1}, "core", "write", 64); s != nil {
		t.Fatal("span recorded while disabled")
	}
	r.EnableSpans()
	id := SpanID{Node: 1, Conn: 0, Op: 1}
	s := r.StartOpSpan(id, "core", "write", 64)
	if s == nil {
		t.Fatal("no span while enabled")
	}
	if again := r.StartOpSpan(id, "core", "write", 64); again != s {
		t.Fatal("reopening an id created a second span")
	}
	if r.FindSpan(id) != s {
		t.Fatal("FindSpan missed the open span")
	}
	s.Event(env.Now(), EvFrameTx, 1, 0, 0, 64)
	s.Event(env.Now(), EvFrameRetx, 1, 1, 0, 64)
	s.EndAt(2 * sim.Microsecond)
	s.EndAt(9 * sim.Microsecond) // idempotent: first end wins
	if s.End != 2*sim.Microsecond {
		t.Fatalf("End = %v; want 2us", s.End)
	}
	if r.FindSpan(id) != nil {
		t.Fatal("ended span still open")
	}
	if s.Retransmits() != 1 {
		t.Fatalf("Retransmits = %d; want 1", s.Retransmits())
	}
	// Ending the span observed the op-latency histogram.
	if v, ok := r.Gather().Get("op_latency_us_count", L("layer", "core"), L("op", "write")); !ok || v != 1 {
		t.Fatalf("op_latency count = %v, %v; want 1", v, ok)
	}
	// Layer spans get distinct private ids.
	a := r.StartLayerSpan(3, "dsm", "page-fetch", 4096)
	b := r.StartLayerSpan(3, "dsm", "page-fetch", 4096)
	if a.ID == b.ID {
		t.Fatal("layer spans share an id")
	}
}

func TestSamplerTicksAndQuiesce(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env)
	v := 0.0
	s := r.Sample("depth", 0, nil, 10*sim.Microsecond, func() float64 { v++; return v })
	env.RunUntil(35 * sim.Microsecond)
	if len(s.Values) != 3 {
		t.Fatalf("ticks = %d; want 3", len(s.Values))
	}
	r.Quiesce()
	// Quiesce stopped the pending tick, so the queue is empty and Run
	// returns instead of re-arming forever.
	env.Run()
	if !env.Idle() {
		t.Fatal("quiesce left live events armed; event queue cannot drain")
	}
	if len(s.Values) != 3 {
		t.Fatalf("sampler ticked after quiesce: %d values", len(s.Values))
	}
	// The latest sampled value appears in snapshots.
	if got, ok := r.Gather().Get("depth", NodeLabel(0)); !ok || got != 3 {
		t.Fatalf("sampler gauge = %v, %v; want 3", got, ok)
	}
}

// TestSamplerStop: Stop cancels the pending tick, so the series stops
// growing at once; it is idempotent and nil-safe.
func TestSamplerStop(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env)
	env.Go("driver", func(p *sim.Proc) { p.Sleep(2000) })
	s := r.Sample("x", 0, nil, 100, func() float64 { return 1 })
	env.At(450, func() { s.Stop() })
	env.Run()
	if n := len(s.Values); n != 4 {
		t.Fatalf("samples after Stop = %d, want 4 (ticks at 100..400)", n)
	}
	s.Stop()
	var nilS *Sampler
	nilS.Stop()
}

// TestSamplerOpenEndedDoesNotLeak: sampler ticks are daemon events, so a
// sampler nobody stops never keeps the event queue alive on its own.
func TestSamplerOpenEndedDoesNotLeak(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env)
	env.Go("driver", func(p *sim.Proc) { p.Sleep(1000) })
	s := r.Sample("x", 0, nil, 100, func() float64 { return 1 })
	if end := env.Run(); end > 1000 {
		t.Fatalf("run ended at %v: an open-ended sampler kept the queue alive", end)
	}
	if n := len(s.Values); n < 8 || n > 11 {
		t.Fatalf("samples = %d, want ~10 (ticks while the driver ran)", n)
	}
}

func TestChromeTraceValidAndDeterministic(t *testing.T) {
	build := func() []byte {
		env := sim.NewEnv(7)
		r := New(env)
		r.EnableSpans()
		r.Sample("nic_q", 0, []Label{L("link", "0")}, 5*sim.Microsecond, func() float64 { return float64(env.Now()) })
		s := r.StartOpSpan(SpanID{Node: 0, Conn: 1, Op: 9}, "core", "write", 128)
		env.RunUntil(12 * sim.Microsecond)
		s.Event(env.Now(), EvFrameTx, 0, 2, 0, 128)
		s.Event(env.Now(), EvRxHold, 1, -1, 0, 128)
		s.EndAt(env.Now())
		ls := r.StartLayerSpan(1, "dsm", "page-fetch", 4096)
		env.RunUntil(20 * sim.Microsecond)
		ls.EndAt(env.Now())
		r.Quiesce()
		return r.ChromeTrace()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("ChromeTrace not byte-identical across identical runs")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, a)
	}
	var phX, phI, phC, phM int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			phX++
		case "i":
			phI++
		case "C":
			phC++
		case "M":
			phM++
		}
	}
	if phX != 2 || phI != 2 || phC == 0 || phM == 0 {
		t.Fatalf("event mix X=%d i=%d C=%d M=%d; want 2 spans, 2 instants, counters, metadata", phX, phI, phC, phM)
	}
}

func TestPrometheusAndJSONExport(t *testing.T) {
	r := New(sim.NewEnv(1))
	r.AddCollector(func(emit func(Sample)) {
		emit(Sample{Name: "frames_total", Labels: []Label{NodeLabel(0)}, Value: 12, Type: TypeCounter})
	})
	r.Gauge("depth").Add(3)
	r.Histogram("lat_us", []float64{10}, NodeLabel(1)).Observe(4)
	snap := r.Gather()

	prom := string(snap.Prometheus())
	for _, want := range []string{
		"# TYPE frames_total counter",
		`frames_total{node="0"} 12`,
		"# TYPE depth gauge",
		"depth 3",
		"# TYPE lat_us histogram",
		`lat_us_bucket{le="+Inf",node="1"} 1`,
		`lat_us_count{node="1"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}
	// One TYPE header per family, not per sample.
	if strings.Count(prom, "# TYPE lat_us ") != 1 {
		t.Fatalf("duplicate TYPE headers:\n%s", prom)
	}

	js := snap.JSON()
	if !json.Valid(js) {
		t.Fatalf("snapshot JSON invalid: %s", js)
	}
	var doc struct {
		Samples []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
			Type   string            `json:"type"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range doc.Samples {
		if s.Name == "frames_total" && s.Labels["node"] == "0" && s.Value == 12 && s.Type == "counter" {
			found = true
		}
	}
	if !found {
		t.Fatalf("frames_total sample missing from JSON: %s", js)
	}
}

func TestEventKindString(t *testing.T) {
	if EvFrameTx.String() != "frame-tx" || EvRxComplete.String() != "rx-complete" ||
		EvLinkRestore.String() != "link-restore" || EvFailed.String() != "failed" {
		t.Fatalf("kind names wrong: %s %s %s %s", EvFrameTx, EvRxComplete, EvLinkRestore, EvFailed)
	}
	// The two recorder sets keep the flight recorder's 21 kinds and the
	// traffic view's 11, six of which a site reported twice before they
	// shared one vocabulary.
	n := func(s KindSet) (c int) {
		for k := Kind(0); k < 64; k++ {
			if s.Has(k) {
				c++
			}
		}
		return c
	}
	if n(FlightKinds) != 21 || n(TrafficKinds) != 11 || n(AllKinds) != int(kindCount)-1 {
		t.Fatalf("set sizes flight %d, traffic %d, all %d", n(FlightKinds), n(TrafficKinds), n(AllKinds))
	}
}

// TestRecKindStrings: every kind has a name of its own, and values out of
// range render as "?".
func TestRecKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(1); k < kindCount; k++ {
		if s := k.String(); s == "?" || s == "" || seen[s] {
			t.Fatalf("kind %d has no name of its own: %q", k, s)
		}
		seen[k.String()] = true
	}
	if Kind(0).String() != "?" || Kind(77).String() != "?" || Kind(200).String() != "?" {
		t.Fatal("out-of-range kinds must render as ?")
	}
}

// TestTrafficKindNames: the traffic view's kinds carry the names its
// summary and timeline columns print, in column order.
func TestTrafficKindNames(t *testing.T) {
	want := []string{"frame-tx", "frame-retx", "tx-ack", "tx-nack", "rx-data", "rx-dup",
		"rx-ooo", "rx-hold", "link-dead", "link-restore", "failed"}
	var got []string
	for k := Kind(1); k < kindCount; k++ {
		if TrafficKinds.Has(k) {
			got = append(got, k.String())
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("traffic kinds %q, want %q", got, want)
	}
}

// TestSamplerTracksRisingMetric: a sampler over a metric that keeps
// rising sees it rise: its series is long, ordered in time and
// non-decreasing, and reaches the metric's later values.
func TestSamplerTracksRisingMetric(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env)
	v := 0.0
	env.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10)
			v = float64(i)
		}
	})
	s := r.Sample("rising", 0, nil, 100, func() float64 { return v })
	env.Run()
	if len(s.Values) < 8 || len(s.Times) != len(s.Values) {
		t.Fatalf("samples = %d values, %d times", len(s.Values), len(s.Times))
	}
	for i := 1; i < len(s.Values); i++ {
		if s.Times[i] <= s.Times[i-1] || s.Values[i] < s.Values[i-1] {
			t.Fatalf("sample %d (%v, %v) after (%v, %v)", i, s.Times[i], s.Values[i], s.Times[i-1], s.Values[i-1])
		}
	}
	if last := s.Values[len(s.Values)-1]; last < 50 {
		t.Errorf("last sample = %v, expected to track the rising metric", last)
	}
}
