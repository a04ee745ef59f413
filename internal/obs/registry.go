// Package obs is the unified observability layer: a typed metrics
// registry (gauges, fixed-bucket histograms and collector-published
// counters, all labelled), causal operation spans that follow one RDMA
// operation through every layer it crosses, and machine-readable
// exporters (Chrome trace-event JSON for Perfetto, Prometheus text
// exposition, JSON snapshots).
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every entry point is safe on a nil
//     *Registry / nil *Span and reduces to one nil check, so
//     instrumented hot paths (internal/core's per-frame work) pay
//     nothing when observability is off. Verified by BenchmarkDisabled*.
//  2. Pure observation. Nothing in this package consumes the
//     simulation's RNG, charges CPU cost, or alters protocol state, so
//     enabling observability never perturbs a run: results stay
//     bit-identical with and without it.
//  3. Deterministic export. All timestamps are virtual (sim.Time) and
//     all iteration is over insertion-ordered slices or sorted keys, so
//     two runs with the same seed export byte-identical artifacts.
package obs

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"multiedge/internal/sim"
)

// Label is one key=value metric dimension.
type Label struct{ Key, Value string }

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// NodeLabel builds the conventional node="<id>" label.
func NodeLabel(id int) Label { return Label{Key: "node", Value: strconv.Itoa(id)} }

// labelKey serializes labels, sorted by key, into a canonical map key.
func labelKey(labels []Label) string {
	pairs := make([]string, len(labels))
	for i, l := range sortedLabels(labels) {
		pairs[i] = l.Key + "=" + l.Value
	}
	return strings.Join(pairs, ",")
}

// MetricType classifies a sample for exposition.
type MetricType uint8

// Metric types.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram // expanded into _bucket/_sum/_count samples at Gather
)

// metricTypeNames spells each MetricType in the exporters.
var metricTypeNames = [...]string{"counter", "gauge", "histogram"}

// Gauge is a point-in-time value. A nil Gauge (from a nil Registry)
// accepts updates and drops them.
type Gauge struct {
	name   string
	labels []Label
	v      float64
}

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
	}
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds; an implicit +Inf bucket catches the rest.
type Histogram struct {
	name    string
	labels  []Label
	bounds  []float64
	counts  []uint64 // len(bounds)+1, last is +Inf
	sum     float64
	samples uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.samples++
}

// LatencyBucketsUs is the default fixed bucket set for operation
// latencies in microseconds: ~1 us (single frame on a quiet 10-GbE
// rail) up to 100 ms (heavy retransmission storms).
var LatencyBucketsUs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500,
	1000, 2000, 5000, 10000, 20000, 50000, 100000}

// Sample is one exported measurement: a metric instance flattened at
// Gather time.
type Sample struct {
	Name   string
	Labels []Label // sorted by key
	Value  float64
	Type   MetricType
}

// key returns the sample's identity.
func (s Sample) key() string { return s.Name + "\xff" + labelKey(s.Labels) }

// Collector publishes point-in-time samples when the registry gathers.
// Layers with existing counter structs (core.Stats, NIC counters, DSM
// stats) register collectors instead of double-counting on hot paths:
// the legacy counters stay authoritative and the registry mirrors them
// exactly at snapshot time.
type Collector func(emit func(Sample))

// Registry is the single aggregation point for every layer's metrics
// and spans. The zero value is not usable; create with New. A nil
// *Registry is the disabled state: every method is a cheap no-op.
type Registry struct {
	env *sim.Env

	gauges map[string]*Gauge
	hists  map[string]*Histogram

	collectors []Collector
	samplers   []*Sampler
	healthLogs []*HealthLog
	tickers    []*ticker // of every sampler and health log
	quiesced   bool

	spansOn bool
	open    map[SpanID]*Span
	spans   []*Span
	autoOp  uint64 // ids for layer spans (own namespace, see layerConn)
}

// New creates an enabled registry bound to the simulation environment
// (virtual timestamps).
func New(env *sim.Env) *Registry {
	return &Registry{
		env:    env,
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		open:   make(map[SpanID]*Span),
	}
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return metric(r.gauges, name, labels, func() *Gauge { return &Gauge{name: name, labels: sortedLabels(labels)} })
}

// Histogram returns the named histogram with the given bucket upper
// bounds, creating it on first use (bounds are fixed at creation; later
// calls may pass nil bounds).
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return metric(r.hists, name, labels, func() *Histogram {
		if len(bounds) == 0 {
			bounds = LatencyBucketsUs
		}
		return &Histogram{name: name, labels: sortedLabels(labels),
			bounds: slices.Clone(bounds), counts: make([]uint64, len(bounds)+1)}
	})
}

// metric returns the metric of the given name and labels in store,
// creating it with create on first use.
func metric[M any](store map[string]*M, name string, labels []Label, create func() *M) *M {
	k := Sample{Name: name, Labels: labels}.key()
	m, ok := store[k]
	if !ok {
		m = create()
		store[k] = m
	}
	return m
}

func sortedLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// AddCollector registers a gather-time sample source. No-op on nil.
func (r *Registry) AddCollector(c Collector) {
	if r != nil && c != nil {
		r.collectors = append(r.collectors, c)
	}
}

// Snapshot is a gathered, sorted, self-contained set of samples.
type Snapshot struct {
	At      sim.Time
	Samples []Sample
}

// Gather flattens every gauge and histogram, every collector, and every
// sampler's latest value into a sorted snapshot. Nil registries gather
// an empty snapshot.
func (r *Registry) Gather() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var out []Sample
	for _, k := range slices.Sorted(maps.Keys(r.gauges)) {
		g := r.gauges[k]
		out = append(out, Sample{Name: g.name, Labels: g.labels, Value: g.v, Type: TypeGauge})
	}
	for _, k := range slices.Sorted(maps.Keys(r.hists)) {
		out = append(out, r.hists[k].expand()...)
	}
	for _, c := range r.collectors {
		c(func(s Sample) {
			s.Labels = sortedLabels(s.Labels)
			out = append(out, s)
		})
	}
	for _, sp := range r.samplers {
		if n := len(sp.Values); n > 0 {
			labels := sortedLabels(append([]Label{NodeLabel(sp.Node)}, sp.Labels...))
			out = append(out, Sample{Name: sp.Name, Labels: labels, Value: sp.Values[n-1], Type: TypeGauge})
		}
	}
	slices.SortStableFunc(out, func(a, b Sample) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), strings.Compare(labelKey(a.Labels), labelKey(b.Labels)))
	})
	return Snapshot{At: r.env.Now(), Samples: out}
}

// expand flattens a histogram into Prometheus-style cumulative
// _bucket{le=...}, _sum and _count samples.
func (h *Histogram) expand() []Sample {
	out := make([]Sample, 0, len(h.bounds)+3)
	var cum uint64
	for i, n := range h.counts {
		cum += n
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		labels := sortedLabels(append(slices.Clone(h.labels), L("le", le)))
		out = append(out, Sample{Name: h.name + "_bucket", Labels: labels, Value: float64(cum), Type: TypeHistogram})
	}
	out = append(out,
		Sample{Name: h.name + "_sum", Labels: h.labels, Value: h.sum, Type: TypeHistogram},
		Sample{Name: h.name + "_count", Labels: h.labels, Value: float64(h.samples), Type: TypeHistogram},
	)
	return out
}

// Get returns the value of the sample with the given name and labels.
func (s Snapshot) Get(name string, labels ...Label) (float64, bool) {
	want := Sample{Name: name, Labels: sortedLabels(labels)}.key()
	for _, sm := range s.Samples {
		if sm.key() == want {
			return sm.Value, true
		}
	}
	return 0, false
}

// Sampler records a time series of one instantaneous metric, ticking on
// the simulation clock. Create with Registry.Sample. The series also
// exports to the Chrome trace as a counter track.
type Sampler struct {
	Name   string
	Node   int
	Labels []Label
	Times  []sim.Time
	Values []float64

	ticker
}

// Sample starts sampling f every interval until the registry quiesces.
// Returns nil on a nil registry.
func (r *Registry) Sample(name string, node int, labels []Label, every sim.Time, f func() float64) *Sampler {
	if r == nil {
		return nil
	}
	s := &Sampler{Name: name, Node: node, Labels: labels}
	r.startTicker(&s.ticker, every, func() {
		s.Times = append(s.Times, r.env.Now())
		s.Values = append(s.Values, f())
	})
	r.samplers = append(r.samplers, s)
	return s
}

// ticker is the registry's one sampling clock, behind every Sampler and
// HealthLog: it calls its function every interval until it is stopped
// or the registry quiesces. It ticks on daemon events, which never keep
// Run alive, and its functions touch no protocol state and no RNG, so
// sampling can neither perturb nor prolong a run.
type ticker struct{ timer *sim.Timer }

// startTicker arms t to call f every interval; Quiesce stops it.
func (r *Registry) startTicker(t *ticker, every sim.Time, f func()) {
	if every <= 0 {
		panic(fmt.Sprintf("obs: non-positive sampling interval %d", every))
	}
	var tick func()
	tick = func() {
		if !r.quiesced {
			f()
			t.timer = r.env.Rearm(sim.Daemon(t.timer), every, tick)
		}
	}
	t.timer = r.env.Rearm(sim.Daemon(t.timer), every, tick)
	r.tickers = append(r.tickers, t)
}

// stop cancels the pending tick so the event queue can drain.
func (t *ticker) stop() { t.timer.Stop() }

// Quiesce stops every sampler and health log. Workload drivers call it
// when the measured phase ends, so self-re-arming tickers do not keep
// the event queue alive forever. Nil-safe and idempotent.
func (r *Registry) Quiesce() {
	if r == nil || r.quiesced {
		return
	}
	r.quiesced = true
	for _, t := range r.tickers {
		t.stop()
	}
}
