package obs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"multiedge/internal/sim"
)

// us renders a virtual timestamp as microseconds with fixed precision.
// Chrome trace "ts" fields are microseconds; sim.Time is nanoseconds,
// so %.3f is exact and, being derived from the deterministic virtual
// clock, bit-reproducible across runs.
func us(t sim.Time) json.Number { return json.Number(fmt.Sprintf("%.3f", float64(t)/1000)) }

// EncodeJSON renders v as one JSON document. Every JSON artifact of the
// tree is written through it: encoding/json writes struct fields in
// declaration order and map keys sorted, so equal values give equal
// bytes; <, > and & stay as they are, and a newline ends the document.
// A value JSON cannot carry (a NaN or infinite float is the only one
// these documents can hold) gives nil, never invalid JSON: the
// exporters return one value, and WriteDoc turns nil into an error.
func EncodeJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if enc.Encode(v) != nil {
		return nil
	}
	return b.Bytes()
}

// WriteDoc writes a rendered document to path. A nil document, one
// EncodeJSON could not render, is an error, and nothing is written.
func WriteDoc(path string, doc []byte) error {
	if doc == nil {
		return fmt.Errorf("obs: %s: a value is NaN or infinite, which JSON cannot carry", path)
	}
	return os.WriteFile(path, doc, 0o644)
}

// promEscape escapes a label value for the Prometheus text exposition
// format (version 0.0.4): backslash, double-quote and newline are the
// only escapes the format defines. Tabs, non-printables and non-ASCII
// runes pass through untouched, as a conforming parser reads them.
var promEscape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

// traceEvent is one Chrome trace event. Metadata events ("ph":"M")
// leave ts, dur, cat and s empty, so they carry none of them.
type traceEvent struct {
	Ph   string      `json:"ph"`
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Ts   json.Number `json:"ts,omitempty"`
	Dur  json.Number `json:"dur,omitempty"`
	S    string      `json:"s,omitempty"`
	Args any         `json:"args"`
}

// spanArgs are the args of a span's complete event.
type spanArgs struct {
	ID         string `json:"id"`
	Size       int    `json:"size"`
	Events     int    `json:"events"`
	Retx       int    `json:"retx"`
	Unfinished bool   `json:"unfinished,omitempty"`
}

// eventArgs are the args of a span child's instant event.
type eventArgs struct {
	Op string `json:"op"`
	SpanEvent
}

// ChromeTrace renders every recorded span, child event, and sampler
// series as Chrome trace-event JSON (the format Perfetto and
// chrome://tracing open directly). Layout:
//
//   - process = node ("node 3")
//   - thread  = connection ("conn 2") for protocol spans, or the layer
//     name ("dsm", "blk", "msg") for layer spans
//   - complete events (ph "X") for spans, instant events (ph "i") for
//     child events, counter events (ph "C") for sampler series
//
// Timestamps are virtual simulation time, so equal seeds produce
// byte-identical traces. Spans still open at export time are emitted
// with their current extent and an "unfinished" flag. Nil when a
// sampler value has no JSON form (see EncodeJSON).
func (r *Registry) ChromeTrace() []byte {
	if r == nil {
		r = &Registry{} // an empty trace
	}

	// Metadata: name every process/thread that appears, sorted for
	// deterministic ordering independent of span discovery order.
	type track struct {
		node int
		tid  string
	}
	tidNum := map[track]int{}
	tidOf := func(s *Span) string {
		if s.ID.Conn == layerConn {
			return s.Layer
		}
		return "conn " + fmt.Sprint(s.ID.Conn)
	}
	for _, s := range r.spans {
		tidNum[track{s.ID.Node, tidOf(s)}] = 0
	}
	for _, sp := range r.samplers {
		tidNum[track{sp.Node, "samplers"}] = 0
	}
	keys := slices.SortedFunc(maps.Keys(tidNum), func(a, b track) int {
		return cmp.Or(cmp.Compare(a.node, b.node), strings.Compare(a.tid, b.tid))
	})
	events := []traceEvent{}
	for i, k := range keys {
		if i == 0 || keys[i-1].node != k.node {
			events = append(events, traceEvent{Ph: "M", Name: "process_name", Pid: k.node,
				Args: map[string]string{"name": fmt.Sprintf("node %d", k.node)}})
		}
		tidNum[k] = i + 1
		events = append(events, traceEvent{Ph: "M", Name: "thread_name", Pid: k.node, Tid: i + 1,
			Args: map[string]string{"name": k.tid}})
	}

	// Spans and their child events, in creation order.
	for _, s := range r.spans {
		tid := tidNum[track{s.ID.Node, tidOf(s)}]
		end := s.End
		if !s.Done {
			end = r.env.Now()
		}
		events = append(events, traceEvent{Ph: "X", Name: s.Name, Cat: s.Layer, Pid: s.ID.Node, Tid: tid,
			Ts: us(s.Start), Dur: us(end - s.Start),
			Args: spanArgs{ID: s.ID.String(), Size: s.Size, Events: len(s.Events),
				Retx: s.Retransmits(), Unfinished: !s.Done}})
		for _, e := range s.Events {
			events = append(events, traceEvent{Ph: "i", Name: e.Kind.String(), Cat: s.Layer,
				Pid: s.ID.Node, Tid: tid, Ts: us(e.At), S: "t",
				Args: eventArgs{Op: s.ID.String(), SpanEvent: e}})
		}
	}

	// Sampler series as counter tracks.
	for _, sp := range r.samplers {
		name := sp.Name
		for _, l := range sp.Labels {
			name += " " + l.Key + "=" + l.Value
		}
		for i, t := range sp.Times {
			events = append(events, traceEvent{Ph: "C", Name: name, Pid: sp.Node, Ts: us(t),
				Args: map[string]float64{"value": sp.Values[i]}})
		}
	}
	return EncodeJSON(struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ns", TraceEvents: events})
}

// WriteFiles exports the registry to files rooted at path. With spans,
// path receives the Chrome trace JSON (open it in Perfetto or
// chrome://tracing). With metrics, the JSON snapshot goes to path — or
// path+".metrics.json" when spans already claimed path — and the
// Prometheus text exposition to path+".prom". Returns the files
// written, in writing order.
func (r *Registry) WriteFiles(path string, metrics, spans bool) ([]string, error) {
	if r == nil {
		return nil, fmt.Errorf("obs: registry is disabled; nothing to export")
	}
	type doc struct {
		path string
		data []byte
	}
	var docs []doc
	if spans {
		docs = append(docs, doc{path, r.ChromeTrace()})
	}
	if metrics {
		snap, jp := r.Gather(), path
		if spans {
			jp += ".metrics.json"
		}
		docs = append(docs, doc{jp, snap.JSON()}, doc{path + ".prom", snap.Prometheus()})
	}
	var written []string
	for _, d := range docs {
		if err := WriteDoc(d.path, d.data); err != nil {
			return written, err
		}
		written = append(written, d.path)
	}
	return written, nil
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Samples are already sorted by Gather; TYPE
// headers are emitted once per metric family.
func (s Snapshot) Prometheus() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# Exported at virtual time %sus.\n", us(s.At))
	lastFamily := ""
	for _, sm := range s.Samples {
		family := sm.Name
		if sm.Type == TypeHistogram {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				family = strings.TrimSuffix(family, suf)
			}
		}
		if family != lastFamily {
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, metricTypeNames[sm.Type])
			lastFamily = family
		}
		b.WriteString(sm.Name)
		sep := "{"
		for _, l := range sm.Labels {
			fmt.Fprintf(&b, `%s%s="%s"`, sep, l.Key, promEscape(l.Value))
			sep = ","
		}
		if len(sm.Labels) > 0 {
			b.WriteByte('}')
		}
		fmt.Fprintf(&b, " %g\n", sm.Value)
	}
	return []byte(b.String())
}

// JSON renders the snapshot as a JSON document:
//
//	{"at_ns": ..., "samples": [{"name": ..., "labels": {...}, "value": ..., "type": ...}]}
//
// Nil when a value is NaN or infinite (see EncodeJSON).
func (s Snapshot) JSON() []byte {
	type sample struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
		Type   string            `json:"type"`
	}
	samples := make([]sample, 0, len(s.Samples))
	for _, sm := range s.Samples {
		labels := make(map[string]string, len(sm.Labels))
		for _, l := range sm.Labels {
			labels[l.Key] = l.Value
		}
		samples = append(samples, sample{Name: sm.Name, Labels: labels, Value: sm.Value, Type: metricTypeNames[sm.Type]})
	}
	return EncodeJSON(struct {
		AtNs    sim.Time `json:"at_ns"`
		Samples []sample `json:"samples"`
	}{AtNs: s.At, Samples: samples})
}
