package main

import (
	"encoding/json"
	"os"
	"time"

	"multiedge/internal/sim"
)

// Spans are recorded by the benchmark around its own calls into the
// program, kept in memory and written out when the run ends. Spans inside
// the program are a later change.

// span is one timed interval. Wall times are nanoseconds since the rep
// started, virtual times nanoseconds of simulated time. The spans of one
// operation share its Op id; spans that belong to no operation have Op -1.
type span struct {
	Name      string `json:"name"`
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Op        int64  `json:"op"`
	WallStart int64  `json:"wall_start_ns"`
	WallEnd   int64  `json:"wall_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
}

// opSampling is how many operations share one sampled pair of spans.
const opSampling = 64

// tracer collects the spans of one traced rep. A nil tracer records
// nothing, so untraced reps pay one nil check per call.
type tracer struct {
	t0    time.Time
	env   func() sim.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), env: func() sim.Time { return 0 }, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id, -1 on a nil tracer.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Op: op,
		WallStart: int64(time.Since(t.t0)), VirtStart: int64(t.env()),
	})
	return id
}

// end closes the span with the given id; -1 is ignored.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].WallEnd = int64(time.Since(t.t0))
	t.spans[id].VirtEnd = int64(t.env())
}

// wallByName sums the wall time of every span with the given name.
func (t *tracer) wallByName(name string) (ns int64) {
	for i := range t.spans {
		if t.spans[i].Name == name {
			ns += t.spans[i].WallEnd - t.spans[i].WallStart
		}
	}
	return ns
}

// write stores the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	doc := struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		OpSampling int    `json:"op_sampling"`
		Spans      []span `json:"spans"`
	}{workload, seed, opSampling, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
