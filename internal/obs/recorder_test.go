package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"multiedge/internal/sim"
)

// Recorded returns how many events were ever recorded; all but the
// ring's capacity of them may have been overwritten.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.n
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(1, 0, EvDial, 0, 0) // must not panic
	if r.Recorded() != 0 || r.Events() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(3, 4, FlightKinds)
	for i := 0; i < 10; i++ {
		r.Record(sim.Time(i), uint32(i%2), EvSched, int64(i), 0)
	}
	if len(r.Events()) != 4 || r.Recorded() != 10 {
		t.Fatalf("len=%d recorded=%d; want 4, 10", len(r.Events()), r.Recorded())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() returned %d events", len(evs))
	}
	// Oldest-first: the four survivors are records 6..9.
	for i, ev := range evs {
		if ev.A != int64(6+i) || ev.At != sim.Time(6+i) {
			t.Fatalf("event %d = %+v; want record %d", i, ev, 6+i)
		}
	}
}

// TestRecorderCountsSurviveWrap: once the ring wraps it keeps the newest
// events, while the per-kind count and byte totals still see every event
// that fell off.
func TestRecorderCountsSurviveWrap(t *testing.T) {
	r := NewRecorder(0, 4, TrafficKinds)
	for i := 0; i < 10; i++ {
		r.Record(sim.Time(i), 1, EvFrameTx, int64(i), 10)
	}
	evs := r.Events()
	if len(evs) != 4 || evs[0].A != 6 || evs[3].A != 9 {
		t.Fatalf("retained wrong window: %+v", evs)
	}
	if r.Count(EvFrameTx) != 10 || r.Bytes(EvFrameTx) != 100 {
		t.Errorf("totals = %d events, %d bytes; want 10, 100 (totals survive eviction)",
			r.Count(EvFrameTx), r.Bytes(EvFrameTx))
	}
}

func TestZeroCapDefault(t *testing.T) {
	r := NewRecorder(0, 0, AllKinds)
	for i := 0; i <= DefaultRecorderEvents; i++ {
		r.Record(sim.Time(i), 0, EvFrameTx, int64(i), 0)
	}
	if n := len(r.Events()); n != DefaultRecorderEvents {
		t.Fatalf("default-capacity ring holds %d events, want %d", n, DefaultRecorderEvents)
	}
}

func TestRecorderEventsBeforeWrap(t *testing.T) {
	r := NewRecorder(0, 8, FlightKinds)
	r.Record(5, NoConn, EvDoorbell, 2, 0)
	r.Record(9, 1, EvEstablished, 1, 0)
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != EvDoorbell || evs[1].Kind != EvEstablished {
		t.Fatalf("events = %+v", evs)
	}
}

// TestRecorderKeepsOnlyItsKinds: a recorder built for a set of kinds
// neither stores nor counts any other kind, out-of-range values included,
// and sums B as bytes only for the kinds whose B is a byte count.
func TestRecorderKeepsOnlyItsKinds(t *testing.T) {
	r := NewRecorder(0, 16, TrafficKinds)
	r.Record(10, 1, EvFrameTx, 5, 1444)
	r.Record(11, 1, EvDoorbell, 3, 0)     // a flight kind
	r.Record(12, 1, EvProtoDequeue, 5, 0) // a span-only kind
	r.Record(13, 1, Kind(200), 3, 50)     // out of range
	r.Record(14, 1, kindCount, 4, 60)     // first out-of-range value
	r.Record(15, 1, EvLinkDead, 1, 1)     // B is a link count, not bytes
	if r.Recorded() != 2 || len(r.Events()) != 2 {
		t.Fatalf("recorded %d, ring %d; want 2, 2", r.Recorded(), len(r.Events()))
	}
	if r.Count(EvDoorbell) != 0 || r.Count(Kind(200)) != 0 || r.Count(EvLinkDead) != 1 {
		t.Fatalf("counts: doorbell %d, 200 %d, link-dead %d", r.Count(EvDoorbell), r.Count(Kind(200)), r.Count(EvLinkDead))
	}
	if r.Bytes(EvFrameTx) != 1444 || r.Bytes(EvLinkDead) != 0 {
		t.Fatalf("bytes: frame-tx %d, link-dead %d", r.Bytes(EvFrameTx), r.Bytes(EvLinkDead))
	}
	var nilRec *Recorder
	if nilRec.Count(EvFrameTx) != 0 || nilRec.Bytes(EvFrameTx) != 0 {
		t.Fatal("nil recorder counted")
	}
}

func TestRecorderSummary(t *testing.T) {
	r := NewRecorder(0, 100, TrafficKinds)
	r.Record(10, 1, EvFrameTx, 5, 1444)
	r.Record(20, 1, EvRxData, 5, 1444)
	r.Record(30, 1, EvRxOOO, 7, 1444)
	s := r.Summary()
	for _, want := range []string{"trace: 10ns .. 30ns", "frame-tx", "rx-data", "rx-ooo", "1444"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "tx-ack") {
		t.Errorf("summary lists a kind never recorded:\n%s", s)
	}
}

// TestRecorderTimelineHeader: the timeline names every kind the recorder
// takes in a column of its own — "link-restore" is 12 characters and
// once ran into its neighbour — and its rows line up with the header.
func TestRecorderTimelineHeader(t *testing.T) {
	for _, set := range []struct {
		name  string
		kinds KindSet
	}{{"traffic", TrafficKinds}, {"flight", FlightKinds}, {"all", AllKinds}} {
		r := NewRecorder(0, 100, set.kinds)
		r.Record(5, 1, EvLinkDead, 1, 1)
		r.Record(15, 1, EvLinkRestore, 1, 0)
		r.Record(16, 1, EvFailed, 0, 0)
		out := r.Timeline(10)
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(lines) != 3 { // header + 2 buckets
			t.Fatalf("%s: timeline:\n%s", set.name, out)
		}
		want := []string{"t"}
		for k := Kind(1); k < kindCount; k++ {
			if set.kinds.Has(k) {
				want = append(want, k.String())
			}
		}
		if got := strings.Fields(lines[0]); !slices.Equal(got, want) {
			t.Errorf("%s: header fields %q, want %q", set.name, got, want)
		}
		for _, l := range lines[1:] {
			if len(l) != len(lines[0]) || len(strings.Fields(l)) != len(want) {
				t.Errorf("%s: row %q does not line up with header %q", set.name, l, lines[0])
			}
		}
	}
}

// TestRecorderRingProperty: for any capacity and any number of recorded
// events, the ring retains exactly min(total, cap) events, oldest first
// with non-decreasing timestamps, keeps the newest ones, and the
// per-kind totals still see everything that fell off.
func TestRecorderRingProperty(t *testing.T) {
	prop := func(capRaw uint8, totalRaw uint16) bool {
		capacity := int(capRaw)%64 + 1
		total := int(totalRaw) % 300
		r := NewRecorder(0, capacity, TrafficKinds)
		for i := 0; i < total; i++ {
			r.Record(sim.Time(i+1)*sim.Microsecond, 0, EvFrameTx, int64(i), int64(i))
		}
		evs := r.Events()
		want := min(total, capacity)
		if len(evs) != want {
			return false
		}
		for j, e := range evs {
			if e.A != int64(total-want+j) || (j > 0 && e.At < evs[j-1].At) {
				return false
			}
		}
		return r.Count(EvFrameTx) == uint64(total) && r.Bytes(EvFrameTx) == uint64(total*(total-1)/2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPostMortemKeepsStateTransitions: a doorbell storm on one busy
// connection must not push that connection's own lifecycle history out
// of the dump — state transitions survive the last-N bound.
func TestPostMortemKeepsStateTransitions(t *testing.T) {
	r := NewRecorder(0, 256, FlightKinds)
	r.Record(1, 7, EvDial, 1, 0)
	r.Record(2, 7, EvEstablished, 1, 0)
	for i := 0; i < 100; i++ {
		r.Record(sim.Time(10+i), 7, EvDoorbell, int64(i), 0)
	}
	r.Record(200, 7, EvFailed, 3, 2)
	pm := BuildPostMortem("test: forced", 300, nil, r)
	if len(pm.Nodes) != 1 {
		t.Fatalf("nodes = %d", len(pm.Nodes))
	}
	evs := pm.Nodes[0].Events
	var kinds []Kind
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind)
	}
	if kinds[0] != EvDial || kinds[1] != EvEstablished || kinds[len(kinds)-1] != EvFailed {
		t.Fatalf("lifecycle events evicted: %v", kinds)
	}
	// The bound still applies to non-transition events.
	doorbells := 0
	for _, k := range kinds {
		if k == EvDoorbell {
			doorbells++
		}
	}
	if doorbells >= 100 || doorbells == 0 {
		t.Fatalf("doorbell tail = %d; want 0 < n < 100 (bounded)", doorbells)
	}
}

func TestPostMortemJSONAndTimeline(t *testing.T) {
	r0, r1 := NewRecorder(0, 8, FlightKinds), NewRecorder(1, 8, FlightKinds)
	r0.Record(1000, 1, EvDial, 1, 1)
	r0.Record(2000, 1, EvRtoExpiry, 1, 3)
	r0.Record(3000, 1, EvPeerDead, 1, 4)
	r1.Record(1500, 1, EvEstablished, 1, 0)
	r1.Record(2500, NoConn, EvSched, 0, 1)
	faults := []TimelineNote{{At: 1800, Text: "pause node 1 \"hard\""}}
	pm := BuildPostMortem("peer-death: conn 1", 4000, faults, r0, nil, r1)

	out := pm.JSON()
	if !json.Valid(out) {
		t.Fatalf("dump is not valid JSON:\n%s", out)
	}
	if !bytes.Equal(out, BuildPostMortem("peer-death: conn 1", 4000, faults, r0, nil, r1).JSON()) {
		t.Fatal("dump JSON not deterministic")
	}
	var doc struct {
		Schema string `json:"schema"`
		Cause  string `json:"cause"`
		Nodes  []struct {
			Node   int `json:"node"`
			Events []struct {
				Conn int    `json:"conn"`
				Kind string `json:"kind"`
			} `json:"events"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "multiedge-postmortem/v1" || len(doc.Nodes) != 2 {
		t.Fatalf("schema=%q nodes=%d", doc.Schema, len(doc.Nodes))
	}
	if doc.Nodes[1].Events[1].Conn != -1 {
		t.Fatalf("NoConn must serialize as -1: %+v", doc.Nodes[1].Events[1])
	}

	tl := pm.Timeline()
	for _, want := range []string{
		"POST-MORTEM at 4.000us: peer-death: conn 1",
		`FAULT  pause node 1 "hard"`,
		"peer-dead",
		"rto-expiry",
		"endpoint",
	} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
	// Chronological merge: the fault lands between dial (1000) and
	// rto-expiry (2000).
	if strings.Index(tl, "FAULT") < strings.Index(tl, "dial") ||
		strings.Index(tl, "FAULT") > strings.Index(tl, "rto-expiry") {
		t.Fatalf("timeline not chronologically merged:\n%s", tl)
	}
}

func TestHealthTimelineJSON(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env)
	calls := 0
	l := r.SampleHealth(0, sim.Millisecond, func() EndpointHealth {
		calls++
		return EndpointHealth{
			At: env.Now(), Node: 0, ActiveConns: 1,
			Conns: []ConnHealth{{Conn: 1, Peer: 1, State: "established",
				Incarnation: 2, SRTTUs: 12.5, Rails: []RailHealth{{SRTTUs: 11}},
				Window: 16, BytesAcked: 4096}},
		}
	})
	env.Go("work", func(p *sim.Proc) { p.Sleep(5 * sim.Millisecond) })
	env.Run()
	r.Quiesce()
	if calls == 0 || len(l.Entries) != calls {
		t.Fatalf("sampled %d times, kept %d entries", calls, len(l.Entries))
	}
	out := HealthTimelineJSON(r.HealthLogs())
	if !json.Valid(out) {
		t.Fatalf("health timeline invalid JSON:\n%s", out)
	}
	for _, want := range []string{`"schema":"multiedge-health/v1"`, `"state":"established"`,
		`"srtt_us":12.5`, `"rails":[{"srtt_us":11`, `"bytes_acked":4096`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("health timeline missing %s:\n%s", want, out)
		}
	}
	// Stopped log must not keep sampling.
	l.Stop()
	n := len(l.Entries)
	env.Go("more", func(p *sim.Proc) { p.Sleep(5 * sim.Millisecond) })
	env.Run()
	if len(l.Entries) != n {
		t.Fatal("stopped health log kept sampling")
	}
}
