package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

func sampleDoc() *BenchDoc {
	d := NewBenchDoc("fanin")
	d.Rows = append(d.Rows,
		BenchRow{Name: "fanin-16", Ops: 384, OpsPerSec: 120000, GoodputMBs: 30.7,
			P50Us: 21.5, P95Us: 40, P99Us: 55.25, AllocsPerOp: 12,
			Extra: map[string]float64{"conns": 16, "data_ok": 1}},
		BenchRow{Name: "fanin-64", Ops: 1536, OpsPerSec: 310000, GoodputMBs: 79.4,
			P50Us: 30, P95Us: 80, P99Us: 120},
	)
	return d
}

func TestBenchDocRoundTrip(t *testing.T) {
	d := sampleDoc()
	out := d.JSON()
	if !json.Valid(out) {
		t.Fatalf("invalid JSON:\n%s", out)
	}
	if string(out) != string(sampleDoc().JSON()) {
		t.Fatal("JSON not deterministic")
	}
	back, err := ParseBench(out)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != BenchSchema || back.Mode != "fanin" || len(back.Rows) != 2 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	if back.Rows[0].Name != "fanin-16" || back.Rows[0].P99Us != 55.25 ||
		back.Rows[0].Extra["conns"] != 16 {
		t.Fatalf("round trip lost values: %+v", back.Rows[0])
	}

	path := filepath.Join(t.TempDir(), "BENCH_fanin.json")
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fromDisk, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromDisk.Rows[1].OpsPerSec != 310000 {
		t.Fatalf("file round trip lost values: %+v", fromDisk.Rows[1])
	}

	if _, err := ParseBench([]byte(`{"schema":"other/v1","mode":"x","rows":[]}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, err := ParseBench([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestBenchDocDecodesEqual: a document decodes back to the values it
// was built from, names and extra keys with JSON's awkward characters
// included; an empty one writes its rows as [], and a non-finite figure
// is an error, never an invalid file.
func TestBenchDocDecodesEqual(t *testing.T) {
	const evil = "row \"q\" C:\\x\n<b>&amp; µs–ü"
	d := sampleDoc()
	d.Mode = evil
	d.Rows[0].Name = evil
	d.Rows[0].Extra[evil] = 1e21
	d.Rows[1].P99Us = 1e-7
	back, err := ParseBench(d.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Fatalf("decoded %+v; want %+v", back, d)
	}
	if empty := NewBenchDoc("x").JSON(); !bytes.Contains(empty, []byte(`"rows":[]`)) {
		t.Fatalf("empty document: %s", empty)
	}

	d.Rows[1].OpsPerSec = math.Inf(1)
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := d.WriteFile(path); err == nil {
		t.Fatal("WriteFile accepted an infinite figure")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a document was written anyway (stat: %v)", err)
	}
}

func TestCompareBenchRatchet(t *testing.T) {
	base := sampleDoc()

	// Identical documents: ratchet holds.
	if fails := CompareBench(base, sampleDoc()); len(fails) != 0 {
		t.Fatalf("identical docs failed: %v", fails)
	}

	// Ops/s down 20% (> the 10% limit): fail, naming the row.
	cur := sampleDoc()
	cur.Rows[0].OpsPerSec *= 0.8
	fails := CompareBench(base, cur)
	if len(fails) != 1 || !strings.Contains(fails[0], "fanin-16") ||
		!strings.Contains(fails[0], "ops/s") {
		t.Fatalf("20%% ops drop: %v", fails)
	}

	// Ops/s down 5% (within the limit): pass.
	cur = sampleDoc()
	cur.Rows[0].OpsPerSec *= 0.95
	if fails := CompareBench(base, cur); len(fails) != 0 {
		t.Fatalf("5%% ops drop failed: %v", fails)
	}

	// P99 up 50% (> the 20% limit): fail.
	cur = sampleDoc()
	cur.Rows[1].P99Us *= 1.5
	fails = CompareBench(base, cur)
	if len(fails) != 1 || !strings.Contains(fails[0], "fanin-64") ||
		!strings.Contains(fails[0], "p99") {
		t.Fatalf("50%% p99 growth: %v", fails)
	}

	// P99 up 10% (within the limit): pass.
	cur = sampleDoc()
	cur.Rows[1].P99Us *= 1.1
	if fails := CompareBench(base, cur); len(fails) != 0 {
		t.Fatalf("10%% p99 growth failed: %v", fails)
	}

	// Row disappeared from current: fail. New row in current: pass.
	cur = sampleDoc()
	cur.Rows = cur.Rows[:1]
	cur.Rows = append(cur.Rows, BenchRow{Name: "fanin-256", OpsPerSec: 1})
	fails = CompareBench(base, cur)
	if len(fails) != 1 || !strings.Contains(fails[0], "fanin-64") ||
		!strings.Contains(fails[0], "missing") {
		t.Fatalf("missing row: %v", fails)
	}

	// Zero baseline figure: nothing to regress from, skip the check.
	zb := NewBenchDoc("fanin")
	zb.Rows = append(zb.Rows, BenchRow{Name: "fanin-16"})
	cur = sampleDoc()
	cur.Rows[0].OpsPerSec = 0.001
	if fails := CompareBench(zb, cur); len(fails) != 0 {
		t.Fatalf("zero baseline still checked: %v", fails)
	}

	// Allocs/op up 50% (> the 25% limit): fail.
	cur = sampleDoc()
	cur.Rows[0].AllocsPerOp *= 1.5
	fails = CompareBench(base, cur)
	if len(fails) != 1 || !strings.Contains(fails[0], "fanin-16") ||
		!strings.Contains(fails[0], "allocs/op") {
		t.Fatalf("50%% allocs growth: %v", fails)
	}

	// Allocs/op up 10% (within the limit): pass.
	cur = sampleDoc()
	cur.Rows[0].AllocsPerOp *= 1.1
	if fails := CompareBench(base, cur); len(fails) != 0 {
		t.Fatalf("10%% allocs growth failed: %v", fails)
	}

	// Zero alloc baseline (fanin-64): a current row that now reports
	// allocations is new coverage, not a regression.
	cur = sampleDoc()
	cur.Rows[1].AllocsPerOp = 40
	if fails := CompareBench(base, cur); len(fails) != 0 {
		t.Fatalf("zero alloc baseline still checked: %v", fails)
	}
}

// TestRecorderZeroPerturbation: recording is pure observation — the same
// fan-in run with the flight recorder, and with a recorder taking every
// kind plus span recording, must produce the measurements and the
// network report of the run with instrumentation off.
func TestRecorderZeroPerturbation(t *testing.T) {
	base := FaninOptions{Conns: 32, OpsPerConn: 8, Size: 256, Seed: 9, Chaos: true}
	off := base
	off.DisableRecorder = true
	without := RunFanin(off)
	if without.Recorders != nil {
		t.Fatal("DisableRecorder plumbing broken")
	}
	all := base
	all.recordAll = true
	all.Obs = cluster.ObsOptions{Spans: true, SampleEvery: -1}
	for name, opts := range map[string]FaninOptions{"flight": base, "every kind + spans": all} {
		with := RunFanin(opts)
		if with.String() != without.String() {
			t.Fatalf("%s perturbed the run:\n  on:  %s\n  off: %s", name, with, without)
		}
		if with.Net != without.Net {
			t.Fatalf("%s perturbed the network report:\n  on:  %+v\n  off: %+v", name, with.Net, without.Net)
		}
		total := 0
		for _, r := range with.Recorders {
			total += len(r.Events())
		}
		if total == 0 {
			t.Fatalf("%s: recorders attached but nothing recorded", name)
		}
		frameTx := func(e obs.Event) bool { return e.Kind == obs.EvFrameTx }
		if opts.recordAll && (!slices.ContainsFunc(with.Recorders[0].Events(), frameTx) ||
			!bytes.Contains(with.Obs.ChromeTrace(), []byte(`"ph":"X"`))) {
			t.Fatalf("%s: no frame events or no spans recorded", name)
		}
	}
}

// TestBenchRowConverters sanity-checks the result-to-row mappings used
// by medbench -bench-out.
func TestBenchRowConverters(t *testing.T) {
	f := RunFanin(FaninOptions{Conns: 4, OpsPerConn: 4, Size: 256, Seed: 9})
	row := f.BenchRow()
	if row.Name != "fanin-4" || row.Ops != 16 || row.OpsPerSec <= 0 ||
		row.P99Us < row.P50Us || row.Extra["data_ok"] != 1 {
		t.Fatalf("fanin row: %+v", row)
	}
	if row.P95Us <= 0 || row.P95Us > row.P99Us {
		t.Fatalf("p95 out of order: %+v", row)
	}

	c := RunCrashloop(CrashloopOptions{Cycles: 1, Down: 100 * sim.Millisecond,
		Bytes: 64 << 10, DeadInterval: 25 * sim.Millisecond,
		Backoff: 2 * sim.Millisecond, Seed: 7})
	crow := c.BenchRow()
	if crow.Name != "crashloop-di25ms" || crow.Ops == 0 || crow.OpsPerSec <= 0 ||
		crow.P50Us <= 0 || crow.Extra["recovered"] != 1 {
		t.Fatalf("crashloop row: %+v", crow)
	}

	s := RunSmallOps(cluster.OneLink10G(2), 64, 256, 64)
	srow := s.BenchRow()
	if srow.Name != "smallops-1L-10G-64B-sq64" || srow.OpsPerSec <= 0 ||
		srow.Extra["doorbells"] == 0 {
		t.Fatalf("smallops row: %+v", srow)
	}
}
