package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// printed is one `workload=<w> metric=<m> value=<v> unit=<u>` line.
type printed struct {
	workload, metric, unit string
	value                  float64
}

// summary is the last line of a run.
type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// quickRun runs the command with -quick and parses what it printed.
func quickRun(t *testing.T, args ...string) (code int, lines []printed, last summary) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code = run(append([]string{"-quick", "-out", t.TempDir()}, args...), &stdout, &stderr)
	all := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range all[:len(all)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		var p printed
		for _, field := range strings.Fields(l) {
			k, v, _ := strings.Cut(field, "=")
			switch k {
			case "workload":
				p.workload = v
			case "metric":
				p.metric = v
			case "unit":
				p.unit = v
			case "value":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("line %q: %v", l, err)
				}
				p.value = f
			default:
				t.Fatalf("line %q: unknown field %q", l, k)
			}
		}
		lines = append(lines, p)
	}
	if err := json.Unmarshal([]byte(all[len(all)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v\nstderr: %s", all[len(all)-1], err, stderr.String())
	}
	return code, lines, last
}

func readSpecForTest(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricOfTheSpecIsPrinted checks both directions: every metric
// BENCHMARK.json names is printed for every workload, with its unit and a
// finite value, and nothing is printed that it does not name.
func TestEveryMetricOfTheSpecIsPrinted(t *testing.T) {
	spec := readSpecForTest(t)
	code, lines, last := quickRun(t)
	if code != 0 || !last.Correct || last.Failed != 0 || last.Attempted == 0 {
		t.Fatalf("exit %d, correct %v, %d of %d ops failed", code, last.Correct, last.Failed, last.Attempted)
	}
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]map[string]bool{"layers": {}}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
		seen[w.Name] = map[string]bool{}
	}
	for _, p := range lines {
		switch {
		case seen[p.workload] == nil:
			t.Errorf("printed workload %q is not in BENCHMARK.json", p.workload)
		case units[p.metric] == "":
			t.Errorf("printed metric %q is not in BENCHMARK.json", p.metric)
		case units[p.metric] != p.unit:
			t.Errorf("%s printed in %q, BENCHMARK.json says %q", p.metric, p.unit, units[p.metric])
		case math.IsNaN(p.value) || math.IsInf(p.value, 0):
			t.Errorf("%s on %s is %v", p.metric, p.workload, p.value)
		case seen[p.workload][p.metric]:
			t.Errorf("%s printed twice on %s", p.metric, p.workload)
		}
		if seen[p.workload] != nil {
			seen[p.workload][p.metric] = true
		}
	}
	for _, w := range spec.Workloads {
		for name := range units {
			if !seen[w.Name][name] && !seen["layers"][name] {
				t.Errorf("%s is in BENCHMARK.json but not printed for %s", name, w.Name)
			}
		}
	}
}

// TestSummaryLineFollowsTheTraceFlag checks the contract of the last line:
// the end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
func TestSummaryLineFollowsTheTraceFlag(t *testing.T) {
	spec := readSpecForTest(t)
	for trace, want := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
		code, _, last := quickRun(t, "-workload", "smallmix", "-trace", trace)
		if code != 0 || !last.Correct || last.Failed != 0 {
			t.Fatalf("-trace %s: exit %d, correct %v, %d ops failed", trace, code, last.Correct, last.Failed)
		}
		if len(last.Metrics) != len(want) {
			t.Errorf("-trace %s: %d metrics in the summary, want %d", trace, len(last.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := last.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("-trace %s: summary has %s = %+v (present %v), want unit %q", trace, m.Name, got, ok, m.Unit)
			}
			if trace == "0" && got.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, got.Value)
			}
		}
	}
}

// modelledOf runs one workload and returns its modelled and count metrics.
func modelledOf(t *testing.T, name string, seed int64) map[string]float64 {
	t.Helper()
	o := options{seed: seed, workloads: []*workload{findWorkload(name)}, reps: 2, quick: true, out: t.TempDir()}
	doc := measure(o)
	if !doc.Correct {
		t.Fatalf("%s seed %d: %v", name, seed, doc.Errors)
	}
	wr := doc.Workloads[name]
	out := map[string]float64{"attempted": float64(wr.Attempted), "samples": float64(wr.Samples)}
	for _, m := range []string{"ops_per_vs", "goodput_MBps", "lat_p50_us", "lat_p99_us", "host_cpu_us_per_op"} {
		out[m] = wr.EndToEnd[m].Value
	}
	for i, r := range wr.Reps {
		out["events"+strconv.Itoa(i)] = float64(r.Executed)
	}
	return out
}

func TestSameSeedSameModel(t *testing.T) {
	a, b := modelledOf(t, "mesh-lossy", 1), modelledOf(t, "mesh-lossy", 1)
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %v on the first run, %v on the second, same seed", k, v, b[k])
		}
	}
	if c := modelledOf(t, "mesh-lossy", 2); c["lat_p99_us"] == a["lat_p99_us"] {
		t.Errorf("lat_p99_us = %v on seeds 1 and 2: the seed does not reach the workload", c["lat_p99_us"])
	}
}

func TestDefectsTurnTheExitCodeNonZero(t *testing.T) {
	for name, f := range map[string]faults{"corrupted byte": {corruptByte: true}, "leaked conn": {leakConn: true}} {
		for _, w := range workloads {
			var stdout, stderr bytes.Buffer
			o := options{seed: 1, workloads: []*workload{w}, reps: 2, quick: true, out: t.TempDir(), faults: f}
			if code := execute(o, &stdout, &stderr); code == 0 {
				t.Errorf("%s on %s: exit code 0\n%s", name, w.name, stdout.String())
			}
			var last summary
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct {
				t.Errorf("%s on %s: summary %q says correct (parse error %v)", name, w.name, lines[len(lines)-1], err)
			}
			if f.corruptByte && last.Failed == 0 {
				t.Errorf("%s on %s: no operation counted as failed", name, w.name)
			}
		}
	}
}

func TestProfileReportsMissingGates(t *testing.T) {
	cfg, _ := streamWorkload.config(sizing{})
	missing := applyProfile(&cfg, []setting{{"Core.SchedQueue", true}, {"Core.NoSuchGate", true}, {"Core.CongestionControl.InitWindow", 4}})
	if len(missing) != 1 || missing[0] != "Core.NoSuchGate" {
		t.Errorf("missing = %v, want [Core.NoSuchGate]", missing)
	}
	if !cfg.Core.SchedQueue || cfg.Core.CongestionControl.InitWindow != 4 {
		t.Errorf("the gates that exist were not set: %+v", cfg.Core)
	}
}

func TestFillStampAndMatch(t *testing.T) {
	for _, n := range []int{64, 100, 4096, 3*stampStride + 17} {
		b := make([]byte, n)
		fill(b, 7)
		if !matches(b, 7, 0) || matches(b, 8, 0) {
			t.Errorf("%d bytes: pattern does not match itself, or matches another key", n)
		}
		stamp(b, 99)
		if !matches(b, 7, 99) || matches(b, 7, 98) || matches(b, 7, 0) {
			t.Errorf("%d bytes: stamp not recognised", n)
		}
		b[n-1] ^= 1
		if matches(b, 7, 99) {
			t.Errorf("%d bytes: a flipped last byte went unnoticed", n)
		}
	}
	if lastOp(10, 4, 1) != 9 || lastOp(10, 4, 2) != 6 || lastOp(2, 4, 3) != -1 {
		t.Error("lastOp is wrong")
	}
	s := sortedCopy([]int32{5, 1 << 30, 0}, []int32{3, 70000, 2})
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			t.Fatalf("not sorted: %v", s)
		}
	}
	if percentile(s, 50) != 4 || percentile(s, 99) != 1<<30 || percentile(nil, 50) != 0 {
		t.Errorf("percentiles of %v are wrong", s)
	}
}

// TestCompareVerdicts drives -compare with two result files made by hand.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, edit func(e map[string]value)) string {
		e := map[string]value{}
		for _, d := range endToEndDefs {
			e[d.name] = value{Value: 100, Unit: d.unit, Reps: []float64{99, 100, 100, 101}}
		}
		edit(e)
		doc := resultDoc{Workloads: map[string]*workloadResult{"stream": {Attempted: 10, EndToEnd: e}}}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", func(map[string]value) {})
	cases := []struct {
		name string
		edit func(e map[string]value)
		code int
		want string
	}{
		{"same", func(map[string]value) {}, 0, ""},
		{"slower", func(e map[string]value) { e["lat_p50_us"] = value{Value: 105, Unit: "us"} }, 1, "worse"},
		{"faster", func(e map[string]value) { e["lat_p50_us"] = value{Value: 90, Unit: "us"} }, 0, ""},
		{"less throughput", func(e map[string]value) { e["ops_per_vs"] = value{Value: 95, Unit: "1/s"} }, 1, "worse"},
		{"noisy", func(e map[string]value) {
			e["wall_ns_per_op"] = value{Value: 130, Unit: "ns", Reps: []float64{130, 160, 200, 260}}
		}, 0, "unresolved"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", base, write("b.json", c.edit)}, &stdout, &stderr)
		if code != c.code || (c.want != "" && !strings.Contains(stdout.String(), c.want)) {
			t.Errorf("%s: exit %d, want %d and %q in\n%s%s", c.name, code, c.code, c.want, stdout.String(), stderr.String())
		}
	}
}
