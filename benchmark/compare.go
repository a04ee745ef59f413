package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json that comparing needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec finds BENCHMARK.json in the current directory or the one above
// (the benchmark's own directory sits one level below the root).
func readSpec() (*benchmarkSpec, error) {
	var spec benchmarkSpec
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func readResult(path string) (*resultDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// repSpread is the distance between the quartiles of a run's own reps as a
// share of their median: how far apart the run's own measurements lie.
func repSpread(reps []float64) float64 {
	if len(reps) < 2 {
		return 0
	}
	s := slices.Sorted(slices.Values(reps))
	q := func(p float64) float64 { // linear interpolation between ranks
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return ratio(q(0.75)-q(0.25), q(0.5))
}

// verdict compares b against the base a. A metric is unresolved when the
// reps of either run lie further apart than the bound: the runs cannot tell
// a change of that size from noise. Identical values are always ok.
func verdict(a, b value, m specMetric) (worse float64, v string) {
	if a.Value == b.Value {
		return 0, "ok"
	}
	worse = ratio(b.Value-a.Value, a.Value)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(repSpread(a.Reps), repSpread(b.Reps)) > m.Bound && isEngine(m.Name):
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "worse"
	}
	return worse, "ok"
}

// isEngine reports whether a metric is measured on the host. Modelled
// metrics pool reps that run on different seeds on purpose, so the distance
// between their reps is seed variety, not measurement noise.
func isEngine(name string) bool {
	switch name {
	case "wall_ns_per_op", "allocs_per_op", "bytes_per_op", "bytes_per_conn", "setup_s":
		return true
	}
	return false
}

// compareFiles prints one row per workload and end-to-end metric and
// returns 1 if any is worse than its bound allows.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := readSpec()
	var a, b *resultDoc
	if err == nil {
		a, err = readResult(pathA)
	}
	if err == nil {
		b, err = readResult(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (base)\tb\tb/a\tworse by\tbound\tverdict\n")
	code := 0
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			worse, v := verdict(va, vb, m)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%+.2f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, va.Value, va.Unit, vb.Value, vb.Unit, ratio(vb.Value, va.Value), 100*worse, 100*m.Bound, v)
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			fmt.Fprintf(tw, "%s\tfailed ops\t%d of %d\t%d of %d\t\t\t0\tworse\n", w.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return code
}
