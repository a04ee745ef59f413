package bench

// Perf-trajectory output: every medbench mode can serialize its
// measurements as a schema-versioned BENCH_<mode>.json document, and
// CompareBench diffs two documents row-by-row so CI can ratchet
// performance (fail on ops/s or tail-latency regressions) against a
// committed baseline. Rows are matched by name; the headline figures
// (ops/s, goodput, latency percentiles) derive from virtual simulation
// time, so identical seeds produce identical documents on any machine
// and committed baselines stay stable. Allocation figures are wall-side
// (they depend on the Go runtime) but deterministic enough to ratchet
// with slack: CompareBench fails when allocs/op grows more than 25%
// over a nonzero baseline, guarding the pooled hot path against
// re-introduced per-op churn.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"multiedge/internal/obs"
)

// BenchSchema versions the BENCH_*.json document format.
const BenchSchema = "multiedge-bench/v1"

// BenchRow is one named measurement in a bench document.
type BenchRow struct {
	Name        string             `json:"name"`
	Ops         int                `json:"ops"`
	OpsPerSec   float64            `json:"ops_per_sec"`
	GoodputMBs  float64            `json:"goodput_mbs"`
	P50Us       float64            `json:"p50_us"`
	P95Us       float64            `json:"p95_us"`
	P99Us       float64            `json:"p99_us"`
	AllocsPerOp float64            `json:"allocs_per_op"` // wall-side, ratcheted with 25% slack
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// BenchDoc is one BENCH_<mode>.json document.
type BenchDoc struct {
	Schema string     `json:"schema"`
	Mode   string     `json:"mode"`
	Rows   []BenchRow `json:"rows"`
}

// NewBenchDoc returns an empty document for mode; its rows are an empty
// list, not nil, so JSON writes [] until one is added.
func NewBenchDoc(mode string) *BenchDoc {
	return &BenchDoc{Schema: BenchSchema, Mode: mode, Rows: []BenchRow{}}
}

// JSON renders the document through obs.EncodeJSON: rows in append
// order, extra keys sorted. Nil when a figure is NaN or infinite.
func (d *BenchDoc) JSON() []byte { return obs.EncodeJSON(d) }

// WriteFile writes the document to path; a figure JSON cannot carry is
// an error.
func (d *BenchDoc) WriteFile(path string) error {
	return obs.WriteDoc(path, d.JSON())
}

// ParseBench parses a BENCH_*.json document and validates its schema.
func ParseBench(data []byte) (*BenchDoc, error) {
	var d BenchDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("bench: parsing document: %w", err)
	}
	if !strings.HasPrefix(d.Schema, "multiedge-bench/") {
		return nil, fmt.Errorf("bench: unknown schema %q (want %s)", d.Schema, BenchSchema)
	}
	return &d, nil
}

// ReadBenchFile reads and parses one BENCH_*.json file.
func ReadBenchFile(path string) (*BenchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := ParseBench(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// Regression thresholds for CompareBench: ops/s may not drop by more
// than 10%, p99 latency may not grow by more than 20%, and allocs/op
// may not grow by more than 25% relative to the baseline. The alloc
// slack is the widest because the figure is wall-side: GC timing and
// pool warmup vary run to run, while the virtual-time figures do not.
const (
	opsRegressionFrac    = 0.10
	p99RegressionFrac    = 0.20
	allocsRegressionFrac = 0.25
)

// CompareBench diffs cur against the base document and returns one
// human-readable line per regression (empty = ratchet holds). Rows are
// matched by name; rows present only in base fail (a measurement
// disappeared), rows present only in cur pass (new coverage). Rows
// with a zero baseline figure skip that figure's check — there is
// nothing to regress from.
func CompareBench(base, cur *BenchDoc) []string {
	var fails []string
	curRows := make(map[string]BenchRow, len(cur.Rows))
	for _, r := range cur.Rows {
		curRows[r.Name] = r
	}
	for _, b := range base.Rows {
		c, ok := curRows[b.Name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: row missing from current document", b.Name))
			continue
		}
		if b.OpsPerSec > 0 && c.OpsPerSec < b.OpsPerSec*(1-opsRegressionFrac) {
			fails = append(fails, fmt.Sprintf("%s: ops/s regressed %.0f -> %.0f (-%.1f%%, limit %.0f%%)",
				b.Name, b.OpsPerSec, c.OpsPerSec,
				100*(1-c.OpsPerSec/b.OpsPerSec), 100*opsRegressionFrac))
		}
		if b.P99Us > 0 && c.P99Us > b.P99Us*(1+p99RegressionFrac) {
			fails = append(fails, fmt.Sprintf("%s: p99 regressed %.1fus -> %.1fus (+%.1f%%, limit %.0f%%)",
				b.Name, b.P99Us, c.P99Us,
				100*(c.P99Us/b.P99Us-1), 100*p99RegressionFrac))
		}
		if b.AllocsPerOp > 0 && c.AllocsPerOp > b.AllocsPerOp*(1+allocsRegressionFrac) {
			fails = append(fails, fmt.Sprintf("%s: allocs/op regressed %.2f -> %.2f (+%.1f%%, limit %.0f%%)",
				b.Name, b.AllocsPerOp, c.AllocsPerOp,
				100*(c.AllocsPerOp/b.AllocsPerOp-1), 100*allocsRegressionFrac))
		}
	}
	return fails
}

// BenchRow converts one small-op measurement into a bench-document row.
func (r SmallOpResult) BenchRow() BenchRow {
	mode := "eager"
	if r.Batch > 0 {
		mode = fmt.Sprintf("sq%d", r.Batch)
	}
	return BenchRow{
		Name:       fmt.Sprintf("smallops-%s-%dB-%s", r.Config, r.Size, mode),
		Ops:        r.Count,
		OpsPerSec:  r.MOpsS * 1e6,
		GoodputMBs: r.GoodMB,
		P50Us:      r.P50Us,
		P95Us:      r.P95Us,
		P99Us:      r.P99Us,
		Extra: map[string]float64{
			"doorbells":        float64(r.Doorbells),
			"coalesced_frames": float64(r.CoalescedFrames),
		},
	}
}

// BenchRow converts one micro-benchmark measurement into a
// bench-document row.
func (r MicroResult) BenchRow() BenchRow {
	return BenchRow{
		Name:       fmt.Sprintf("%s-%s-%dB", r.Benchmark, r.Config, r.Size),
		Ops:        1,
		GoodputMBs: r.ThroughputMBs,
		P50Us:      r.LatencyUs,
		P99Us:      r.LatencyUs,
		Extra:      map[string]float64{"cpu_pct": r.CPUPct},
	}
}
