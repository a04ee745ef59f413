// Command benchmark is the repository's yardstick: four closed-loop
// workloads on the simulated cluster, reported as modelled metrics (virtual
// time: what a user of the cluster gets) and engine metrics (wall time and
// allocations: what the Go program costs), with per-layer attribution taken
// only from outside the program. README.md defines every workload and
// metric; BENCHMARK.json fixes the names, units and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// options is one invocation.
type options struct {
	seed      int64
	workloads []*workload
	reps      int
	quick     bool
	trace     bool // also run the traced rep and the layer drivers
	full      bool // every workload, traced: the run later issues quote
	out       string
	faults    faults
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Attempted      int              `json:"attempted"`
	Failed         int              `json:"failed"`
	Samples        int              `json:"latency_samples"`
	ProfileSamples int              `json:"profile_samples,omitempty"`
	EndToEnd       map[string]value `json:"end_to_end"`
	PerLayer       map[string]value `json:"per_layer,omitempty"`
	Reps           []*repResult     `json:"reps"`
	Traced         *repResult       `json:"traced_rep,omitempty"`
	Errors         []string         `json:"errors,omitempty"`
}

// resultDoc is result.json.
type resultDoc struct {
	Go             string                     `json:"go"`
	GOMAXPROCS     int                        `json:"gomaxprocs"`
	NProc          int                        `json:"nproc"`
	Seed           int64                      `json:"seed"`
	Reps           int                        `json:"reps"`
	Quick          bool                       `json:"quick"`
	ProfileMissing []string                   `json:"profile_missing"`
	Correct        bool                       `json:"correct"`
	Workloads      map[string]*workloadResult `json:"workloads"`
	Layers         map[string]value           `json:"layers,omitempty"`
	Errors         []string                   `json:"errors,omitempty"`
}

// profileMissing collects the gates a profile names that no longer exist.
var profileMissing []string

func noteMissing(path string) {
	if !slices.Contains(profileMissing, path) {
		profileMissing = append(profileMissing, path)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed; rep r runs on a cluster seed derived from (seed, r)")
	name := fs.String("workload", "", "run one workload (stream, smallmix, fanin, mesh-lossy); default: all four, traced")
	seconds := fs.Int("seconds", 20, "measurement time to size the run for: 2 reps per 5 s, at least 2")
	reps := fs.Int("reps", 0, "untraced reps per workload, overriding -seconds")
	trace := fs.Int("trace", 0, "with -workload: 1 adds the traced rep and the layer drivers and reports the per-layer metrics")
	quick := fs.Bool("quick", false, "small operation counts and 2 reps, for tests")
	out := fs.String("out", "", "directory for result.json and trace-<workload>.json (default benchmark/out)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o := options{seed: *seed, reps: *reps, quick: *quick, out: *out}
	switch {
	case *name == "":
		o.workloads, o.trace, o.full = workloads, true, true
	case findWorkload(*name) == nil:
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	default:
		o.workloads, o.trace = []*workload{findWorkload(*name)}, *trace != 0
	}
	if o.reps <= 0 {
		o.reps = max(2, *seconds*2/5)
		if o.quick {
			o.reps = 2
		}
	}
	if o.out == "" {
		o.out = "out"
		if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
			o.out = filepath.Join("benchmark", "out")
		}
	}
	return execute(o, stdout, stderr)
}

// execute measures, reports what it has, and returns the exit code: 1 when
// an operation failed, a byte differs, something leaked, the traced rep
// diverged or a rep ran into the watchdog.
func execute(o options, stdout, stderr io.Writer) int {
	doc := measure(o)
	if err := report(doc, o, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !doc.Correct {
		for _, e := range doc.Errors {
			fmt.Fprintln(stderr, "benchmark:", e)
		}
		return 1
	}
	return 0
}

// measure runs the selected workloads under the run protocol.
func measure(o options) *resultDoc {
	// The simulator runs one process at a time and hands off over
	// unbuffered channels; with one P the handoff stays on one thread.
	runtime.GOMAXPROCS(1)
	profileMissing = nil
	doc := &resultDoc{
		Go: runtime.Version(), GOMAXPROCS: 1, NProc: runtime.NumCPU(),
		Seed: o.seed, Reps: o.reps, Quick: o.quick,
		Workloads: map[string]*workloadResult{},
	}
	sz := sizing{quick: o.quick}
	for _, w := range o.workloads {
		wr := runWorkload(w, sz, o)
		doc.Workloads[w.name] = wr
		for _, e := range wr.Errors {
			doc.Errors = append(doc.Errors, w.name+": "+e)
		}
	}
	if o.trace {
		m, errs := runLayers(o.quick)
		doc.Errors = append(doc.Errors, errs...)
		doc.Layers = map[string]value{}
		for _, d := range perLayerDefs {
			if v, ok := m[d.name]; ok {
				doc.Layers[d.name] = value{Value: v, Unit: d.unit}
			}
		}
	}
	doc.ProfileMissing = append([]string{}, profileMissing...)
	doc.Correct = len(doc.Errors) == 0
	return doc
}

// runWorkload runs the untraced reps of w, each on a fresh cluster with its
// own seed, then one traced rep on the first rep's seed.
func runWorkload(w *workload, sz sizing, o options) *workloadResult {
	wr := &workloadResult{}
	// One arena share per untraced rep, one for the traced rep and one that
	// the set-up-only reps reuse.
	ar := newArena(2*w.ops(sz), o.reps+2)
	spec := repSpec{w: w, sz: sz, faults: o.faults}
	for r := range o.reps {
		spec.seed, spec.idx, spec.share = repSeed(o.seed, r), r, r
		res := runRep(spec, ar)
		wr.Reps = append(wr.Reps, res)
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		for _, e := range res.Errors {
			wr.Errors = append(wr.Errors, fmt.Sprintf("rep %d: %s", r, e))
		}
	}
	if !o.trace {
		// Set-up is short, so its time is noisy: set up more often than
		// there are reps.
		var setups []*repResult
		spec.setupOnly, spec.share = true, o.reps+1
		for k := range extraSetups(o) {
			spec.seed, spec.idx = repSeed(o.seed, o.reps+k), o.reps+k
			res := runRep(spec, ar)
			setups = append(setups, res)
			for _, e := range res.Errors {
				wr.Errors = append(wr.Errors, fmt.Sprintf("set-up %d: %s", k, e))
			}
		}
		wr.EndToEnd, wr.Samples = endToEnd(wr.Reps, setups)
		return wr
	}
	wr.EndToEnd, wr.Samples = endToEnd(wr.Reps, nil)
	layers := counterLayers(wr.Reps)
	spec.seed, spec.idx, spec.share, spec.traced = repSeed(o.seed, 0), 0, o.reps, true
	tr := runRep(spec, ar)
	wr.Traced = tr
	for _, e := range tr.Errors {
		wr.Errors = append(wr.Errors, "traced rep: "+e)
	}
	if !sameModel(tr, wr.Reps[0]) {
		wr.Errors = append(wr.Errors, fmt.Sprintf("traced rep differs from rep 0 on the same seed: %v != %v", tr.modelled(), wr.Reps[0].modelled()))
	}
	layers["bench.issue_wall_share_pct"] = 100 * ratio(float64(tr.IssueWallNs), float64(tr.IssueWallNs+tr.WaitWallNs))
	layers["bench.trace_overhead_pct"] = 100 * (ratio(quietNsPerEvent(tr), quietNsPerEvent(wr.Reps...)) - 1)
	shares, n, err := cpuShares(tr.cpu)
	if err != nil {
		wr.Errors = append(wr.Errors, err.Error())
	}
	wr.ProfileSamples = n
	for l, s := range shares {
		name, ok := strings.CutPrefix(l, "runtime.")
		if ok {
			layers["runtime."+name+"_share_pct"] = s
		} else {
			layers[l+".cpu_share_pct"] = s
		}
	}
	wr.PerLayer = map[string]value{}
	for _, d := range perLayerDefs {
		if v, ok := layers[d.name]; ok {
			wr.PerLayer[d.name] = value{Value: v, Unit: d.unit}
		}
	}
	if tr.tr != nil {
		if err := os.MkdirAll(o.out, 0o755); err == nil {
			err = tr.tr.write(filepath.Join(o.out, "trace-"+w.name+".json"), w.name, tr.Seed)
		}
		if err != nil {
			wr.Errors = append(wr.Errors, fmt.Sprintf("writing the trace: %v", err))
		}
	}
	return wr
}

// extraSetups is how many set-up-only reps follow the measured ones.
func extraSetups(o options) int {
	if o.quick {
		return 1
	}
	return 24
}

// report prints one line per metric, writes result.json and ends with the
// one-line JSON summary.
func report(doc *resultDoc, o options, stdout io.Writer) error {
	fmt.Fprintf(stdout, "# go=%s GOMAXPROCS=%d nproc=%d seed=%d reps=%d quick=%v\n",
		doc.Go, doc.GOMAXPROCS, doc.NProc, doc.Seed, doc.Reps, doc.Quick)
	for _, m := range doc.ProfileMissing {
		fmt.Fprintf(stdout, "# profile.missing=%s\n", m)
	}
	line := func(workload, name string, v value) {
		fmt.Fprintf(stdout, "workload=%s metric=%s value=%.6f unit=%s\n", workload, name, v.Value, v.Unit)
	}
	summary := map[string]value{}
	attempted, failed := 0, 0
	for _, w := range o.workloads {
		wr := doc.Workloads[w.name]
		attempted += wr.Attempted
		failed += wr.Failed
		var whole []float64 // window wall time per op, everything included
		for _, r := range wr.Reps {
			whole = append(whole, ratio(float64(r.WallNs), float64(r.Ops)))
		}
		lo, med, hi := minMedMax(whole)
		fmt.Fprintf(stdout, "# workload=%s attempted=%d failed=%d latency_samples=%d profile_samples=%d whole-window wall ns per op: fastest rep %.1f median %.1f slowest %.1f\n",
			w.name, wr.Attempted, wr.Failed, wr.Samples, wr.ProfileSamples, lo, med, hi)
		fmt.Fprintf(stdout, "# workload=%s wall ns per event by slice: p05 p25 p50 p75 p95 = %.2f\n", w.name,
			sliceQuantiles(wr.Reps, 0.05, 0.25, 0.50, 0.75, 0.95))
		prefix := ""
		if o.full {
			prefix = w.name + "."
		}
		for _, d := range endToEndDefs {
			line(w.name, d.name, wr.EndToEnd[d.name])
			if o.full || !o.trace {
				summary[prefix+d.name] = wr.EndToEnd[d.name]
			}
		}
		for _, d := range perLayerDefs {
			if v, ok := wr.PerLayer[d.name]; ok {
				line(w.name, d.name, v)
				summary[prefix+d.name] = v
			}
		}
	}
	for _, d := range perLayerDefs {
		if v, ok := doc.Layers[d.name]; ok {
			line("layers", d.name, v)
			if o.full {
				summary["layers."+d.name] = v
			} else {
				summary[d.name] = v
			}
		}
	}
	for _, e := range doc.Errors {
		fmt.Fprintf(stdout, "# error: %s\n", e)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "result.json"), b, 0o644); err != nil {
		return err
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{doc.Correct, attempted, failed, map[string]value{}}
	for name, v := range summary {
		final.Metrics[name] = value{Value: v.Value, Unit: v.Unit} // without the per-rep figures
	}
	b, err = json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}
