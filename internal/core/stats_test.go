package core_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

func TestStatsFractionsZeroDenominator(t *testing.T) {
	var s core.Stats
	if f := s.ExtraTrafficFraction(); f != 0 {
		t.Errorf("ExtraTrafficFraction on zero stats = %v, want 0", f)
	}
	if f := s.OOOFraction(); f != 0 {
		t.Errorf("OOOFraction on zero stats = %v, want 0", f)
	}
	// Extra frames with no data frames: fraction must be 1, not NaN/Inf.
	s.CtrlAcksSent = 3
	if f := s.ExtraTrafficFraction(); f != 1 {
		t.Errorf("ExtraTrafficFraction with only extra frames = %v, want 1", f)
	}
	s.DataFramesSent = 9
	if f := s.ExtraTrafficFraction(); f != 0.25 {
		t.Errorf("ExtraTrafficFraction = %v, want 0.25", f)
	}
	s.Arrivals, s.OOOArrivals = 8, 2
	if f := s.OOOFraction(); f != 0.25 {
		t.Errorf("OOOFraction = %v, want 0.25", f)
	}
}

func TestStatsAddAggregation(t *testing.T) {
	a := core.Stats{
		OpsStarted: 1, OpsCompleted: 1, DataFramesSent: 10, DataBytesSent: 1000,
		CtrlAcksSent: 2, Retransmissions: 1, Arrivals: 5, OOOArrivals: 1,
		HeldFrames: 4, HoldMax: 7, AppProtoTime: 100 * sim.Nanosecond,
	}
	b := core.Stats{
		OpsStarted: 2, DataFramesSent: 20, DataBytesSent: 2000, CtrlNacksSent: 3,
		Arrivals: 15, OOOArrivals: 6, HeldFrames: 1, HoldMax: 3,
		AppProtoTime: 50 * sim.Nanosecond,
	}
	a.Add(&b)
	if a.OpsStarted != 3 || a.DataFramesSent != 30 || a.DataBytesSent != 3000 {
		t.Errorf("counter sums wrong: %+v", a)
	}
	if a.CtrlAcksSent != 2 || a.CtrlNacksSent != 3 || a.Retransmissions != 1 {
		t.Errorf("ctrl sums wrong: %+v", a)
	}
	if a.Arrivals != 20 || a.OOOArrivals != 7 || a.HeldFrames != 5 {
		t.Errorf("arrival sums wrong: %+v", a)
	}
	// HoldMax is a peak, not a sum: max-merge.
	if a.HoldMax != 7 {
		t.Errorf("HoldMax = %d, want 7 (max-merge, not sum)", a.HoldMax)
	}
	c := core.Stats{HoldMax: 11}
	a.Add(&c)
	if a.HoldMax != 11 {
		t.Errorf("HoldMax = %d, want 11 after merging a larger peak", a.HoldMax)
	}
	if a.AppProtoTime != 150*sim.Nanosecond {
		t.Errorf("AppProtoTime = %v, want 150ns", a.AppProtoTime)
	}
}

// lossyTwoRailRun streams data over the lossy unordered two-rail config
// and returns the cluster (fully drained).
func lossyTwoRailRun(t *testing.T, o cluster.ObsOptions) *cluster.Cluster {
	t.Helper()
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Link.LossProb = 0.02
	cfg.Seed = 7
	cfg.Obs = o
	cl, c01, _ := pairCluster(t, cfg)
	const n = 256 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 3)
	cl.Env.Go("xfer", func(p *sim.Proc) {
		must(c01.Do(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite, Flags: frame.Notify})).Wait(p)
	})
	cl.Env.Run()
	return cl
}

// TestObsMatchesLegacyStats checks the tentpole's aggregation guarantee:
// the registry's core_* totals mirror the legacy core.Stats counters
// exactly, because collectors poll the same structs at gather time.
func TestObsMatchesLegacyStats(t *testing.T) {
	cl := lossyTwoRailRun(t, cluster.ObsOptions{Metrics: true, Spans: true})
	snap := cl.Obs.Gather()
	for i, node := range cl.Nodes {
		st := &node.EP.Stats
		for _, c := range []struct {
			name string
			want uint64
		}{
			{"core_ops_started_total", st.OpsStarted},
			{"core_ops_completed_total", st.OpsCompleted},
			{"core_data_frames_sent_total", st.DataFramesSent},
			{"core_data_bytes_sent_total", st.DataBytesSent},
			{"core_ctrl_acks_sent_total", st.CtrlAcksSent},
			{"core_ctrl_nacks_sent_total", st.CtrlNacksSent},
			{"core_retransmissions_total", st.Retransmissions},
			{"core_data_frames_recv_total", st.DataFramesRecv},
			{"core_data_bytes_recv_total", st.DataBytesRecv},
			{"core_duplicates_total", st.Duplicates},
			{"core_arrivals_total", st.Arrivals},
			{"core_ooo_arrivals_total", st.OOOArrivals},
			{"core_held_frames_total", st.HeldFrames},
		} {
			got, ok := snap.Get(c.name, obs.NodeLabel(i))
			if !ok {
				t.Fatalf("node %d: %s missing from snapshot", i, c.name)
			}
			if got != float64(c.want) {
				t.Errorf("node %d: %s = %v, legacy Stats say %d", i, c.name, got, c.want)
			}
		}
		hm, ok := snap.Get("core_hold_max", obs.NodeLabel(i))
		if !ok || hm != float64(st.HoldMax) {
			t.Errorf("node %d: core_hold_max = %v (%v), legacy %d", i, hm, ok, st.HoldMax)
		}
	}
	// The run must actually have exercised the lossy two-rail paths, or
	// the equalities above prove nothing.
	st := &cl.Nodes[1].EP.Stats
	if st.OOOArrivals == 0 {
		t.Error("no out-of-order arrivals on unordered two-rail run")
	}
	if cl.Nodes[0].EP.Stats.Retransmissions == 0 {
		t.Error("no retransmissions under 2% loss")
	}
}

// TestObsDoesNotPerturbRun checks the zero-perturbation guarantee:
// enabling metrics+spans changes neither the virtual-time outcome nor
// any protocol counter of a lossy run.
func TestObsDoesNotPerturbRun(t *testing.T) {
	off := lossyTwoRailRun(t, cluster.ObsOptions{})
	on := lossyTwoRailRun(t, cluster.ObsOptions{Metrics: true, Spans: true})
	if off.Obs != nil {
		t.Fatal("zero ObsOptions built a registry")
	}
	if got, want := on.Env.Now(), off.Env.Now(); got != want {
		t.Fatalf("virtual end time differs with obs on: %v vs %v", got, want)
	}
	for i := range off.Nodes {
		a, b := off.Nodes[i].EP.Stats, on.Nodes[i].EP.Stats
		if a != b {
			t.Errorf("node %d stats differ with obs on:\noff %+v\non  %+v", i, a, b)
		}
	}
}

// TestClusterChromeTraceDeterministic: equal seeds must export
// byte-identical traces from full protocol runs, not just from the
// synthetic registry tests in internal/obs.
func TestClusterChromeTraceDeterministic(t *testing.T) {
	a := lossyTwoRailRun(t, cluster.ObsOptions{Metrics: true, Spans: true}).Obs.ChromeTrace()
	b := lossyTwoRailRun(t, cluster.ObsOptions{Metrics: true, Spans: true}).Obs.ChromeTrace()
	if !bytes.Equal(a, b) {
		t.Fatal("ChromeTrace differs between identical runs")
	}
	for _, want := range []string{`"frame-retx"`, `"nack-repair"`, `"frame-tx"`, `"rx-apply"`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("trace missing %s events", want)
		}
	}
}

// statsPeaks are the Stats fields that are high-water marks, spelled
// here independently of the obs tags the implementation reads.
var statsPeaks = map[string]bool{"HoldMax": true, "RtoBackoffMax": true}

// TestStatsDeclaredOnce: every Stats field, whatever is added later, is
// summed by Add, differenced by Sub and published by Collector — peaks
// merged by max, kept by Sub and exported as gauges. Both structs are
// filled by reflection with distinct values, so a field the derived
// operations skip cannot hide behind a zero.
func TestStatsDeclaredOnce(t *testing.T) {
	var a, b core.Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	put := func(v reflect.Value, x int64) {
		if v.CanUint() {
			v.SetUint(uint64(x))
		} else {
			v.SetInt(x)
		}
	}
	get := func(v reflect.Value) int64 {
		if v.CanUint() {
			return int64(v.Uint())
		}
		return v.Int()
	}
	n := av.NumField()
	for i := 0; i < n; i++ {
		put(av.Field(i), int64(1000+7*i))
		put(bv.Field(i), int64(10+3*i))
	}
	sum, rsum := a, b
	sum.Add(&b)
	rsum.Add(&a)
	diff := a.Sub(b)
	samples := map[string]obs.Sample{}
	a.Collector(3)(func(s obs.Sample) { samples[s.Name] = s })
	if len(samples) != n {
		t.Errorf("collector emitted %d distinct series for %d fields", len(samples), n)
	}
	for i := 0; i < n; i++ {
		f := av.Type().Field(i)
		x, y := get(av.Field(i)), get(bv.Field(i))
		wantSum, wantDiff, wantType := x+y, x-y, obs.TypeCounter
		if statsPeaks[f.Name] {
			wantSum, wantDiff, wantType = x, x, obs.TypeGauge
		}
		for what, got := range map[string]int64{
			"a.Add(b)": get(reflect.ValueOf(sum).Field(i)),
			"b.Add(a)": get(reflect.ValueOf(rsum).Field(i)),
		} {
			if got != wantSum {
				t.Errorf("%s: %s = %d, want %d", f.Name, what, got, wantSum)
			}
		}
		if got := get(reflect.ValueOf(diff).Field(i)); got != wantDiff {
			t.Errorf("%s: a.Sub(b) = %d, want %d", f.Name, got, wantDiff)
		}
		series, _, _ := strings.Cut(f.Tag.Get("obs"), ",")
		s, ok := samples[series]
		if !ok || s.Value != float64(x) || s.Type != wantType ||
			len(s.Labels) != 1 || s.Labels[0] != obs.NodeLabel(3) {
			t.Errorf("%s: series %q collected as %+v (present=%v), want value %d type %v on node 3",
				f.Name, series, s, ok, x, wantType)
		}
	}
}
