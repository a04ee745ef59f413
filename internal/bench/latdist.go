package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// RunLatencyDist runs count ping-pong round trips of size bytes and
// records each round trip individually, exposing the latency
// *distribution* the paper's mean-only Figure 2(a) hides: multi-rail
// jitter widens the body, and NACK repair after a loss puts a
// NackDelay-scale bump in the tail.
func RunLatencyDist(cfg cluster.Config, size, count int) *LatencyRecorder {
	cfg.Nodes = 2
	cl := cluster.New(cfg)
	defer cl.Close()
	c01, c10 := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	s0, d0 := ep0.Alloc(size), ep0.Alloc(size)
	s1, d1 := ep1.Alloc(size), ep1.Alloc(size)

	rec := &LatencyRecorder{}
	const warm = 8
	cl.Env.Go("pong", func(p *sim.Proc) {
		for i := 0; i < warm+count; i++ {
			c10.WaitNotify(p)
			c10.MustDo(p, core.Op{Remote: d0, Local: s1, Size: size, Kind: frame.OpWrite, Flags: frame.Notify})
		}
	})
	cl.Env.Go("ping", func(p *sim.Proc) {
		for i := 0; i < warm+count; i++ {
			t0 := cl.Env.Now()
			c01.MustDo(p, core.Op{Remote: d1, Local: s0, Size: size, Kind: frame.OpWrite, Flags: frame.Notify})
			c01.WaitNotify(p)
			if i >= warm {
				rec.Record(cl.Env.Now() - t0)
			}
		}
	})
	cl.Env.RunUntil(600 * sim.Second)
	return rec
}

// RenderLatencyDist renders round-trip latency percentiles for the
// paper's configurations plus a lossy variant, at a small and a
// frame-sized transfer.
func RenderLatencyDist(count int) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Round-trip latency distribution (ping-pong; Figure 2a reports only means)")
	type variant struct {
		name string
		cfg  cluster.Config
	}
	lossy := cluster.TwoLinkUnordered1G(2)
	lossy.Link.LossProb = 0.005
	lossy.Name = "2Lu-1G+0.5%loss"
	variants := []variant{
		{"1L-1G", cluster.OneLink1G(2)},
		{"2Lu-1G", cluster.TwoLinkUnordered1G(2)},
		{"2Lu-1G+0.5%loss", lossy},
		{"1L-10G", cluster.OneLink10G(2)},
	}
	for _, size := range []int{64, 1444} {
		fmt.Fprintf(&b, "\n%d-byte payload, %d round trips\n", size, count)
		fmt.Fprintf(&b, "  %-16s %9s %9s %9s %9s %9s\n", "config", "p50", "p90", "p99", "max", "mean")
		for _, v := range variants {
			r := RunLatencyDist(v.cfg, size, count)
			fmt.Fprintf(&b, "  %-16s %8.1fus %8.1fus %8.1fus %8.1fus %8.1fus\n", v.name,
				r.Percentile(50).Micros(), r.Percentile(90).Micros(),
				r.Percentile(99).Micros(), r.Percentile(100).Micros(), r.Mean().Micros())
		}
	}
	return b.String()
}

// LatencyRecorder collects operation latency samples and reports exact
// percentiles (the samples are sorted on demand; with deterministic
// simulation the distribution itself is reproducible bit-for-bit).
// Useful where a mean hides the story: NACK-repair tails, multi-rail
// jitter.
type LatencyRecorder struct {
	samples []sim.Time
	sorted  bool
}

// Record adds one sample.
func (l *LatencyRecorder) Record(d sim.Time) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Count returns how many samples were recorded.
func (l *LatencyRecorder) Count() int { return len(l.samples) }

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method; zero with no samples.
func (l *LatencyRecorder) Percentile(p float64) sim.Time {
	n := len(l.samples)
	if n == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
	if p <= 0 {
		return l.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	return l.samples[min(max(rank, 1), n)-1]
}

// Mean returns the arithmetic mean of the samples.
func (l *LatencyRecorder) Mean() sim.Time {
	if len(l.samples) == 0 {
		return 0
	}
	var sum sim.Time
	for _, s := range l.samples {
		sum += s
	}
	return sum / sim.Time(len(l.samples))
}
