package bench

import (
	"testing"
	"testing/quick"

	"multiedge/internal/sim"
)

func TestLatencyRecorderPercentiles(t *testing.T) {
	var l LatencyRecorder
	if l.Percentile(50) != 0 || l.Mean() != 0 {
		t.Error("empty recorder must report zero")
	}
	// 1..100 us, recorded shuffled.
	for i := 0; i < 100; i++ {
		l.Record(sim.Time((i*37)%100+1) * sim.Microsecond)
	}
	cases := []struct {
		p    float64
		want sim.Time
	}{
		{50, 50 * sim.Microsecond},
		{90, 90 * sim.Microsecond},
		{99, 99 * sim.Microsecond},
		{100, 100 * sim.Microsecond},
		{1, 1 * sim.Microsecond},
	}
	for _, c := range cases {
		if got := l.Percentile(c.p); got != c.want {
			t.Errorf("p%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if l.Mean() != 50500*sim.Nanosecond {
		t.Errorf("mean = %v, want 50.5us", l.Mean())
	}
	if l.Count() != 100 {
		t.Errorf("count = %d", l.Count())
	}
	// Recording after a percentile query must re-sort.
	l.Record(1000 * sim.Microsecond)
	if got := l.Percentile(100); got != 1000*sim.Microsecond {
		t.Errorf("max after late record = %v", got)
	}
}

// TestLatencyRecorderProperty: percentiles are monotone in p and
// bounded by min/max of the samples.
func TestLatencyRecorderProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var l LatencyRecorder
		lo, hi := sim.Time(1<<62), sim.Time(0)
		for _, r := range raw {
			d := sim.Time(r % 1e6)
			l.Record(d)
			lo, hi = min(lo, d), max(hi, d)
		}
		prev := sim.Time(0)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := l.Percentile(p)
			if v < prev || v < lo || v > hi {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
