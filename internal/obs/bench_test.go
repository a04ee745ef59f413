package obs

import (
	"testing"

	"multiedge/internal/sim"
)

// BenchmarkDisabledRegistry measures the cost instrumented hot paths
// pay when observability is off: one nil check per call site. The
// tentpole's zero-cost-when-disabled requirement means this must stay
// in the ~1 ns/op range (the end-to-end check is that the seed's
// BenchmarkFig2Throughput numbers do not move).
func BenchmarkDisabledRegistry(b *testing.B) {
	var r *Registry
	b.Run("gauge", func(b *testing.B) {
		g := r.Gauge("x")
		for i := 0; i < b.N; i++ {
			g.Add(1)
		}
	})
	b.Run("span-gate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r.SpansEnabled() {
				b.Fatal("unreachable")
			}
		}
	})
	b.Run("span-event", func(b *testing.B) {
		var s *Span
		for i := 0; i < b.N; i++ {
			s.Event(0, EvFrameTx, 0, 0, 0, 0)
		}
	})
}

// BenchmarkEnabledSpanEvent is the paired cost when spans are on, for
// comparison in review.
func BenchmarkEnabledSpanEvent(b *testing.B) {
	r := New(sim.NewEnv(1))
	r.EnableSpans()
	s := r.StartOpSpan(SpanID{Node: 0, Conn: 0, Op: 1}, "core", "write", 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Event(sim.Time(i), EvFrameTx, 0, 0, uint32(i), 64)
	}
}
