package bench

import (
	"testing"

	"multiedge/internal/sim"
)

// TestCrashloopSmall is the tier-1 crash-loop gate: two crash-restart
// cycles under supervised reconnect must recover service both times,
// verify every byte, and leak neither timers nor connections.
func TestCrashloopSmall(t *testing.T) {
	r := RunCrashloop(CrashloopOptions{
		Cycles: 2, Down: 100 * sim.Millisecond, Bytes: 64 << 10,
		DeadInterval: 25 * sim.Millisecond, Backoff: 2 * sim.Millisecond, Seed: 7,
	})
	if !r.DataOK {
		t.Fatalf("crash loop corrupted data: %s", r)
	}
	if !r.LeakFree() {
		t.Fatalf("crash loop leaked post-close state: %s", r)
	}
	if r.Recovered != 2 {
		t.Fatalf("recovered %d/2 cycles: %s", r.Recovered, r)
	}
	if r.Reconnects == 0 || r.ReplayedOps == 0 {
		t.Fatalf("recovery path not exercised: %s", r)
	}
}

// TestCrashloopARQAbsorbed: a downtime shorter than DeadInterval must
// ride out on plain ARQ — service resumes with no incarnation bump.
func TestCrashloopARQAbsorbed(t *testing.T) {
	r := RunCrashloop(CrashloopOptions{
		Cycles: 2, Down: 30 * sim.Millisecond, Bytes: 64 << 10,
		DeadInterval: 200 * sim.Millisecond, Backoff: 5 * sim.Millisecond, Seed: 7,
	})
	if !r.DataOK || !r.LeakFree() || r.Recovered != 2 {
		t.Fatalf("sub-DeadInterval outage not absorbed: %s", r)
	}
	if r.Reconnects != 0 {
		t.Fatalf("reconnected %d times for an outage ARQ should absorb: %s", r.Reconnects, r)
	}
}

// TestCrashloopDeterministic: identical options must produce identical
// recovery timings — the supervisor draws nothing from wall clocks.
func TestCrashloopDeterministic(t *testing.T) {
	o := CrashloopOptions{Cycles: 2, Down: 100 * sim.Millisecond, Bytes: 64 << 10,
		DeadInterval: 25 * sim.Millisecond, Backoff: 2 * sim.Millisecond, Seed: 11}
	a, b := RunCrashloop(o), RunCrashloop(o)
	// The result now carries non-comparable observability artifacts;
	// String() renders every measured figure, and Elapsed pins the
	// virtual extent.
	if a.String() != b.String() || a.Elapsed != b.Elapsed {
		t.Fatalf("crash loop not deterministic:\n  %s\n  %s", a, b)
	}
}
