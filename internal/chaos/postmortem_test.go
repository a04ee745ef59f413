package chaos

import (
	"encoding/json"
	"strings"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/sim"
)

// TestPostMortemOnForcedFailure is the flight-recorder acceptance test:
// a soak whose script kills the peer without ExpectDeath must trip the
// unexpected-death invariant, and the resulting post-mortem dump must
// interleave the injected fault with the victim connection's last
// recorded state transitions — the evidence a human needs to see what
// the protocol was doing when it died.
func TestPostMortemOnForcedFailure(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Core.DeadInterval = 200 * sim.Millisecond
	cfg.Core.HeartbeatInterval = 20 * sim.Millisecond
	res, vs, art := Run(Options{
		Config:    cfg,
		Seed:      1,
		Transfers: 1000,
		Bytes:     16 << 10,
		Horizon:   5 * sim.Second,
		// ExpectDeath deliberately false: the kill below is the injected
		// fault the dump must explain.
		Script: func(r *Runner) { r.KillNode(50*sim.Millisecond, 1) },
	})
	if !res.PeerDead {
		t.Fatalf("writer never observed ErrPeerDead (completed %d)", res.Completed)
	}
	if len(vs) == 0 {
		t.Fatal("no violation despite an unexpected peer death")
	}
	if art == nil || art.Dump == nil {
		t.Fatal("violating run produced no post-mortem dump")
	}
	if len(art.Recorders) != 2 {
		t.Fatalf("recorders attached = %d; want one per node", len(art.Recorders))
	}

	tl := art.Dump.Timeline()
	// The injected fault must be in the timeline...
	if !strings.Contains(tl, "FAULT  kill node n1") {
		t.Fatalf("timeline missing the injected fault:\n%s", tl)
	}
	// ...the cause tag must name the tripped invariant...
	if !strings.Contains(art.Dump.Cause, "unexpected-death") {
		t.Fatalf("dump cause %q does not name the invariant", art.Dump.Cause)
	}
	// ...and the victim connection's final state transitions must have
	// survived: establishment before the fault, the peer-death verdict
	// and terminal failure after it, with RTO expiries in between.
	for _, want := range []string{"established", "peer-dead", "failed", "rto-expiry"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing victim state %q:\n%s", want, tl)
		}
	}
	if strings.Index(tl, "FAULT") > strings.Index(tl, "peer-dead") {
		t.Fatalf("fault not interleaved before its effect:\n%s", tl)
	}

	if out := art.Dump.JSON(); !json.Valid(out) {
		t.Fatalf("dump JSON invalid:\n%s", out)
	}

	// Determinism: the identical run must dump the identical timeline.
	_, _, art2 := Run(Options{
		Config: cfg, Seed: 1, Transfers: 1000, Bytes: 16 << 10,
		Horizon: 5 * sim.Second,
		Script:  func(r *Runner) { r.KillNode(50*sim.Millisecond, 1) },
	})
	if art2 == nil || art2.Dump == nil || art2.Dump.Timeline() != tl {
		t.Fatal("post-mortem dump not deterministic across identical runs")
	}
}

// TestCleanSoakHasNoDump: a healthy run keeps its recorders but builds
// no post-mortem — the dump is strictly a failure artifact.
func TestCleanSoakHasNoDump(t *testing.T) {
	res, vs, art := Run(Options{
		Config:    cluster.OneLink1G(2),
		Seed:      1,
		Transfers: 5,
		Bytes:     4 << 10,
		Horizon:   5 * sim.Second,
	})
	if len(vs) != 0 {
		t.Fatalf("clean soak violated: %v", vs)
	}
	if res.Completed != 5 || !res.DataOK {
		t.Fatalf("clean soak incomplete: %+v", res)
	}
	if art.Dump != nil {
		t.Fatal("clean soak built a post-mortem dump")
	}
	if len(art.Recorders) != 2 || len(art.Recorders[0].Events()) == 0 {
		t.Fatal("flight recorders absent or empty on a clean run")
	}
}
