package core

import (
	"testing"

	"multiedge/internal/sim"
)

// TestRttEst pins the one round-trip estimator without a cluster: the
// first sample, the RFC 6298 coefficients on a hand-computed series, the
// [RTO, RTOMax] clamp, and that the conn-level estimator and a
// rail's, fed the same samples, are the same estimator.
func TestRttEst(t *testing.T) {
	var e rttEst
	if e.rto(&Config{RTO: 2000}) != 0 {
		t.Error("an estimator with no sample must report no timeout")
	}
	for i, step := range []struct {
		sample, srtt, rttvar sim.Time
		took                 bool
	}{
		{0, 0, 0, false},        // not a measurement
		{1000, 1000, 500, true}, // first: srtt = s, rttvar = s/2
		{2000, 1125, 625, true}, // (3*500+1000)/4, (7*1000+2000)/8
		{-5, 1125, 625, false},  // clock skew: ignored
		{400, 1034, 650, true},  // (3*625+725)/4, (7*1125+400)/8 rounded down
		{1034, 1034, 487, true}, // a sample on the mean only shrinks the variance
	} {
		if took := e.sample(step.sample); took != step.took || e.srtt != step.srtt || e.rttvar != step.rttvar {
			t.Fatalf("step %d: sample(%d) = %v, srtt %d rttvar %d; want %v, %d, %d",
				i, step.sample, took, e.srtt, e.rttvar, step.took, step.srtt, step.rttvar)
		}
	}

	for _, tc := range []struct {
		name         string
		srtt, rttvar sim.Time
		cfg          Config
		want         sim.Time
	}{
		{"unclamped", 1000, 500, Config{RTO: 2000}, 3000},
		{"floor RTO", 100, 50, Config{RTO: 2000}, 2000},
		{"low RTO floor", 100, 50, Config{RTO: 500}, 500},
		{"RTO below the estimate", 1000, 500, Config{RTO: 500}, 3000},
		{"cap RTOMax", 1000, 500, Config{RTO: 500, RTOMax: 2500}, 2500},
		{"RTOMax 0 is no cap", 1 << 30, 1 << 29, Config{RTO: 2000}, 3 << 30},
	} {
		e := rttEst{tc.srtt, tc.rttvar}
		if got := e.rto(&tc.cfg); got != tc.want {
			t.Errorf("%s: rto = %d, want %d", tc.name, got, tc.want)
		}
	}

	// One estimator serves the connection, every rail and the health
	// snapshot: fed alike, they read alike.
	_, c := arqEndpoint(t, 128)
	c.ep.cfg.RTO, c.ep.cfg.RTOMax = 50*sim.Microsecond, 64*sim.Millisecond // adaptive: the estimate is what gets armed
	for _, s := range []sim.Time{80_000, 95_000, 60_000, 2_000_000, 70_000} {
		c.updateRTT(s)
		c.rails[0].rtt.sample(s)
		h := c.Health()
		if c.rtt != c.rails[0].rtt || h.SRTTUs != h.Rails[0].SRTTUs || h.RTTVarUs != h.Rails[0].RTTVarUs || h.RTOUs != h.Rails[0].RTOUs {
			t.Fatalf("after sample %d: conn %+v (health %v/%v/%v us), rail %+v (health %+v)",
				s, c.rtt, h.SRTTUs, h.RTTVarUs, h.RTOUs, c.rails[0].rtt, h.Rails[0])
		}
	}
	if got := c.ep.Stats.RttSamples; got != 5 {
		t.Errorf("RttSamples = %d, want 5", got)
	}
}
