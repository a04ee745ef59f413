package core

import (
	"slices"
	"testing"

	"multiedge/internal/sim"
)

// The connection's components driven alone: each test builds its
// component directly, passes the clock and configuration values it
// needs, and runs with no Endpoint and no cluster.

// TestArqRx drives the receive window through arrivals at explicit
// times on one rail, then scans it for NACKs at scanAt: arrive's
// verdicts, the cursors, the gap records, the gaps the maxTrackedGaps
// cap drops, and the NACK list.
func TestArqRx(t *testing.T) {
	cfg := DefaultConfig()
	age := cfg.nackAge()
	top := ^uint32(0)
	for _, tc := range []struct {
		name             string
		base             uint32
		arrivals         []uint32 // each at clock 1
		verdicts         []arrival
		rcvNxt, maxSeen  uint32
		gaps, drops      int
		scanAt, minAge   sim.Time
		nacks            []uint32
		untracked, built bool
	}{
		{name: "in order never builds the ring", arrivals: []uint32{0, 1, 2},
			verdicts: []arrival{inOrder, inOrder, inOrder}, rcvNxt: 3, maxSeen: 3},
		{name: "a gap opens and closes", arrivals: []uint32{0, 2, 1, 3},
			verdicts: []arrival{inOrder, inOrder, outOfOrder, inOrder}, rcvNxt: 4, maxSeen: 4, built: true},
		{name: "duplicates above and below the cumulative point", arrivals: []uint32{0, 0, 3, 3},
			verdicts: []arrival{inOrder, duplicate, inOrder, duplicate}, rcvNxt: 1, maxSeen: 4, gaps: 2, built: true},
		{name: "across the wrap", base: top - 1, arrivals: []uint32{top - 1, 0, top},
			verdicts: []arrival{inOrder, inOrder, outOfOrder}, rcvNxt: 1, maxSeen: 1, built: true},
		{name: "old gaps are NACKed", arrivals: []uint32{0, 3},
			verdicts: []arrival{inOrder, inOrder}, rcvNxt: 1, maxSeen: 4, gaps: 2,
			scanAt: 1 + age, minAge: age, nacks: []uint32{1, 2}, built: true},
		{name: "young gaps are reordering", arrivals: []uint32{0, 3},
			verdicts: []arrival{inOrder, inOrder}, rcvNxt: 1, maxSeen: 4, gaps: 2,
			scanAt: 1 + age/2, minAge: age, built: true},
		{name: "the gap cap drops the excess", arrivals: []uint32{maxTrackedGaps + 11},
			verdicts: []arrival{inOrder}, maxSeen: maxTrackedGaps + 12, gaps: maxTrackedGaps, drops: 11,
			scanAt: 1 + age, minAge: age, nacks: seqs(0, maxNack), untracked: true, built: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := &arqRx{rcvNxt: tc.base, maxSeenPlus1: tc.base}
			rails := []rail{{high: tc.base}}
			drops := 0
			drop := func(uint32) { drops++ }
			for i, s := range tc.arrivals {
				(&railSet{rails: rails}).arrived(0, s, 1)
				if v := x.arrive(s, 1, drop); v != tc.verdicts[i] {
					t.Fatalf("arrival %d (seq %d): verdict %d, want %d", i, s, v, tc.verdicts[i])
				}
			}
			if x.rcvNxt != tc.rcvNxt || x.maxSeenPlus1 != tc.maxSeen || x.gaps != tc.gaps || drops != tc.drops ||
				x.untracked != tc.untracked || (x.rcv.slots != nil) != tc.built {
				t.Fatalf("window (%d, %d), %d gaps, %d dropped, untracked %v, ring built %v; want (%d, %d), %d, %d, %v, %v",
					x.rcvNxt, x.maxSeenPlus1, x.gaps, drops, x.untracked, x.rcv.slots != nil,
					tc.rcvNxt, tc.maxSeen, tc.gaps, tc.drops, tc.untracked, tc.built)
			}
			if tc.scanAt == 0 {
				return
			}
			got := x.scanMissing(tc.scanAt, tc.minAge, &cfg, rails, nil, drop)
			if !slices.Equal(got, tc.nacks) {
				t.Fatalf("scan at %d names %v, want %v", tc.scanAt, got, tc.nacks)
			}
			for _, s := range x.scanMissing(tc.scanAt, tc.minAge, &cfg, rails, nil, drop) {
				if slices.Contains(got, s) {
					t.Fatalf("a second scan at once re-NACKs %d: its repair is in flight", s)
				}
			}
			x.dropGaps()
			if x.gaps != 0 || !x.untracked {
				t.Fatalf("dropGaps left %d gaps, untracked %v", x.gaps, x.untracked)
			}
		})
	}
}

// seqs returns [lo, lo+n).
func seqs(lo uint32, n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = lo + uint32(i)
	}
	return s
}

// TestRailSet pins the one rotation over rails: dead rails skipped, the
// strictly lowest cost first in rotation order, a negative cost ruled
// out, and the cursor left just past the rail picked, or unmoved when
// none is; then the per-rail arrival marks, RTT samples and
// outstanding charges.
func TestRailSet(t *testing.T) {
	for _, tc := range []struct {
		name         string
		dead         []int
		cursor       int
		cost         []int64 // nil: every rail equal
		pick, cursAf int
	}{
		{"round robin", nil, 0, nil, 0, 1},
		{"round robin wraps", nil, 2, nil, 2, 0},
		{"a dead rail is skipped", []int{1}, 1, nil, 2, 0},
		{"lowest cost wins", nil, 0, []int64{5, 5, 1}, 2, 0},
		{"a tie goes to rotation order", nil, 2, []int64{1, 1, 3}, 0, 1},
		{"a dead rail's cost is ignored", []int{0}, 0, []int64{0, 4, 2}, 2, 0},
		{"a negative cost rules out", nil, 0, []int64{-1, 7, -1}, 1, 2},
		{"nothing eligible", nil, 1, []int64{-1, -1, -1}, -1, 1},
	} {
		rs := &railSet{rails: make([]rail, 3)}
		for _, li := range tc.dead {
			rs.rails[li].dead = true
			rs.deadLinks++
		}
		var cost func(int) int64
		if tc.cost != nil {
			cost = func(li int) int64 { return tc.cost[li] }
		}
		cursor := tc.cursor
		if got := rs.rotate(&cursor, cost); got != tc.pick || cursor != tc.cursAf {
			t.Errorf("%s: rotate picks %d with the cursor at %d, want %d and %d", tc.name, got, cursor, tc.pick, tc.cursAf)
		}
	}

	// The paper's striping: pickLink with neither weighting nor backlog
	// is the plain round robin over live rails, on the conn's cursor.
	rs := &railSet{rails: make([]rail, 3)}
	rs.rails[1].dead, rs.deadLinks = true, 1
	var picks []int
	for range 4 {
		picks = append(picks, rs.pickLink(nil, false, false, 0))
	}
	if !slices.Equal(picks, []int{0, 2, 0, 2}) {
		t.Errorf("round robin over rails 0 and 2 picked %v", picks)
	}

	// Arrival marks move forward only, in serial arithmetic; an arrival
	// on a rail the conn does not use is ignored.
	rs = &railSet{rails: make([]rail, 2)}
	rs.arrived(0, 10, 100)
	rs.arrived(0, 4, 200)
	rs.arrived(5, 50, 300)
	if r := rs.rails[0]; r.high != 11 || r.last != 200 || rs.rails[1] != (rail{}) {
		t.Errorf("after arrivals 10, 4 on rail 0: high %d, last %d; rail 1 %+v", r.high, r.last, rs.rails[1])
	}

	// An ack walk's per-rail scratch becomes one sample per rail, then
	// clears.
	rs.rails[1].newest, rs.rails[1].have = 400, true
	rs.updateRailRTT(1000)
	if r := rs.rails[1]; r.rtt.srtt != 600 || r.have || r.newest != 0 || rs.rails[0].rtt.srtt != 0 {
		t.Errorf("updateRailRTT: rail 1 %+v, rail 0 srtt %d", r, rs.rails[0].rtt.srtt)
	}

	// Outstanding charges never go negative, and a charge on no rail is
	// ignored.
	rs.rails[0].out = 1
	for _, li := range []int{0, 0, -1, 2} {
		rs.railDec(li)
	}
	if rs.rails[0].out != 0 {
		t.Errorf("railDec left %d outstanding", rs.rails[0].out)
	}
}

// TestCCState pins the AIMD rules on a bare ccState: one cut per flight
// floored at ccMinWindow, the additive increase capped at the window,
// and the effective window and retransmission budget on and off.
func TestCCState(t *testing.T) {
	for _, tc := range []struct {
		name             string
		cwnd             int
		recover          uint32
		sndUna, sndNxt   uint32
		cut              bool
		wantCwnd         int
		wantRecover      uint32
		ackCredit, acked int
		window           int
		afterAck, credit int
	}{
		{name: "halve", cwnd: 16, sndNxt: 40, cut: true, wantCwnd: 8, wantRecover: 40},
		{name: "once per flight", cwnd: 16, recover: 40, sndUna: 39, sndNxt: 60, wantCwnd: 16, wantRecover: 40},
		{name: "the flight passed", cwnd: 16, recover: 40, sndUna: 40, sndNxt: 60, cut: true, wantCwnd: 8, wantRecover: 60},
		{name: "across the wrap", cwnd: 16, recover: 2, sndUna: ^uint32(0), sndNxt: 9, wantCwnd: 16, wantRecover: 2},
		{name: "floor", cwnd: 3, sndNxt: 5, cut: true, wantCwnd: ccMinWindow, wantRecover: 5},
		{name: "additive increase", cwnd: 2, acked: 5, window: 8, afterAck: 4, credit: 0},
		{name: "banked credit", cwnd: 4, ackCredit: 3, acked: 2, window: 8, afterAck: 5, credit: 1},
		{name: "capped at the window", cwnd: 8, ackCredit: 7, acked: 20, window: 8, afterAck: 8, credit: 0},
	} {
		s := &ccState{cwnd: tc.cwnd, ccRecover: tc.recover, ccAckCredit: tc.ackCredit, ccRetxSent: 3}
		if tc.window == 0 {
			if cut := s.cut(tc.sndUna, tc.sndNxt); cut != tc.cut || s.cwnd != tc.wantCwnd || s.ccRecover != tc.wantRecover {
				t.Errorf("%s: cut %v to %d, recover %d; want %v, %d, %d",
					tc.name, cut, s.cwnd, s.ccRecover, tc.cut, tc.wantCwnd, tc.wantRecover)
			}
			continue
		}
		s.ccOnAck(tc.acked, tc.window)
		if s.cwnd != tc.afterAck || s.ccAckCredit != tc.credit || s.ccRetxSent != 0 {
			t.Errorf("%s: after %d acked, cwnd %d credit %d retx %d; want %d, %d, 0",
				tc.name, tc.acked, s.cwnd, s.ccAckCredit, s.ccRetxSent, tc.afterAck, tc.credit)
		}
	}

	off, on := Config{Window: 8}, Config{Window: 8, CongestionControl: CCConfig{Enable: true}}
	for _, tc := range []struct {
		name            string
		cfg             *Config
		cwnd, retx, eff int
		retxOK          bool
	}{
		{"off: the window, any repairs", &off, 2, 5, 8, true},
		{"on: the congestion window", &on, 2, 1, 2, true},
		{"on: capped at the window", &on, 12, 3, 8, true},
		{"on: the repair budget spent", &on, 4, 4, 4, false},
	} {
		s := &ccState{cwnd: tc.cwnd, ccRetxSent: tc.retx}
		if got, ok := s.effWindow(tc.cfg), s.ccRetxOK(tc.cfg); got != tc.eff || ok != tc.retxOK {
			t.Errorf("%s: effWindow %d, ccRetxOK %v; want %d, %v", tc.name, got, ok, tc.eff, tc.retxOK)
		}
	}
}

// TestBackoff holds the one capped doubling to the three loops it
// replaced, as they stood: the adaptive RTO's over consecutive
// expiries, the redial delay's over attempts, and the acceptor's
// reconnect wait summed over the whole budget.
func TestBackoff(t *testing.T) {
	rtoLoop := func(d, limit sim.Time, expiries int) sim.Time {
		for i := 0; i < expiries && d < limit; i++ {
			d *= 2
		}
		if d > limit {
			d = limit
		}
		return d
	}
	redialLoop := func(base, limit sim.Time, attempt int) sim.Time {
		d := base
		for i := 1; i < attempt && d < limit; i++ {
			d *= 2
		}
		if d > limit {
			d = limit
		}
		return d
	}
	passiveLoop := func(di, base, limit sim.Time, budget int) sim.Time {
		wait := di + base
		d := base
		for i := 0; i < budget; i++ {
			wait += d
			d *= 2
			if d > limit {
				d = limit
			}
		}
		return wait
	}
	def := DefaultConfig()
	for _, base := range []sim.Time{def.RTO, connRetry, sim.Microsecond} {
		for _, limit := range []sim.Time{64 * sim.Millisecond, reconnectBackoffCap * base} {
			for n := 0; n <= 40; n++ {
				if got, want := backoff(base, limit, n), rtoLoop(base, limit, n); got != want {
					t.Fatalf("RTO: base %v cap %v, %d expiries: %v, want %v", base, limit, n, got, want)
				}
				if got, want := backoff(base, limit, n), redialLoop(base, limit, n+1); got != want {
					t.Fatalf("redial: base %v cap %v, attempt %d: %v, want %v", base, limit, n+1, got, want)
				}
			}
		}
		for n := 1; n <= 40; n++ {
			cfg := def
			cfg.ReconnectBackoff, cfg.MaxReconnects = base, n
			c := &Conn{ep: &Endpoint{cfg: cfg}}
			if got, want := c.passiveWait(), passiveLoop(cfg.DeadInterval, base, reconnectBackoffCap*base, n); got != want {
				t.Fatalf("passive wait: base %v, budget %d: %v, want %v", base, n, got, want)
			}
		}
	}
}
