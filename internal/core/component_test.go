package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"multiedge/internal/frame"
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
		gaps             int32
		drops            int
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
				if v := x.arrive(s, 1, false, drop); v != tc.verdicts[i] {
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
		name   string
		dead   []int
		cursor uint8
		cost   []int64 // nil: every rail equal
		pick   int
		cursAf uint8
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
		cwnd             int32
		recover          uint32
		sndUna, sndNxt   uint32
		cut              bool
		wantCwnd         int32
		wantRecover      uint32
		ackCredit        int32
		acked, window    int
		afterAck, credit int32
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
		name       string
		cfg        *Config
		cwnd, retx int32
		eff        int
		retxOK     bool
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

// TestArqTx drives a bare sender through a script of steps at explicit
// clocks and holds what each step does to a trace: the frames next
// numbers ("seq:op+offset", R for AckReq, * for a repair), what an ACK
// releases (* where the op is done) and its round-trip sample, the
// repairs an expiry or a NACK queues, and the window after a restart.
// Sequence numbers print relative to the case's initial one.
func TestArqTx(t *testing.T) {
	cfg := DefaultConfig()
	const fa, so = frame.FenceAfter, frame.Solicit
	top := ^uint32(0)
	for _, tc := range []struct {
		name             string
		isn              uint32
		ops              [][2]int // payload bytes, flags; frames carry 2 bytes
		window, ackEvery int
		script, want     []string
	}{
		{name: "fragmentation up to the window", ops: [][2]int{{5, 0}}, window: 2,
			script: []string{"send@10", "ack 1@30", "send@40", "ack 3@50"},
			want:   []string{"0:0+0 1:0+2R", "+1 rtt 20 [0]", "2:0+4", "+2 rtt 10 [1 2*]"}},
		{name: "the forward fence stalls the head", ops: [][2]int{{2, int(fa)}, {2, 0}}, window: 4,
			script: []string{"send@0", "ack 1@5", "send@6"},
			want:   []string{"0:0+0R", "+1 rtt 5 [0*]", "1:1+0"}},
		{name: "AckReq: a Solicit fence has its prompt ACK", ops: [][2]int{{2, int(fa | so)}, {2, 0}}, window: 4,
			script: []string{"send@0"}, want: []string{"0:0+0"}},
		{name: "AckReq: the window closes on an empty queue", ops: [][2]int{{4, 0}}, window: 2,
			script: []string{"send@0"}, want: []string{"0:0+0 1:0+2"}},
		{name: "AckReq: the flight reaches AckEvery", ops: [][2]int{{6, 0}}, window: 2, ackEvery: 2,
			script: []string{"send@0"}, want: []string{"0:0+0 1:0+2"}},
		{name: "a cumulative ACK across the wrap", isn: top - 1, ops: [][2]int{{6, 0}}, window: 4,
			script: []string{"send@0", "ack 3@7"}, want: []string{"0:0+0 1:0+2 2:0+4", "+3 rtt 7 [0 1 2*]"}},
		{name: "an expiry repairs the last frame", ops: [][2]int{{6, 0}}, window: 4,
			script: []string{"send@0", "rto", "rto", "send@9", "ack 3@12"},
			want:   []string{"0:0+0 1:0+2 2:0+4", "repair [2]", "repair []", "2:0+4*", "+3 rtt 12 [0 1 2*]"}},
		{name: "go-back-N repairs the window", ops: [][2]int{{6, 0}}, window: 4,
			script: []string{"send@0", "ack 1@3", "rto gbn", "send@9"},
			want:   []string{"0:0+0 1:0+2 2:0+4", "+1 rtt 3 [0]", "repair [1 2]", "1:0+2* 2:0+4*"}},
		{name: "a NACK repairs what is outstanding, once", ops: [][2]int{{6, 0}}, window: 4,
			script: []string{"send@0", "ack 1@3", "nack 0 1", "nack 1 2"},
			want:   []string{"0:0+0 1:0+2 2:0+4", "+1 rtt 3 [0]", "repair [1]", "repair [2]"}},
		{name: "a stale ACK and one past the window", ops: [][2]int{{4, 0}}, window: 4,
			script: []string{"send@0", "ack 0@1", "ack 9@2"}, want: []string{"0:0+0 1:0+2", "stale", "+2 rtt 2 [0 1*]"}},
		{name: "a restart is a fresh window", isn: 7, ops: [][2]int{{4, int(fa)}, {2, 0}}, window: 4,
			script: []string{"send@0", "ack 1@2", "rto", "restart", "send@5"},
			want:   []string{"0:0+0 1:0+2R", "+1 rtt 2 [0]", "repair [1]", "una 0 nxt 0 expiries 0 queued [] fenced [0]", "0:0+0 1:0+2R"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := &arqTx{sndUna: tc.isn, sndNxt: tc.isn}
			ackEvery := cmp.Or(tc.ackEvery, cfg.AckEvery)
			var free freelists
			var ops []*txOp
			for id, o := range tc.ops {
				ops = append(ops, &txOp{Op: Op{Kind: frame.OpWrite, Flags: frame.OpFlags(o[1])}, id: uint64(id), data: make([]byte, o[0]), total: uint32(o[0])})
				x.nextOpID++
				x.enqueue(ops[id])
			}
			rel := func(seqs []uint32) []int32 {
				var out []int32
				for _, s := range seqs {
					out = append(out, int32(s-tc.isn))
				}
				return out
			}
			for i, step := range tc.script {
				verb, arg, _ := strings.Cut(step, " ")
				verb, at, _ := strings.Cut(verb, "@")
				var got []string
				switch verb {
				case "send":
					now, _ := strconv.Atoi(at)
					for {
						tf, repair := x.next(&free, true, tc.window, 2, ackEvery)
						if tf == nil {
							break
						}
						tf.txAt, tf.retx = sim.Time(now), tf.retx || repair
						s := fmt.Sprintf("%d:%d+%d", int32(tf.seq-tc.isn), tf.op.id, tf.offset)
						if tf.ackReq {
							s += "R"
						}
						if repair {
							s += "*"
						}
						got = append(got, s)
					}
				case "ack":
					a, at, _ := strings.Cut(arg, "@")
					n, _ := strconv.Atoi(a)
					now, _ := strconv.Atoi(at)
					var released []string
					adv, rtt := x.ack(tc.isn+uint32(n), sim.Time(now), &free, func(tf *txFrame, done bool) {
						s := fmt.Sprint(int32(tf.seq - tc.isn))
						if done {
							s += "*"
							tf.op.completed = true
						}
						released = append(released, s)
					})
					got = append(got, "stale")
					if adv >= 0 {
						got = []string{fmt.Sprintf("+%d rtt %d [%s]", adv, rtt, strings.Join(released, " "))}
					}
				case "rto":
					x.expire(0, &cfg)
					got = append(got, fmt.Sprint("repair ", rel(x.rtoRepairs(arg == "gbn"))))
				case "nack":
					var seqs []uint32
					for _, f := range strings.Fields(arg) {
						n, _ := strconv.Atoi(f)
						seqs = append(seqs, tc.isn+uint32(n))
					}
					got = append(got, fmt.Sprint("repair ", rel(x.queueRepairs(seqs...))))
				case "restart":
					var journal []*txOp
					for _, t := range ops {
						if !t.completed {
							journal = append(journal, t)
						}
					}
					x.dropWindow(&free)
					x.restart(journal)
					got = append(got, fmt.Sprintf("una %d nxt %d expiries %d queued %v fenced %v", x.sndUna, x.sndNxt, x.expiries, x.retransQ, x.txFenced))
					tc.isn = 0
				}
				if s := strings.Join(got, " "); s != tc.want[i] {
					t.Errorf("step %d (%s): %q, want %q", i, step, s, tc.want[i])
				}
				if fl := x.inflight(); fl < 0 || fl > tc.window {
					t.Errorf("step %d (%s): %d in flight, window %d", i, step, fl, tc.window)
				}
			}
		})
	}
}
