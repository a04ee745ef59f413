package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// A conn's lifecycle states, by the names Health gives them.
const (
	stDialing      = "dialing"
	stLive         = "established"
	stReconnecting = "reconnecting"
	stClosing      = "closing"
	stEnded        = "closed"
	ignored        = "ignored"
)

var lifeStates = []string{stDialing, stLive, stReconnecting, stClosing, stEnded}

// lifeTable is the conn's state × event table (DESIGN.md §7 "How a
// connection ends"). Each row lists, per state in lifeStates order,
// where the event takes the conn: a state — the same one when the event
// is handled without a move — or ignored, which also promises that no
// timer is armed by it. "a/b" reads a without Config.Reconnect and b
// with it. A timer event listed ignored in a state is never armed there.
var lifeTable = map[string][5]string{
	// Control frames. Only a live conn exchanges data; a reconnecting
	// one fences every frame of its condemned epoch.
	"DATA":          {ignored, stLive, ignored, ignored, ignored},
	"READREQ":       {ignored, stLive, ignored, ignored, ignored},
	"MULTIDATA":     {ignored, stLive, ignored, ignored, ignored},
	"ACK":           {ignored, stLive, ignored, ignored, ignored},
	"NACK":          {ignored, stLive, ignored, ignored, ignored},
	"HEARTBEAT":     {ignored, stLive, ignored, ignored, ignored},
	"RAILPROBE":     {ignored, stLive, ignored, ignored, ignored},
	"RAILPROBEECHO": {ignored, stLive, ignored, ignored, ignored},
	"RESET":         {stEnded, stEnded + "/" + stReconnecting, ignored, ignored, ignored},
	// A ConnReq reaches only an accepting end: a duplicate is re-acked,
	// a newer epoch is a reconnect, and a closing conn stays closing.
	"CONNREQ":      {ignored, stLive, stLive, ignored, ignored},
	"CONNACK":      {stLive, ignored, stLive, ignored, ignored},
	"CONNCLOSE":    {stEnded, stEnded, ignored, stEnded, ignored},
	"CONNCLOSEACK": {ignored, ignored, ignored, stEnded, ignored},

	// Timers. The give-ups are a handshake's or a reconnect's timer
	// firing with its budget spent.
	"dial retry":        {stDialing, ignored, ignored, ignored, ignored},
	"dial give-up":      {stEnded, ignored, ignored, ignored, ignored},
	"RTO":               {ignored, stLive, ignored, ignored, ignored},
	"delayed ACK":       {ignored, stLive, ignored, ignored, ignored},
	"NACK timer":        {ignored, stLive, ignored, ignored, ignored},
	"link probe":        {ignored, stLive, ignored, ignored, ignored},
	"heartbeat":         {ignored, stLive, ignored, ignored, ignored},
	"read guard":        {ignored, stLive, ignored, ignored, ignored},
	"rail probe":        {ignored, stLive, ignored, ignored, ignored},
	"close retry":       {ignored, ignored, ignored, stClosing, ignored},
	"close give-up":     {ignored, ignored, ignored, stEnded, ignored},
	"redial":            {ignored, ignored, stReconnecting, ignored, ignored},
	"reconnect give-up": {ignored, ignored, stEnded, ignored, ignored},
	"passive give-up":   {ignored, ignored, stEnded, ignored, ignored},
	"op deadline":       {ignored, stLive, stReconnecting, ignored, ignored},

	// API calls. Work issued while reconnecting waits for the replay; a
	// Close waits for a dialing or reconnecting conn to settle.
	"Do":         {ignored, stLive, stReconnecting, ignored, ignored},
	"Post/Ring":  {ignored, stLive, stReconnecting, ignored, ignored},
	"WaitNotify": {stDialing, stLive, stReconnecting, ignored, ignored},
	"Close":      {stDialing, stClosing, stReconnecting, ignored, ignored},
	"Abandon":    {stEnded, stEnded, stEnded, ignored, ignored},

	"peer death": {stEnded, stEnded + "/" + stReconnecting, ignored, ignored, ignored},
}

// lifeStage is one conn, c, staged into a state with its peer's node
// paused, so that only the event under test moves it.
type lifeStage struct {
	cl      *cluster.Cluster
	c, peer *core.Conn // peer is nil while c dials
	node    int        // c's node
	buf     uint64     // 4 KiB on each node, at the same address
}

func (s *lifeStage) settle() { s.cl.Env.RunUntil(s.cl.Env.Now() + 100*sim.Microsecond) }

// stageLife builds a two-node cluster and drives the dialer's conn (or
// with acceptor the accepting one) into state st.
func stageLife(st string, acceptor, reconnect bool, tweak func(*cluster.Config)) *lifeStage {
	cfg := cluster.OneLink1G(2)
	cfg.Core.HeartbeatInterval = sim.Millisecond
	cfg.Core.DeadInterval = sim.Second
	cfg.Core.Reconnect = reconnect
	if tweak != nil {
		tweak(&cfg)
	}
	cl := cluster.New(cfg)
	s := &lifeStage{cl: cl, buf: cl.Nodes[0].EP.Alloc(4096)}
	cl.Nodes[1].EP.Alloc(4096)
	if st == stDialing {
		cl.PauseNode(1)
		cl.Env.Go("dial", func(p *sim.Proc) { cl.Nodes[0].EP.Dial(p, 1, 0) })
		s.settle()
		s.c = cl.Nodes[0].EP.ConnsForTest()[0]
		return s
	}
	s.c, s.peer = cl.Pair()
	if acceptor {
		s.c, s.peer, s.node = s.peer, s.c, 1
	}
	cl.PauseNode(1 - s.node)
	switch st {
	case stReconnecting:
		s.c.PeerLostForTest()
	case stClosing:
		cl.Env.Go("close", s.c.Close)
	case stEnded:
		s.c.Abandon()
	}
	s.settle()
	return s
}

// inject delivers a frame from the peer's node to c's NIC and lets the
// protocol thread take it. ConnID and Incarnation default to c's.
func (s *lifeStage) inject(h frame.Header, payload []byte) {
	if h.ConnID == 0 {
		h.ConnID = s.c.LocalIDForTest()
	}
	if h.Incarnation == 0 {
		h.Incarnation = s.c.Incarnation()
	}
	dst, src := frame.NewAddr(s.node, 0), frame.NewAddr(1-s.node, 0)
	buf := frame.MustEncode(dst, src, &h, payload)
	s.cl.Env.After(0, func() {
		s.cl.Nodes[s.node].NICs[0].DeliverFrame(&phys.Frame{Buf: buf, Dst: dst, Src: src})
	})
	s.settle()
}

// peerID is the far end's conn id (an arbitrary one while dialing).
func (s *lifeStage) peerID() uint32 {
	if s.peer == nil {
		return 7
	}
	return s.peer.LocalIDForTest()
}

func (s *lifeStage) do(fn func(p *sim.Proc)) {
	s.cl.Env.Go("api", fn)
	s.settle()
}

// lifeEvent is one row's event. A timer event names its timer (as
// ArmedTimersForTest does); fire makes it go off where the table says it
// is armed, and where it says ignored the test checks that it is not and
// runs its callback directly if the conn has one.
type lifeEvent struct {
	name     string
	acceptor bool // the event reaches the accepting end
	timer    string
	direct   bool // the timer's callback is a method FireForTest can run
	tweak    func(*cluster.Config)
	fire     func(s *lifeStage)
}

func lifeEvents() []lifeEvent {
	write := func(s *lifeStage) core.Op {
		return core.Op{Remote: s.buf, Local: s.buf, Size: 4096, Kind: frame.OpWrite}
	}
	frameEv := func(t frame.Type, h func(s *lifeStage) (frame.Header, []byte)) lifeEvent {
		return lifeEvent{name: t.String(), acceptor: t == frame.TypeConnReq, fire: func(s *lifeStage) {
			hd, pl := h(s)
			hd.Type = t
			s.inject(hd, pl)
		}}
	}
	bare := func(s *lifeStage) (frame.Header, []byte) { return frame.Header{HasAck: true}, nil }
	multi, _ := frame.EncodeMultiPayloadInto(nil, []frame.SubOp{{Remote: 0, Data: make([]byte, 64)}})
	run := func(d sim.Time) func(s *lifeStage) {
		return func(s *lifeStage) { s.cl.Env.RunUntil(s.cl.Env.Now() + d) }
	}
	direct := func(name string) lifeEvent {
		return lifeEvent{name: name, timer: name, direct: true, fire: func(s *lifeStage) {
			s.c.FireForTest(name)
			s.settle()
		}}
	}
	retries := func(c *cluster.Config) { c.Core.MaxRetries = 1 }
	budget := func(c *cluster.Config) { c.Core.MaxReconnects = 1 }
	nack := direct("NACK")
	nack.name = "NACK timer"
	return []lifeEvent{
		frameEv(frame.TypeData, func(s *lifeStage) (frame.Header, []byte) {
			rcvNxt, _ := s.c.RcvStateForTest()
			return frame.Header{Seq: rcvNxt, HasAck: true, OpType: frame.OpWrite, Remote: s.buf, Total: 64}, make([]byte, 64)
		}),
		frameEv(frame.TypeReadReq, func(s *lifeStage) (frame.Header, []byte) {
			rcvNxt, _ := s.c.RcvStateForTest()
			return frame.Header{Seq: rcvNxt, HasAck: true, OpType: frame.OpRead, Remote: s.buf, Local: s.buf, Total: 64}, nil
		}),
		frameEv(frame.TypeMultiData, func(s *lifeStage) (frame.Header, []byte) {
			rcvNxt, _ := s.c.RcvStateForTest()
			return frame.Header{Seq: rcvNxt, HasAck: true, OpType: frame.OpWrite, Total: uint32(len(multi))}, multi
		}),
		frameEv(frame.TypeAck, bare),
		frameEv(frame.TypeNack, func(*lifeStage) (frame.Header, []byte) {
			return frame.Header{HasAck: true}, frame.AppendNackPayload(nil, []uint32{0})
		}),
		frameEv(frame.TypeHeartbeat, bare),
		frameEv(frame.TypeRailProbe, func(s *lifeStage) (frame.Header, []byte) {
			return frame.Header{HasAck: true, OpID: uint64(s.cl.Env.Now())}, nil
		}),
		frameEv(frame.TypeRailProbeEcho, func(s *lifeStage) (frame.Header, []byte) {
			return frame.Header{HasAck: true, OpID: uint64(s.cl.Env.Now() - 10*sim.Microsecond)}, nil
		}),
		frameEv(frame.TypeReset, bare),
		frameEv(frame.TypeConnReq, func(s *lifeStage) (frame.Header, []byte) {
			// A redial offering the next epoch (a duplicate without
			// Config.Reconnect), from the dialer's conn.
			inc := s.c.Incarnation()
			if inc != 0 {
				inc++
			}
			return frame.Header{ConnID: s.peerID(), OpID: 1, Incarnation: inc}, nil
		}),
		frameEv(frame.TypeConnAck, func(s *lifeStage) (frame.Header, []byte) {
			inc := s.c.Incarnation()
			if s.c.Reconnecting() {
				inc++ // the epoch a redial proposes
			}
			return frame.Header{OpID: uint64(s.peerID()), Incarnation: inc}, nil
		}),
		frameEv(frame.TypeConnClose, func(s *lifeStage) (frame.Header, []byte) {
			return frame.Header{OpID: uint64(s.peerID())}, nil
		}),
		frameEv(frame.TypeConnCloseAck, bare),

		{name: "dial retry", timer: "dial retry", fire: run(core.ConnRetryForTest + sim.Millisecond)},
		{name: "dial give-up", timer: "dial retry", tweak: retries, fire: run(3 * core.ConnRetryForTest)},
		direct("RTO"), direct("delayed ACK"), nack, direct("link probe"),
		direct("heartbeat"), direct("read guard"), direct("rail probe"),
		{name: "close retry", timer: "close retry", fire: run(core.ConnRetryForTest + sim.Millisecond)},
		{name: "close give-up", timer: "close retry", tweak: retries, fire: run(3 * core.ConnRetryForTest)},
		direct("redial"),
		{name: "reconnect give-up", timer: "redial", tweak: budget, fire: run(core.ConnRetryForTest + sim.Millisecond)},
		{name: "passive give-up", acceptor: true, timer: "reconnect give-up", tweak: budget, fire: run(2 * sim.Second)},
		{name: "op deadline", fire: func(s *lifeStage) {
			op := write(s)
			op.Deadline = s.cl.Env.Now() + 20*sim.Microsecond
			s.do(func(p *sim.Proc) { s.c.Do(p, op) })
		}},

		{name: "Do", fire: func(s *lifeStage) { s.do(func(p *sim.Proc) { s.c.Do(p, write(s)) }) }},
		{name: "Post/Ring", fire: func(s *lifeStage) {
			s.do(func(p *sim.Proc) {
				if s.c.Post(write(s)) == nil {
					s.c.Ring(p)
				}
			})
		}},
		{name: "WaitNotify", fire: func(s *lifeStage) { s.do(func(p *sim.Proc) { s.c.WaitNotify(p) }) }},
		{name: "Close", fire: func(s *lifeStage) { s.do(s.c.Close) }},
		{name: "Abandon", fire: func(s *lifeStage) { s.c.Abandon(); s.settle() }},
		{name: "peer death", fire: func(s *lifeStage) { s.c.PeerLostForTest(); s.settle() }},
	}
}

// TestLifecycleTable checks every (state, event) pair of a conn's life
// against lifeTable, with and without Config.Reconnect: the pair must
// be listed, and the conn must end where the entry says. Every control
// frame kind has a row.
func TestLifecycleTable(t *testing.T) {
	events := lifeEvents()
	rows := map[string]bool{}
	for _, ev := range events {
		rows[ev.name] = true
		if _, ok := lifeTable[ev.name]; !ok {
			t.Errorf("event %q has no row in the table", ev.name)
		}
	}
	for name := range lifeTable {
		if !rows[name] {
			t.Errorf("row %q names no event", name)
		}
	}
	for ty := frame.TypeData; ty <= frame.TypeRailProbeEcho; ty++ {
		if !rows[ty.String()] {
			t.Errorf("control frame kind %v has no event", ty)
		}
	}
	for _, reconnect := range []bool{false, true} {
		for _, ev := range events {
			for i, st := range lifeStates {
				if st == stReconnecting && !reconnect {
					continue
				}
				want := lifeTable[ev.name][i]
				if off, on, ok := strings.Cut(want, "/"); ok {
					want = map[bool]string{false: off, true: on}[reconnect]
				}
				name := fmt.Sprintf("reconnect=%v/%s/%s", reconnect, st, ev.name)
				if want == "" {
					t.Errorf("%s: the pair is not listed", name)
					continue
				}
				if err := checkLifePair(st, ev, reconnect, want); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

func checkLifePair(st string, ev lifeEvent, reconnect bool, want string) error {
	s := stageLife(st, ev.acceptor, reconnect, ev.tweak)
	defer s.cl.Close()
	if got := s.c.StateForTest(); got != st {
		return fmt.Errorf("staging: the conn is %s", got)
	}
	if h := s.c.Health().State; h != st && !(st == stEnded && h == "failed") {
		return fmt.Errorf("staging: Health names the %s conn %q", st, h)
	}
	armed := s.c.ArmedTimersForTest()
	switch {
	case want != ignored:
		if ev.timer != "" && !ev.direct && !slices.Contains(armed, ev.timer) {
			return fmt.Errorf("the table says the %s timer fires here, but it is not armed", ev.timer)
		}
		ev.fire(s)
		if got := s.c.StateForTest(); got != want {
			return fmt.Errorf("the conn moved to %s, the table says %s", got, want)
		}
		return nil
	case ev.timer != "":
		if slices.Contains(armed, ev.timer) {
			return fmt.Errorf("the %s timer is armed, but the table says it cannot fire here", ev.timer)
		}
		if !ev.direct {
			return nil
		}
	}
	ev.fire(s)
	if got := s.c.StateForTest(); got != st {
		return fmt.Errorf("the conn moved to %s, the table says the event is ignored", got)
	}
	if now := s.c.ArmedTimersForTest(); len(now) > len(armed) {
		return fmt.Errorf("an ignored event armed timers: %v, then %v", armed, now)
	}
	return nil
}
