package tcp

import (
	"bytes"
	"testing"
	"testing/quick"

	"multiedge/internal/frame"
	"multiedge/internal/hostmodel"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// pair builds two TCP stacks connected through one switch.
func pair(seed int64, lp phys.LinkParams, nicP phys.NICParams) (*sim.Env, *Stack, *Stack) {
	env := sim.NewEnv(seed)
	swp := phys.DefaultSwitchParams()
	sw := phys.NewSwitch(env, "sw", swp)
	var stacks []*Stack
	for i := 0; i < 2; i++ {
		addr := frame.NewAddr(i, 0)
		nic := phys.NewNIC(env, "nic", addr, nicP)
		nic.AttachUplink(sw.AttachStation(addr, nic, lp, swp.QueueCap))
		cpus := hostmodel.NewCPUs("n")
		stacks = append(stacks, NewStack(env, i, DefaultParams(), cpus, nic))
	}
	return env, stacks[0], stacks[1]
}

func TestHandshakeAndStream(t *testing.T) {
	env, a, b := pair(1, phys.Gigabit(), phys.DefaultNICParams())
	msg := make([]byte, 300*1024)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	var got []byte
	env.Go("client", func(p *sim.Proc) {
		sk := a.Dial(p, frame.NewAddr(1, 0))
		sk.Send(p, msg)
	})
	env.Go("server", func(p *sim.Proc) {
		sk := b.Accept(p)
		got = sk.Recv(p, len(msg))
	})
	env.RunUntil(10 * sim.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted (got %d bytes)", len(got))
	}
}

func TestSlowStartGrowsCwnd(t *testing.T) {
	env, a, b := pair(2, phys.Gigabit(), phys.DefaultNICParams())
	var sk *Sock
	env.Go("client", func(p *sim.Proc) {
		sk = a.Dial(p, frame.NewAddr(1, 0))
		sk.Send(p, make([]byte, 512*1024))
	})
	env.Go("server", func(p *sim.Proc) {
		s := b.Accept(p)
		s.Recv(p, 512*1024)
	})
	env.RunUntil(10 * sim.Second)
	if sk.cwnd <= DefaultParams().InitCwnd {
		t.Errorf("cwnd = %d never grew beyond initial %d", sk.cwnd, DefaultParams().InitCwnd)
	}
}

func TestLossRecoveryFastRetransmit(t *testing.T) {
	lp := phys.Gigabit()
	lp.LossProb = 0.01
	env, a, b := pair(3, lp, phys.DefaultNICParams())
	msg := make([]byte, 400*1024)
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	var got []byte
	env.Go("client", func(p *sim.Proc) {
		sk := a.Dial(p, frame.NewAddr(1, 0))
		sk.Send(p, msg)
	})
	env.Go("server", func(p *sim.Proc) {
		sk := b.Accept(p)
		got = sk.Recv(p, len(msg))
	})
	env.RunUntil(60 * sim.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("stream corrupted under loss")
	}
	if a.Retransmits == 0 {
		t.Error("no retransmissions under 1% loss")
	}
	if a.DupAcks == 0 {
		t.Error("no duplicate ACKs observed")
	}
}

func TestSegmentCodec(t *testing.T) {
	s := &segment{seq: 12345, ack: 999, flags: flACK, wnd: 65535}
	pl := []byte("tcp segment payload")
	buf := encodeSeg(frame.NewAddr(1, 0), frame.NewAddr(0, 0), s, pl)
	src, got, gpl, ok := decodeSeg(buf)
	if !ok || src != frame.NewAddr(0, 0) || got != *s || !bytes.Equal(gpl, pl) {
		t.Fatalf("roundtrip failed: %+v", got)
	}
	buf[20] ^= 0xff
	if _, _, _, ok := decodeSeg(buf); ok {
		t.Error("corrupted segment accepted")
	}
}

func TestBidirectionalStreams(t *testing.T) {
	env, a, b := pair(4, phys.Gigabit(), phys.DefaultNICParams())
	m1 := make([]byte, 100*1024)
	m2 := make([]byte, 150*1024)
	for i := range m1 {
		m1[i] = byte(i)
	}
	for i := range m2 {
		m2[i] = byte(i * 3)
	}
	var g1, g2 []byte
	env.Go("client", func(p *sim.Proc) {
		sk := a.Dial(p, frame.NewAddr(1, 0))
		sk.Send(p, m1)
		g2 = sk.Recv(p, len(m2))
	})
	env.Go("server", func(p *sim.Proc) {
		sk := b.Accept(p)
		g1 = sk.Recv(p, len(m1))
		sk.Send(p, m2)
	})
	env.RunUntil(30 * sim.Second)
	if !bytes.Equal(g1, m1) || !bytes.Equal(g2, m2) {
		t.Fatal("bidirectional streams corrupted")
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	// Two senders into one receiver NIC: congestion control must let
	// both finish with a roughly fair share and the total near wire
	// rate.
	env := sim.NewEnv(9)
	swp := phys.DefaultSwitchParams()
	sw := phys.NewSwitch(env, "sw", swp)
	var stacks []*Stack
	for i := 0; i < 3; i++ {
		addr := frame.NewAddr(i, 0)
		nic := phys.NewNIC(env, "nic", addr, phys.DefaultNICParams())
		nic.AttachUplink(sw.AttachStation(addr, nic, phys.Gigabit(), swp.QueueCap))
		stacks = append(stacks, NewStack(env, i, DefaultParams(), hostmodel.NewCPUs("n"), nic))
	}
	const total = 4 << 20
	var t1, t2 sim.Time
	for s := 0; s < 2; s++ {
		s := s
		env.Go("sender", func(p *sim.Proc) {
			sk := stacks[s].Dial(p, frame.NewAddr(2, 0))
			sk.Send(p, make([]byte, total))
		})
	}
	done := 0
	env.Go("receiver", func(p *sim.Proc) {
		a := stacks[2].Accept(p)
		b := stacks[2].Accept(p)
		env.Go("recv-b", func(p2 *sim.Proc) {
			b.Recv(p2, total)
			t2 = env.Now()
			done++
		})
		a.Recv(p, total)
		t1 = env.Now()
		done++
	})
	env.RunUntil(60 * sim.Second)
	if done != 2 {
		t.Fatalf("only %d/2 flows completed", done)
	}
	// Aggregate goodput near the wire; completion times within 2.5x of
	// each other (loose fairness).
	last := t1
	if t2 > last {
		last = t2
	}
	agg := float64(2*total) / 1e6 / last.Seconds()
	// Reno-style loss recovery on a drop-tail bottleneck is lossy but
	// must stay within a factor of ~2 of the wire.
	if agg < 60 {
		t.Errorf("aggregate %.1f MB/s through shared bottleneck, want > 60", agg)
	}
	ratio := float64(t1) / float64(t2)
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > 4 {
		t.Errorf("grossly unfair completion times: %v vs %v", t1, t2)
	}
	if stacks[0].Retransmits+stacks[1].Retransmits == 0 {
		t.Log("note: no congestion losses (queue large enough)")
	}
}

func TestTCPDeterministic(t *testing.T) {
	run := func() (sim.Time, uint64) {
		lp := phys.Gigabit()
		lp.LossProb = 0.01
		env, a, b := pair(5, lp, phys.DefaultNICParams())
		env.Go("client", func(p *sim.Proc) {
			sk := a.Dial(p, frame.NewAddr(1, 0))
			sk.Send(p, make([]byte, 256*1024))
		})
		env.Go("server", func(p *sim.Proc) {
			sk := b.Accept(p)
			sk.Recv(p, 256*1024)
		})
		end := env.RunUntil(60 * sim.Second)
		return end, a.Retransmits
	}
	e1, r1 := run()
	e2, r2 := run()
	if e1 != e2 || r1 != r2 {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", e1, r1, e2, r2)
	}
}

// TestSegmentCodecRoundTripProperty: any header values and payload
// survive encode→decode bit-exactly, and any single-bit corruption of
// the encoded frame is rejected by the checksum (or yields the exact
// same decoded values if it flipped a bit the codec ignores — there are
// none, so rejection is required).
func TestSegmentCodecRoundTripProperty(t *testing.T) {
	rt := func(seq, ack, wnd uint32, flags uint8, payload []byte) bool {
		if len(payload) > MSS {
			payload = payload[:MSS]
		}
		s := segment{seq: seq, ack: ack, flags: flags & (flSYN | flACK), wnd: wnd}
		buf := encodeSeg(frame.NewAddr(2, 0), frame.NewAddr(1, 0), &s, payload)
		src, got, pl, ok := decodeSeg(buf)
		return ok && src == frame.NewAddr(1, 0) && got == s && bytes.Equal(pl, payload)
	}
	if err := quick.Check(rt, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSegmentCodecRejectsCorruptionProperty(t *testing.T) {
	corrupt := func(seq, ack uint32, payload []byte, pos uint16, bit uint8) bool {
		if len(payload) > 512 {
			payload = payload[:512]
		}
		s := segment{seq: seq, ack: ack, flags: flACK, wnd: 1 << 16}
		buf := encodeSeg(frame.NewAddr(2, 0), frame.NewAddr(1, 0), &s, payload)
		// Flip one bit beyond the Ethernet header (the codec does not
		// authenticate the outer Ethernet fields it never reads back).
		i := frame.EthHeaderLen + int(pos)%(len(buf)-frame.EthHeaderLen)
		buf[i] ^= 1 << (bit % 8)
		_, _, _, ok := decodeSeg(buf)
		return !ok
	}
	if err := quick.Check(corrupt, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSegmentCodecTruncation(t *testing.T) {
	s := segment{seq: 7, ack: 9, flags: flACK, wnd: 4096}
	buf := encodeSeg(frame.NewAddr(2, 0), frame.NewAddr(1, 0), &s, []byte("hello world"))
	for n := 0; n < len(buf); n++ {
		if _, _, _, ok := decodeSeg(buf[:n]); ok {
			t.Fatalf("decode accepted a frame truncated to %d of %d bytes", n, len(buf))
		}
	}
}

// TestParallelStacksBlockSockets runs two simulations in two goroutines,
// each with a sender blocked on a full socket buffer and a receiver
// blocked on an empty one: blocked procs belong to their socket, so the
// simulations share no state (run with -race).
func TestParallelStacksBlockSockets(t *testing.T) {
	const n = 3 * sndBufMax
	ok := make([]bool, 2)
	done := make(chan struct{})
	for i := range ok {
		go func() {
			defer func() { done <- struct{}{} }()
			env, a, b := pair(int64(10+i), phys.Gigabit(), phys.DefaultNICParams())
			msg := make([]byte, n)
			for j := range msg {
				msg[j] = byte(j * 5)
			}
			var got []byte
			var sk *Sock
			env.Go("client", func(p *sim.Proc) {
				sk = a.Dial(p, frame.NewAddr(1, 0))
				sk.Send(p, msg)
			})
			env.Go("server", func(p *sim.Proc) {
				s := b.Accept(p)
				got = s.Recv(p, n)
			})
			env.RunUntil(30 * sim.Second)
			ok[i] = bytes.Equal(got, msg)
		}()
	}
	<-done
	<-done
	for i, good := range ok {
		if !good {
			t.Errorf("simulation %d: stream corrupted", i)
		}
	}
}
