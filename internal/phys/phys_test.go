package phys

import (
	"testing"
	"testing/quick"

	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// sink is a Receiver recording arrival times.
type sink struct {
	frames []*Frame
	times  []sim.Time
	env    *sim.Env
}

func (s *sink) DeliverFrame(f *Frame) {
	s.frames = append(s.frames, f)
	s.times = append(s.times, s.env.Now())
}

func mkFrame(dst, src frame.Addr, payload int) *Frame {
	h := frame.Header{Type: frame.TypeData, OpType: frame.OpWrite}
	buf := frame.MustEncode(dst, src, &h, make([]byte, payload))
	return &Frame{Buf: buf, Dst: dst, Src: src}
}

func TestLinkParamRates(t *testing.T) {
	if r := Gigabit().BytesPerSec(); r != 125e6 {
		t.Errorf("1G rate = %v B/s, want 125e6", r)
	}
	if r := TenGigabit().BytesPerSec(); r != 1.25e9 {
		t.Errorf("10G rate = %v B/s, want 1.25e9", r)
	}
}

func TestWireTime(t *testing.T) {
	lp := Gigabit()
	// A stored frame of n bytes occupies WireLen(n) byte-times at
	// 8 ns/byte on 1-GBit/s.
	n := 1000
	want := sim.Time(frame.WireLen(n) * 8)
	if got := lp.wireTime(n); got != want {
		t.Errorf("wireTime(%d) = %v, want %v", n, got, want)
	}
}

func TestOutPortSerialization(t *testing.T) {
	e := sim.NewEnv(1)
	s := &sink{env: e}
	lp := LinkParams{PsPerByte: 8000, Delay: 100}
	o := NewOutPort(e, "t", lp, s, 0)
	f := mkFrame(1, 2, 1000)
	wt := lp.wireTime(f.Len())
	e.After(0, func() {
		o.Send(f)
		o.Send(f)
		o.Send(f)
	})
	e.Run()
	if len(s.times) != 3 {
		t.Fatalf("delivered %d frames, want 3", len(s.times))
	}
	for i, at := range s.times {
		want := sim.Time(i+1)*wt + 100
		if at != want {
			t.Errorf("frame %d arrived at %v, want %v", i, at, want)
		}
	}
	if o.TxFrames != 3 || o.TxBytes != uint64(3*f.Len()) {
		t.Errorf("counters: %d frames %d bytes", o.TxFrames, o.TxBytes)
	}
}

func TestOutPortQueueDrop(t *testing.T) {
	e := sim.NewEnv(1)
	s := &sink{env: e}
	o := NewOutPort(e, "t", Gigabit(), s, 2)
	f := mkFrame(1, 2, 1400)
	var accepted int
	e.After(0, func() {
		for i := 0; i < 5; i++ {
			if o.Send(f) {
				accepted++
			}
		}
	})
	e.Run()
	if accepted != 2 {
		t.Errorf("accepted %d, want 2 (capacity)", accepted)
	}
	if o.DropsFull != 3 {
		t.Errorf("DropsFull = %d, want 3", o.DropsFull)
	}
	if len(s.frames) != 2 {
		t.Errorf("delivered %d", len(s.frames))
	}
	if o.MaxQueue != 2 {
		t.Errorf("MaxQueue = %d, want 2", o.MaxQueue)
	}
}

func TestOutPortQueueDrains(t *testing.T) {
	e := sim.NewEnv(1)
	s := &sink{env: e}
	o := NewOutPort(e, "t", Gigabit(), s, 2)
	f := mkFrame(1, 2, 100)
	wt := Gigabit().wireTime(f.Len())
	e.After(0, func() { o.Send(f); o.Send(f) })
	// After both have left the wire, there is room again.
	e.After(2*wt+1, func() {
		if !o.Send(f) {
			t.Error("send after drain rejected")
		}
	})
	e.Run()
	if len(s.frames) != 3 {
		t.Errorf("delivered %d, want 3", len(s.frames))
	}
}

func TestOutPortLoss(t *testing.T) {
	e := sim.NewEnv(42)
	s := &sink{env: e}
	lp := Gigabit()
	lp.LossProb = 0.5
	o := NewOutPort(e, "t", lp, s, 0)
	n := 1000
	e.After(0, func() {
		for i := 0; i < n; i++ {
			o.Send(mkFrame(1, 2, 100))
		}
	})
	e.Run()
	lost := int(o.DropsErr)
	if got := len(s.frames) + lost; got != n {
		t.Fatalf("delivered+lost = %d, want %d", got, n)
	}
	if lost < 400 || lost > 600 {
		t.Errorf("lost %d of %d at p=0.5 (improbable)", lost, n)
	}
}

func TestSwitchForwarding(t *testing.T) {
	e := sim.NewEnv(1)
	params := DefaultSwitchParams()
	params.Jitter = 0 // exact-timing test
	sw := NewSwitch(e, "sw", params)
	a, b := &sink{env: e}, &sink{env: e}
	addrA, addrB := frame.NewAddr(0, 0), frame.NewAddr(1, 0)
	upA := sw.AttachStation(addrA, a, Gigabit(), 16)
	sw.AttachStation(addrB, b, Gigabit(), 16)
	f := mkFrame(addrB, addrA, 500)
	e.After(0, func() { upA.Send(f) })
	e.Run()
	if len(b.frames) != 1 || len(a.frames) != 0 {
		t.Fatalf("b got %d, a got %d; want 1, 0", len(b.frames), len(a.frames))
	}
	if sw.Forwarded != 1 {
		t.Errorf("Forwarded = %d", sw.Forwarded)
	}
	// Store-and-forward: arrival includes two serializations, two
	// propagation delays and switch latency.
	wt := Gigabit().wireTime(f.Len())
	want := 2*wt + 2*Gigabit().Delay + params.Latency
	if b.times[0] != want {
		t.Errorf("arrival at %v, want %v", b.times[0], want)
	}
}

func TestSwitchUnknownDestination(t *testing.T) {
	e := sim.NewEnv(1)
	sw := NewSwitch(e, "sw", DefaultSwitchParams())
	a := &sink{env: e}
	addrA := frame.NewAddr(0, 0)
	upA := sw.AttachStation(addrA, a, Gigabit(), 16)
	e.After(0, func() { upA.Send(mkFrame(frame.NewAddr(9, 0), addrA, 100)) })
	e.Run()
	if sw.DropUnknown != 1 {
		t.Errorf("DropUnknown = %d, want 1", sw.DropUnknown)
	}
}

func TestSwitchCongestionDrop(t *testing.T) {
	// Two stations blast a third: the shared output queue must overflow.
	e := sim.NewEnv(1)
	sw := NewSwitch(e, "sw", SwitchParams{Latency: 1000, QueueCap: 4})
	var ups []*OutPort
	victim := &sink{env: e}
	vAddr := frame.NewAddr(2, 0)
	for i := 0; i < 2; i++ {
		s := &sink{env: e}
		ups = append(ups, sw.AttachStation(frame.NewAddr(i, 0), s, Gigabit(), 4))
	}
	sw.AttachStation(vAddr, victim, Gigabit(), 4)
	e.After(0, func() {
		for i := 0; i < 50; i++ {
			ups[0].Send(mkFrame(vAddr, frame.NewAddr(0, 0), 1400))
			ups[1].Send(mkFrame(vAddr, frame.NewAddr(1, 0), 1400))
		}
	})
	e.Run()
	down := sw.OutPortFor(vAddr)
	if down.DropsFull == 0 {
		t.Error("no congestion drops despite 2:1 overload into tiny queue")
	}
	if len(victim.frames)+int(down.DropsFull) != 100 {
		t.Errorf("delivered %d + dropped %d != 100", len(victim.frames), down.DropsFull)
	}
}

// testHost records interrupts and optionally drains on each one.
type testHost struct {
	nics   []*NIC
	intrs  int
	drain  bool
	gotRx  int
	gotTx  int
	unmask bool
}

func (h *testHost) Interrupt(n *NIC) {
	h.intrs++
	n.Mask()
	if h.drain {
		for n.PollRxOne() != nil {
			h.gotRx++
		}
		h.gotTx += n.TakeTxDone()
	}
	if h.unmask {
		n.Unmask()
	}
}

func TestNICReceivePath(t *testing.T) {
	e := sim.NewEnv(1)
	addr := frame.NewAddr(3, 0)
	n := NewNIC(e, "nic", addr, DefaultNICParams())
	h := &testHost{drain: true, unmask: true}
	n.SetHost(h)
	e.After(0, func() { n.DeliverFrame(mkFrame(addr, frame.NewAddr(1, 0), 800)) })
	e.Run()
	if h.intrs != 1 {
		t.Fatalf("interrupts = %d, want 1", h.intrs)
	}
	if h.gotRx != 1 {
		t.Fatalf("host drained %d rx frames, want 1", h.gotRx)
	}
	if n.RxFrames != 1 {
		t.Errorf("RxFrames = %d", n.RxFrames)
	}
}

func TestNICAddressFilter(t *testing.T) {
	e := sim.NewEnv(1)
	addr := frame.NewAddr(3, 0)
	n := NewNIC(e, "nic", addr, DefaultNICParams())
	h := &testHost{drain: true, unmask: true}
	n.SetHost(h)
	e.After(0, func() { n.DeliverFrame(mkFrame(frame.NewAddr(4, 0), frame.NewAddr(1, 0), 100)) })
	e.Run()
	if n.Misaddr != 1 || h.intrs != 0 {
		t.Errorf("Misaddr = %d intrs = %d, want 1, 0", n.Misaddr, h.intrs)
	}
}

func TestNICBroadcastAccepted(t *testing.T) {
	e := sim.NewEnv(1)
	addr := frame.NewAddr(3, 0)
	n := NewNIC(e, "nic", addr, DefaultNICParams())
	h := &testHost{drain: true, unmask: true}
	n.SetHost(h)
	e.After(0, func() { n.DeliverFrame(mkFrame(frame.Broadcast, frame.NewAddr(1, 0), 100)) })
	e.Run()
	if h.gotRx != 1 {
		t.Errorf("broadcast frame not delivered")
	}
}

func TestNICInterruptCoalescingWhileMasked(t *testing.T) {
	// Frames arriving while the NIC is masked must not raise interrupts;
	// Unmask with pending work must raise exactly one.
	e := sim.NewEnv(1)
	addr := frame.NewAddr(3, 0)
	n := NewNIC(e, "nic", addr, DefaultNICParams())
	h := &testHost{} // does not drain, does not unmask
	n.SetHost(h)
	e.After(0, func() {
		for i := 0; i < 10; i++ {
			n.DeliverFrame(mkFrame(addr, frame.NewAddr(1, 0), 200))
		}
	})
	e.Run()
	if h.intrs != 1 {
		t.Fatalf("interrupts = %d, want 1 (handler masked, no unmask)", h.intrs)
	}
	// Now drain and unmask: remaining frames are in the ring; unmask
	// must re-raise because the ring is non-empty.
	got := 0
	e.After(0, func() {
		for n.PollRxOne() != nil {
			got++
		}
	})
	e.Run()
	if got != 10 {
		t.Fatalf("polled %d frames, want 10", got)
	}
	fired := false
	e.After(0, func() {
		n.DeliverFrame(mkFrame(addr, frame.NewAddr(1, 0), 200))
	})
	e.Run() // frame lands in ring; masked, no interrupt
	if h.intrs != 1 {
		t.Fatalf("masked delivery raised interrupt")
	}
	e.After(0, func() { n.Unmask(); fired = true })
	e.Run()
	if !fired || h.intrs != 2 {
		t.Fatalf("unmask with pending work: interrupts = %d, want 2", h.intrs)
	}
}

func TestNICTransmitPath(t *testing.T) {
	e := sim.NewEnv(1)
	s := &sink{env: e}
	addr := frame.NewAddr(0, 0)
	n := NewNIC(e, "nic", addr, DefaultNICParams())
	up := NewOutPort(e, "up", Gigabit(), s, 0)
	n.AttachUplink(up)
	h := &testHost{drain: true, unmask: true}
	n.SetHost(h)
	f := mkFrame(frame.NewAddr(1, 0), addr, 1000)
	e.After(0, func() { n.Transmit(f) })
	e.Run()
	if len(s.frames) != 1 {
		t.Fatalf("transmitted %d frames", len(s.frames))
	}
	if n.TxFrames != 1 {
		t.Errorf("TxFrames = %d", n.TxFrames)
	}
	// DMA happens before the wire: arrival strictly later than wire+delay.
	min := Gigabit().wireTime(f.Len()) + Gigabit().Delay
	if s.times[0] <= min {
		t.Errorf("arrival %v too early (no DMA time)", s.times[0])
	}
}

func TestNICTxCompletionCoalescing(t *testing.T) {
	e := sim.NewEnv(1)
	s := &sink{env: e}
	addr := frame.NewAddr(0, 0)
	p := DefaultNICParams()
	p.TxIntrCoalesce = 4
	n := NewNIC(e, "nic", addr, p)
	n.AttachUplink(NewOutPort(e, "up", Gigabit(), s, 0))
	h := &testHost{drain: true, unmask: true}
	n.SetHost(h)
	e.After(0, func() {
		for i := 0; i < 8; i++ {
			n.Transmit(mkFrame(frame.NewAddr(1, 0), addr, 500))
		}
	})
	e.Run()
	if h.gotTx != 8 {
		t.Fatalf("host saw %d tx completions, want 8", h.gotTx)
	}
	if n.TxIntr != 2 {
		t.Errorf("TxIntr = %d, want 2 (coalesce 4)", n.TxIntr)
	}
}

func TestNICUnmaskableTxInterrupts(t *testing.T) {
	// A 10G-style NIC raises transmit interrupts even while masked.
	e := sim.NewEnv(1)
	s := &sink{env: e}
	addr := frame.NewAddr(0, 0)
	p := Myri10GNICParams()
	p.TxIntrCoalesce = 1
	n := NewNIC(e, "nic", addr, p)
	n.AttachUplink(NewOutPort(e, "up", TenGigabit(), s, 0))
	h := &testHost{drain: true} // never unmasks
	n.SetHost(h)
	e.After(0, func() {
		n.Mask()
		n.Transmit(mkFrame(frame.NewAddr(1, 0), addr, 500))
	})
	e.Run()
	if h.intrs != 1 {
		t.Fatalf("masked 10G NIC delivered %d tx interrupts, want 1", h.intrs)
	}
	// The 1G NIC must stay silent in the same situation.
	n2 := NewNIC(e, "nic2", addr, DefaultNICParams())
	n2.AttachUplink(NewOutPort(e, "up2", Gigabit(), s, 0))
	h2 := &testHost{drain: true}
	n2.SetHost(h2)
	e.After(0, func() {
		n2.Mask()
		n2.Transmit(mkFrame(frame.NewAddr(1, 0), addr, 500))
	})
	e.Run()
	if h2.intrs != 0 {
		t.Fatalf("masked 1G NIC delivered %d tx interrupts, want 0", h2.intrs)
	}
}

func TestNICDMASerializes(t *testing.T) {
	// Two frames delivered simultaneously must DMA one after another.
	e := sim.NewEnv(1)
	addr := frame.NewAddr(3, 0)
	n := NewNIC(e, "nic", addr, DefaultNICParams())
	var ringAt []sim.Time
	h := &testHost{}
	n.SetHost(h)
	_ = h
	e.After(0, func() {
		n.DeliverFrame(mkFrame(addr, frame.NewAddr(1, 0), 1000))
		n.DeliverFrame(mkFrame(addr, frame.NewAddr(1, 0), 1000))
	})
	// Observe ring growth over time.
	for i := sim.Time(1); i <= 10; i++ {
		i := i
		e.After(i*500, func() {
			if n.RxPending() {
				ringAt = append(ringAt, e.Now())
			}
		})
	}
	e.Run()
	per := DefaultNICParams().RxDMAPerFrame +
		sim.Time(int64(mkFrame(addr, 0, 1000).Len())*DefaultNICParams().DMAPsPerByte/1000)
	if n.dma.BusyTime() != 2*per {
		t.Errorf("DMA busy = %v, want %v", n.dma.BusyTime(), 2*per)
	}
}

func TestEndToEndThroughSwitch(t *testing.T) {
	// NIC -> switch -> NIC, full path with real encode/decode.
	e := sim.NewEnv(1)
	sw := NewSwitch(e, "sw", DefaultSwitchParams())
	aAddr, bAddr := frame.NewAddr(0, 0), frame.NewAddr(1, 0)
	na := NewNIC(e, "a", aAddr, DefaultNICParams())
	nb := NewNIC(e, "b", bAddr, DefaultNICParams())
	na.AttachUplink(sw.AttachStation(aAddr, na, Gigabit(), 64))
	nb.AttachUplink(sw.AttachStation(bAddr, nb, Gigabit(), 64))
	hb := &testHost{drain: true, unmask: true}
	nb.SetHost(hb)
	na.SetHost(&testHost{drain: true, unmask: true})
	payload := []byte("cross-switch payload")
	hdr := frame.Header{Type: frame.TypeData, OpType: frame.OpWrite, Total: uint32(len(payload))}
	buf := frame.MustEncode(bAddr, aAddr, &hdr, payload)
	e.After(0, func() { na.Transmit(&Frame{Buf: buf, Dst: bAddr, Src: aAddr}) })
	e.Run()
	if hb.gotRx != 1 {
		t.Fatalf("receiver host got %d frames", hb.gotRx)
	}
	if nb.RxFrames != 1 || na.TxFrames != 1 {
		t.Errorf("tx=%d rx=%d", na.TxFrames, nb.RxFrames)
	}
}

// Property: frames are conserved — every frame accepted by a port is
// delivered, dropped to error loss, or duplicated (counted), under any
// mix of loss and duplication probabilities.
func TestPropertyFrameConservation(t *testing.T) {
	f := func(seed int64, lossPct, dupPct uint8, count uint8) bool {
		e := sim.NewEnv(seed)
		s := &sink{env: e}
		lp := Gigabit()
		lp.LossProb = float64(lossPct%50) / 100
		lp.DupProb = float64(dupPct%50) / 100
		o := NewOutPort(e, "t", lp, s, 0)
		n := int(count)%200 + 1
		e.After(0, func() {
			for i := 0; i < n; i++ {
				o.Send(mkFrame(1, 2, 200))
			}
		})
		e.Run()
		delivered := uint64(len(s.frames))
		return delivered == uint64(n)-o.DropsErr+o.Duplicated &&
			o.TxFrames == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCorruptionInjectionReachesDecoder(t *testing.T) {
	e := sim.NewEnv(3)
	s := &sink{env: e}
	lp := Gigabit()
	lp.CorruptProb = 1 // corrupt every frame
	o := NewOutPort(e, "t", lp, s, 0)
	orig := mkFrame(1, 2, 300)
	e.After(0, func() { o.Send(orig) })
	e.Run()
	if len(s.frames) != 1 || o.Corrupted != 1 {
		t.Fatalf("frames=%d corrupted=%d", len(s.frames), o.Corrupted)
	}
	if &s.frames[0].Buf[0] == &orig.Buf[0] {
		t.Error("corruption mutated the sender's buffer (retransmit source)")
	}
	if _, _, _, _, err := frame.Decode(s.frames[0].Buf); err == nil {
		t.Error("corrupted frame passed the protocol checksum")
	}
}

func TestOutPortFailRestore(t *testing.T) {
	e := sim.NewEnv(1)
	s := &sink{env: e}
	lp := LinkParams{PsPerByte: 8000, Delay: 100}
	o := NewOutPort(e, "t", lp, s, 0)
	f := mkFrame(1, 2, 1000)
	e.After(0, func() { o.Send(f) }) // delivered: port healthy at tx completion
	// Fail well after the first frame has fully serialized (~8.2µs): the
	// failure check happens when each frame finishes transmitting.
	e.After(50*sim.Microsecond, func() {
		o.Fail()
		o.Send(f) // lost
		o.Send(f) // lost
	})
	e.After(sim.Second, func() {
		o.Restore()
		o.Send(f) // delivered again
	})
	e.Run()
	if len(s.times) != 2 {
		t.Fatalf("delivered %d frames, want 2 (one before failure, one after restore)", len(s.times))
	}
	if o.DropsFailed != 2 {
		t.Errorf("DropsFailed = %d, want 2", o.DropsFailed)
	}
	if o.TxFrames != 4 {
		t.Errorf("TxFrames = %d, want 4 (the wire still carries lost frames)", o.TxFrames)
	}
	if o.failed {
		t.Error("port still failed after Restore")
	}
}

func TestOutPortFailQueuedFrames(t *testing.T) {
	// Frames already queued when the cable is pulled are lost too: the
	// failure check happens when each frame finishes serializing.
	e := sim.NewEnv(1)
	s := &sink{env: e}
	lp := LinkParams{PsPerByte: 8000, Delay: 100}
	o := NewOutPort(e, "t", lp, s, 0)
	e.After(0, func() {
		for i := 0; i < 5; i++ {
			o.Send(mkFrame(1, 2, 1000))
		}
	})
	// Fail mid-burst: after ~2.5 frame times.
	e.After(lp.wireTime(frame.WireLen(1000))*5/2, func() { o.Fail() })
	e.Run()
	if len(s.times) >= 5 {
		t.Fatalf("all %d frames delivered despite failure", len(s.times))
	}
	if o.DropsFailed == 0 {
		t.Error("no frames counted as failed-drops")
	}
	if got := len(s.times) + int(o.DropsFailed); got != 5 {
		t.Errorf("delivered+dropped = %d, want 5", got)
	}
}

func TestOutPortFailCondemnsQueued(t *testing.T) {
	// Restore racing the serialization backlog must not resurrect
	// frames: everything queued at Fail time — and anything accepted
	// while failed — drops, with accounting pinned to the fault
	// timeline rather than to when Restore happens to land.
	e := sim.NewEnv(1)
	s := &sink{env: e}
	lp := LinkParams{PsPerByte: 8000, Delay: 100}
	o := NewOutPort(e, "t", lp, s, 0)
	f := mkFrame(1, 2, 1000)
	wt := lp.wireTime(f.Len())
	e.After(0, func() {
		for i := 0; i < 6; i++ {
			o.Send(f)
		}
	})
	// Fail at 2.5 frame-times: frames 1-2 have serialized (delivered),
	// frames 3-6 are queued and condemned.
	e.After(wt*5/2, func() {
		o.Fail()
		if o.Queued() != 4 {
			t.Errorf("queued at fail = %d, want 4", o.Queued())
		}
		o.Send(f) // accepted while failed: condemned too
	})
	// Restore immediately — long before the condemned frames finish
	// serializing.
	e.After(wt*5/2+1, func() {
		o.Restore()
		o.Send(f) // queued behind the condemned backlog, delivered
	})
	e.Run()
	if got := len(s.times); got != 3 {
		t.Fatalf("delivered %d frames, want 3 (two pre-fail, one post-restore)", got)
	}
	if o.DropsFailed != 5 {
		t.Errorf("DropsFailed = %d, want 5 (four condemned at fail + one sent while failed)", o.DropsFailed)
	}
	if o.TxFrames != 8 {
		t.Errorf("TxFrames = %d, want 8", o.TxFrames)
	}
}

func TestOutPortMangler(t *testing.T) {
	e := sim.NewEnv(1)
	s := &sink{env: e}
	lp := LinkParams{PsPerByte: 8000, Delay: 100}
	o := NewOutPort(e, "t", lp, s, 0)
	f := mkFrame(1, 2, 1000)
	wt := lp.wireTime(f.Len())
	n := 0
	o.SetMangler(func(_ *Frame) Mangle {
		n++
		switch n {
		case 1:
			return Mangle{Drop: true}
		case 2:
			return Mangle{Dup: true}
		case 3:
			return Mangle{Corrupt: true}
		case 4:
			return Mangle{Delay: 10 * wt}
		}
		return Mangle{}
	})
	e.After(0, func() {
		for i := 0; i < 5; i++ {
			o.Send(f)
		}
	})
	e.Run()
	// Frame 1 dropped; frame 2 delivered twice; frames 3-5 once each.
	if got := len(s.frames); got != 5 {
		t.Fatalf("delivered %d frames, want 5", got)
	}
	if o.DropsErr != 1 || o.Duplicated != 1 || o.Corrupted != 1 {
		t.Errorf("DropsErr/Duplicated/Corrupted = %d/%d/%d, want 1/1/1",
			o.DropsErr, o.Duplicated, o.Corrupted)
	}
	// The corrupted copy must fail the frame checksum; the original
	// buffer (a retransmit source at the sender) stays intact.
	bad := 0
	for _, df := range s.frames {
		if _, _, _, _, err := frame.Decode(df.Buf); err != nil {
			bad++
		}
	}
	if bad != 1 {
		t.Errorf("%d delivered frames fail the checksum, want exactly 1", bad)
	}
	if _, _, _, _, err := frame.Decode(f.Buf); err != nil {
		t.Errorf("mangler corrupted the sender's buffer: %v", err)
	}
	// The delayed frame (mangled #4 — serialized fourth, at 4wt) lands
	// last, 10wt later than undelayed delivery: manglers can reorder
	// frames past ones serialized after them.
	last := s.times[len(s.times)-1]
	if want := 14*wt + lp.Delay; last != want {
		t.Errorf("delayed frame arrived at %v, want %v", last, want)
	}
	if prev := s.times[len(s.times)-2]; prev >= 10*wt {
		t.Errorf("second-to-last delivery at %v; delayed frame did not reorder", prev)
	}
}

func TestManglerRemovedIsFree(t *testing.T) {
	// Two identical lossy runs, one with a mangler installed and then
	// removed before traffic: RNG draws must match, i.e. the hook costs
	// nothing when unset. Guards the goldens.
	run := func(install bool) (uint64, []sim.Time) {
		e := sim.NewEnv(7)
		s := &sink{env: e}
		lp := LinkParams{PsPerByte: 8000, Delay: 100, LossProb: 0.3, DupProb: 0.1, CorruptProb: 0.1}
		o := NewOutPort(e, "t", lp, s, 0)
		if install {
			o.SetMangler(func(_ *Frame) Mangle { return Mangle{} })
			o.SetMangler(nil)
		}
		e.After(0, func() {
			for i := 0; i < 200; i++ {
				o.Send(mkFrame(1, 2, 100))
			}
		})
		e.Run()
		return o.DropsErr, s.times
	}
	d1, t1 := run(false)
	d2, t2 := run(true)
	if d1 != d2 || len(t1) != len(t2) {
		t.Fatalf("runs diverge: drops %d vs %d, deliveries %d vs %d", d1, d2, len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("delivery %d at %v vs %v", i, t1[i], t2[i])
		}
	}
}
