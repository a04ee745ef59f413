package svc_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"multiedge/internal/chaos"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/dsm"
	"multiedge/internal/frame"
	"multiedge/internal/msg"
	"multiedge/internal/sim"
	"multiedge/internal/svc"
)

// TestRelayTwoStubsOneEndpoint: two relay-enabled stubs on one node,
// each to a service whose direct path is severed, call concurrently.
// Each stub owns its call slot at the relay and its reply slot's
// notifications, so neither overwrites nor takes the other's exchange.
func TestRelayTwoStubsOneEndpoint(t *testing.T) {
	cl := cluster.New(recoveryConfig(4))
	defer cl.Close()
	reg := svc.NewRegistry()
	const region = 16 * 1024
	for i, name := range []string{"a", "b"} {
		if _, err := reg.Register(name, region, cl.Nodes[1+i].EP); err != nil {
			t.Fatal(err)
		}
	}
	relay := svc.StartRelay(cl.Nodes[3].EP, reg, 2, 10*sim.Millisecond)
	ep0 := cl.Nodes[0].EP
	opts := svc.Options{UseRelay: true, FailoverBudget: 10 * sim.Millisecond}
	var stubs []*svc.Client
	for _, name := range []string{"a", "b"} {
		c, err := svc.Connect(ep0, reg, name, opts)
		if err != nil {
			t.Fatal(err)
		}
		stubs = append(stubs, c)
	}
	if _, err := svc.Connect(cl.Nodes[1].EP, reg, "b", opts); !errors.Is(err, svc.ErrNoRelay) {
		t.Errorf("Connect past the relay's 2 slots: err = %v, want ErrNoRelay", err)
	}
	r := chaos.New(cl, 1)
	r.BlackholePair(0, 0, 0, 1)
	r.BlackholePair(0, 0, 0, 2)

	const n, writes = 2 * 1024, 4
	srcs := make([]uint64, len(stubs))
	done := 0
	for i, c := range stubs {
		srcs[i] = ep0.Alloc(n * writes)
		fill(ep0.Mem(), srcs[i], n*writes, byte(31*i+5))
		cl.Env.Go(fmt.Sprintf("caller%d", i), func(p *sim.Proc) {
			for w := 0; w < writes; w++ {
				off := uint64(w * n)
				if err := c.Call(p, 1, core.Op{Remote: off, Local: srcs[i] + off, Size: n, Kind: frame.OpWrite}); err != nil {
					t.Errorf("stub %d write %d: %v", i, w, err)
					return
				}
			}
			c.Close(p)
			done++
		})
	}
	cl.Env.RunUntil(30 * sim.Second)
	if done != len(stubs) {
		t.Fatalf("%d of %d callers finished", done, len(stubs))
	}
	for i, c := range stubs {
		if c.Stats.RelayCalls != writes {
			t.Errorf("stub %d RelayCalls = %d, want %d", i, c.Stats.RelayCalls, writes)
		}
		be := c.Service().Backends[0]
		if !bytes.Equal(be.EP.Mem()[be.Base:be.Base+n*writes], ep0.Mem()[srcs[i]:srcs[i]+n*writes]) {
			t.Errorf("backend of stub %d does not hold its writes", i)
		}
	}
	if relay.Stats.BadCalls != 0 || relay.Stats.Forwarded != 2*writes {
		t.Errorf("relay stats = %+v, want %d forwarded and no bad calls", relay.Stats, 2*writes)
	}
}

// TestRelayBesideDSMAndComm: a DSM, a message-passing Comm, a relayed
// service stub and a plain WaitNotify ping share the same endpoints.
// Each takes only the notifications of the bytes it registered, so
// every rank finishes and the endpoints' notification total is exactly
// the sum of what the four sent.
func TestRelayBesideDSMAndComm(t *testing.T) {
	// Node 0 calls the service on node 1 through the relay on node 2;
	// node 3 answers node 0's ping. All four run the DSM and the Comm.
	cl := cluster.New(recoveryConfig(4))
	defer cl.Close()
	mesh := cl.FullMesh()
	sys := dsm.New(cl, mesh, dsm.Config{SharedBytes: 4 * dsm.PageSize})
	comms := msg.New(cl, mesh)
	reg := svc.NewRegistry()
	const region = 8 * 1024
	if _, err := reg.Register("kv", region, cl.Nodes[1].EP); err != nil {
		t.Fatal(err)
	}
	relay := svc.StartRelay(cl.Nodes[2].EP, reg, 1, 10*sim.Millisecond)
	stub, err := svc.Connect(cl.Nodes[0].EP, reg, "kv", svc.Options{UseRelay: true, FailoverBudget: 10 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	counter := sys.Alloc(8)
	ping, pong := cl.Nodes[3].EP.Alloc(64), cl.Nodes[0].EP.Alloc(64)

	// exchange sends one eager and one rendezvous message from each of
	// from to the next rank in to, and checks what it receives.
	exchange := func(p *sim.Proc, c *msg.Comm, to, from int) {
		small := bytes.Repeat([]byte{byte(c.Rank())}, 100)
		big := bytes.Repeat([]byte{byte(c.Rank() + 100)}, msg.EagerMax+1000)
		sent := &sim.Signal{}
		cl.Env.Go(fmt.Sprintf("send%d", c.Rank()), func(q *sim.Proc) {
			c.Send(q, to, 1, small)
			c.Send(q, to, 2, big)
			sent.Fire(cl.Env)
		})
		got1, got2 := c.Recv(p, from, 1), c.Recv(p, from, 2)
		if len(got1) != 100 || got1[0] != byte(from) || len(got2) != msg.EagerMax+1000 || got2[len(got2)-1] != byte(from+100) {
			t.Errorf("rank %d: wrong messages from %d", c.Rank(), from)
		}
		p.Wait(sent)
	}
	notifyWrite := func(p *sim.Proc, c *core.Conn, dst, src uint64) {
		c.MustDo(p, core.Op{Remote: dst, Local: src, Size: 8, Kind: frame.OpWrite, Flags: frame.Notify})
	}
	wantPing := func(c *core.Conn, addr uint64, p *sim.Proc) {
		if nf := c.WaitNotify(p); nf.Addr != addr || nf.Len != 8 {
			t.Errorf("ping conn got %+v, want the write at %d", nf, addr)
		}
	}

	// Phase one: every consumer on every endpoint at once.
	const ranks = 4
	var phase1 [ranks]sim.Signal
	finished := 0
	for r := 0; r < ranks; r++ {
		in, c := sys.Insts[r], comms[r]
		cl.Env.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			in.Barrier(p)
			in.Acquire(p, 0)
			w := in.WSlice(p, counter, 8)
			binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(w)+1)
			in.Release(p, 0)
			in.Barrier(p)
			if v := binary.LittleEndian.Uint64(in.RSlice(p, counter, 8)); v != ranks {
				t.Errorf("rank %d reads counter %d, want %d", r, v, ranks)
			}
			exchange(p, c, (r+1)%ranks, (r+ranks-1)%ranks)
			switch r {
			case 0:
				notifyWrite(p, mesh[0][3], ping, pong)
				wantPing(mesh[0][3], pong, p)
			case 3:
				wantPing(mesh[3][0], ping, p)
				notifyWrite(p, mesh[3][0], pong, ping)
			}
			phase1[r].Fire(cl.Env)
		})
	}

	// Phase two: node 0's path to the backend is severed, so the stub
	// calls through the relay on node 2 while nodes 2 and 3 keep running
	// the DSM lock and the Comm beside it.
	const n = 4 * 1024
	src, back := cl.Nodes[0].EP.Alloc(n), cl.Nodes[0].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem(), src, n, 77)
	cl.Env.Go("phase2", func(p *sim.Proc) {
		for r := range phase1 {
			p.Wait(&phase1[r])
		}
		p.Sleep(sim.Millisecond) // let the last credit returns land
		chaos.New(cl, 1).BlackholePair(cl.Env.Now(), 0, 0, 1)
		for r := 2; r < ranks; r++ {
			in, c := sys.Insts[r], comms[r]
			cl.Env.Go(fmt.Sprintf("rank%d-again", r), func(q *sim.Proc) {
				in.Acquire(q, 2)
				in.Release(q, 2)
				exchange(q, c, 5-r, 5-r)
				finished++
			})
		}
		if err := stub.Call(p, 1, core.Op{Remote: 0, Local: src, Size: n, Kind: frame.OpWrite}); err != nil {
			t.Errorf("relayed write: %v", err)
		}
		if err := stub.Call(p, 1, core.Op{Remote: 0, Local: back, Size: n, Kind: frame.OpRead}); err != nil {
			t.Errorf("relayed read: %v", err)
		}
		finished++
	})
	cl.Env.RunUntil(30 * sim.Second)
	for r := range phase1 {
		if !phase1[r].Fired() {
			t.Fatalf("rank %d did not finish phase one", r)
		}
	}
	if finished != 3 {
		t.Fatalf("%d of 3 phase-two workers finished", finished)
	}
	if !bytes.Equal(cl.Nodes[0].EP.Mem()[back:back+n], cl.Nodes[0].EP.Mem()[src:src+n]) {
		t.Error("relayed read-back differs")
	}
	if stub.Stats.RelayCalls != 2 || relay.Stats.Calls != 2 || relay.Stats.BadCalls != 0 {
		t.Errorf("stub RelayCalls %d, relay %+v: want 2 relayed calls and no bad ones",
			stub.Stats.RelayCalls, relay.Stats)
	}

	// Every notification went to exactly one consumer: nothing is left
	// on a conn's queue, and the total is what the consumers sent.
	var want, got uint64
	for i, node := range cl.Nodes {
		got += node.EP.Stats.Notifies
		want += sys.Insts[i].Stats.RemoteMsgs
		s := comms[i].Stats
		want += s.EagerSent + s.RndvSent + s.RndvRecv + s.CreditsReturned/(msg.RingSlots/2)
		for j, c := range mesh[i] {
			if c == nil {
				continue
			}
			if nf, ok := c.PollNotify(); ok {
				t.Errorf("conn %d->%d holds a notification nobody took: %+v", i, j, nf)
			}
		}
	}
	want += 2*relay.Stats.Calls + 2 // call and reply per relayed call, ping and pong
	if got != want {
		t.Errorf("endpoints performed %d notifications, consumers sent %d", got, want)
	}
}
