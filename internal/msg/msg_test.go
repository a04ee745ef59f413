package msg

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/sim"
)

// build creates communicators over a cluster configuration.
func build(t *testing.T, cfg cluster.Config) (*cluster.Cluster, []*Comm) {
	t.Helper()
	cfg.Core.MemBytes = 32 << 20
	cl := cluster.New(cfg)
	comms := New(cl, cl.FullMesh())
	return cl, comms
}

// runAll spawns fn per rank and fails unless all finish by the horizon.
func runAll(t *testing.T, cl *cluster.Cluster, comms []*Comm, horizon sim.Time, fn func(p *sim.Proc, c *Comm)) {
	t.Helper()
	done := 0
	for _, c := range comms {
		c := c
		cl.Env.Go(fmt.Sprintf("rank%d", c.Rank()), func(p *sim.Proc) {
			fn(p, c)
			done++
		})
	}
	cl.Env.RunUntil(horizon)
	if done != len(comms) {
		t.Fatalf("only %d/%d ranks finished", done, len(comms))
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*13 + seed
	}
	return b
}

func TestEagerSendRecv(t *testing.T) {
	cl, comms := build(t, cluster.OneLink1G(2))
	msg := []byte("eager path message")
	runAll(t, cl, comms, 10*sim.Second, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, 7, msg)
		} else {
			got := c.Recv(p, 0, 7)
			if !bytes.Equal(got, msg) {
				t.Errorf("got %q", got)
			}
		}
	})
	if comms[0].Stats.EagerSent != 1 || comms[0].Stats.RndvSent != 0 {
		t.Errorf("stats: %+v", comms[0].Stats)
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	cl, comms := build(t, cluster.OneLink1G(2))
	msg := pattern(600*1024, 3) // well above EagerMax
	runAll(t, cl, comms, 30*sim.Second, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, 9, msg)
		} else {
			got := c.Recv(p, 0, 9)
			if !bytes.Equal(got, msg) {
				t.Error("rendezvous payload corrupted")
			}
		}
	})
	if comms[0].Stats.RndvSent != 1 {
		t.Errorf("rendezvous not used: %+v", comms[0].Stats)
	}
}

func TestPairwiseOrdering(t *testing.T) {
	// Many same-tag messages must arrive in send order even over two
	// unordered striped links.
	cl, comms := build(t, cluster.TwoLinkUnordered1G(2))
	const k = 100
	runAll(t, cl, comms, 30*sim.Second, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(p, 1, 5, []byte{byte(i)})
			}
		} else {
			for i := 0; i < k; i++ {
				got := c.Recv(p, 0, 5)
				if got[0] != byte(i) {
					t.Fatalf("message %d arrived as %d (order violated)", i, got[0])
				}
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	cl, comms := build(t, cluster.OneLink1G(2))
	runAll(t, cl, comms, 10*sim.Second, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, 1, []byte("one"))
			c.Send(p, 1, 2, []byte("two"))
			c.Send(p, 1, 3, []byte("three"))
		} else {
			// Receive out of tag order: matching must hold back the
			// others as unexpected messages.
			if got := c.Recv(p, 0, 3); string(got) != "three" {
				t.Errorf("tag 3 = %q", got)
			}
			if got := c.Recv(p, 0, 1); string(got) != "one" {
				t.Errorf("tag 1 = %q", got)
			}
			if got := c.Recv(p, 0, AnyTag); string(got) != "two" {
				t.Errorf("AnyTag = %q", got)
			}
		}
	})
	if comms[1].Stats.UnexpectedMax == 0 {
		t.Error("no unexpected-queue usage recorded")
	}
}

func TestCreditBackpressure(t *testing.T) {
	// Fire far more eager messages than ring slots before the receiver
	// drains: the sender must stall on credits and still deliver all.
	cl, comms := build(t, cluster.OneLink1G(2))
	const k = 5 * RingSlots
	runAll(t, cl, comms, 30*sim.Second, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(p, 1, 4, pattern(512, byte(i)))
			}
		} else {
			p.Sleep(5 * sim.Millisecond) // let the ring fill
			for i := 0; i < k; i++ {
				got := c.Recv(p, 0, 4)
				if !bytes.Equal(got, pattern(512, byte(i))) {
					t.Fatalf("message %d corrupted", i)
				}
			}
		}
	})
	if comms[0].Stats.SendStalls == 0 {
		t.Error("sender never stalled despite ring overflow")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	cl, comms := build(t, cluster.OneLink1G(5))
	var after [5]sim.Time
	runAll(t, cl, comms, 20*sim.Second, func(p *sim.Proc, c *Comm) {
		p.Sleep(sim.Time(c.Rank()) * sim.Millisecond)
		c.Barrier(p)
		after[c.Rank()] = cl.Env.Now()
	})
	for r, at := range after {
		if at < 4*sim.Millisecond {
			t.Errorf("rank %d left barrier at %v, before last arrival", r, at)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		cl, comms := build(t, cluster.OneLink1G(n))
		data := pattern(3000, byte(n))
		runAll(t, cl, comms, 30*sim.Second, func(p *sim.Proc, c *Comm) {
			for root := 0; root < c.Size(); root++ {
				var in []byte
				if c.Rank() == root {
					in = data
				}
				out := c.Bcast(p, root, in)
				if !bytes.Equal(out, data) {
					t.Errorf("n=%d root=%d rank=%d: bad bcast", n, root, c.Rank())
				}
				c.Barrier(p)
			}
		})
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		cl, comms := build(t, cluster.OneLink1G(n))
		runAll(t, cl, comms, 30*sim.Second, func(p *sim.Proc, c *Comm) {
			vals := []float64{float64(c.Rank()), 1, float64(c.Rank() * c.Rank())}
			sum := c.Reduce(p, 0, vals)
			wantA := float64(n*(n-1)) / 2
			var wantC float64
			for r := 0; r < n; r++ {
				wantC += float64(r * r)
			}
			if c.Rank() == 0 {
				if sum[0] != wantA || sum[1] != float64(n) || sum[2] != wantC {
					t.Errorf("n=%d reduce = %v", n, sum)
				}
			} else if sum != nil {
				t.Errorf("non-root got a reduce result")
			}
			c.Barrier(p)
			all := c.Allreduce(p, vals)
			if all[0] != wantA || all[1] != float64(n) || all[2] != wantC {
				t.Errorf("n=%d rank=%d allreduce = %v", n, c.Rank(), all)
			}
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 8} {
		cl, comms := build(t, cluster.OneLink1G(n))
		runAll(t, cl, comms, 60*sim.Second, func(p *sim.Proc, c *Comm) {
			send := make([][]byte, n)
			for j := 0; j < n; j++ {
				send[j] = pattern(2048, byte(c.Rank()*16+j))
			}
			recv := c.Alltoall(p, send)
			for j := 0; j < n; j++ {
				if !bytes.Equal(recv[j], pattern(2048, byte(j*16+c.Rank()))) {
					t.Errorf("n=%d rank=%d: block from %d corrupted", n, c.Rank(), j)
				}
			}
		})
	}
}

func TestGather(t *testing.T) {
	cl, comms := build(t, cluster.OneLink1G(6))
	runAll(t, cl, comms, 30*sim.Second, func(p *sim.Proc, c *Comm) {
		out := c.Gather(p, 2, pattern(777, byte(c.Rank())))
		if c.Rank() == 2 {
			for r := 0; r < 6; r++ {
				if !bytes.Equal(out[r], pattern(777, byte(r))) {
					t.Errorf("gather block %d corrupted", r)
				}
			}
		} else if out != nil {
			t.Error("non-root got gather output")
		}
	})
}

func TestMessagingUnderLossAndReordering(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(3)
	cfg.Link.LossProb = 0.01
	cfg.Seed = 9
	cl, comms := build(t, cfg)
	runAll(t, cl, comms, 120*sim.Second, func(p *sim.Proc, c *Comm) {
		// Ring of mixed eager and rendezvous messages.
		next := (c.Rank() + 1) % 3
		prev := (c.Rank() + 2) % 3
		for i := 0; i < 10; i++ {
			sz := 200
			if i%3 == 0 {
				sz = 100 * 1024
			}
			pending := c.isend(p, next, 40+i, pattern(sz, byte(i)))
			got := c.Recv(p, prev, 40+i)
			if !bytes.Equal(got, pattern(sz, byte(i))) {
				t.Errorf("rank %d msg %d corrupted", c.Rank(), i)
			}
			p.Wait(pending)
		}
		c.Barrier(p)
	})
}

// Property: random mixtures of message sizes and tags are delivered
// intact and in per-pair order.
func TestPropertyMessageIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short")
	}
	f := func(seed int64, sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		cfg := cluster.TwoLinkUnordered1G(2)
		cfg.Seed = seed
		cfg.Core.MemBytes = 32 << 20
		cl := cluster.New(cfg)
		comms := New(cl, cl.FullMesh())
		ok := true
		done := 0
		cl.Env.Go("send", func(p *sim.Proc) {
			for i, s := range sizes {
				comms[0].Send(p, 1, 70, pattern(int(s)%200000, byte(i)))
			}
			done++
		})
		cl.Env.Go("recv", func(p *sim.Proc) {
			for i, s := range sizes {
				got := comms[1].Recv(p, 0, 70)
				if !bytes.Equal(got, pattern(int(s)%200000, byte(i))) {
					ok = false
				}
			}
			done++
		})
		cl.Env.RunUntil(120 * sim.Second)
		return ok && done == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestCollectivesUnderLoss(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(5)
	cfg.Link.LossProb = 0.01
	cfg.Seed = 31
	cl, comms := build(t, cfg)
	runAll(t, cl, comms, 240*sim.Second, func(p *sim.Proc, c *Comm) {
		for i := 0; i < 3; i++ {
			c.Barrier(p)
			vals := []float64{float64(c.Rank() + i)}
			sum := c.Allreduce(p, vals)
			var want float64
			for r := 0; r < c.Size(); r++ {
				want += float64(r + i)
			}
			if sum[0] != want {
				t.Errorf("round %d rank %d: allreduce %v != %v", i, c.Rank(), sum[0], want)
			}
			data := c.Bcast(p, i%c.Size(), pattern(3000, byte(i)))
			if !bytes.Equal(data, pattern(3000, byte(i))) {
				t.Errorf("round %d: bcast corrupted", i)
			}
		}
	})
}

func TestConcurrentRendezvousBoundedByStaging(t *testing.T) {
	// More concurrent large sends than staging buffers: they must
	// serialize on the staging pool and all complete.
	cl, comms := build(t, cluster.OneLink1G(2))
	const k = 2 * stagingBufs
	done := 0
	for i := 0; i < k; i++ {
		i := i
		cl.Env.Go(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			comms[0].Send(p, 1, 90+i, pattern(200*1024, byte(i)))
			done++
		})
	}
	cl.Env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			got := comms[1].Recv(p, 0, 90+i)
			if !bytes.Equal(got, pattern(200*1024, byte(i))) {
				t.Errorf("rendezvous %d corrupted", i)
			}
		}
	})
	cl.Env.RunUntil(120 * sim.Second)
	if done != k {
		t.Fatalf("only %d/%d rendezvous sends completed", done, k)
	}
}

// TestConcurrentRendezvousReverseStart is the same program with the
// senders started in reverse tag order: the four the receiver wants
// last take the staging buffers, and the ones it wants first must still
// get through, their RTS unstaged and their payload pushed once matched.
func TestConcurrentRendezvousReverseStart(t *testing.T) {
	cl, comms := build(t, cluster.OneLink1G(2))
	const k = 2 * stagingBufs
	done := 0
	for i := k - 1; i >= 0; i-- {
		cl.Env.Go(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			comms[0].Send(p, 1, 90+i, pattern(200*1024, byte(i)))
			done++
		})
	}
	cl.Env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			if got := comms[1].Recv(p, 0, 90+i); !bytes.Equal(got, pattern(200*1024, byte(i))) {
				t.Errorf("rendezvous %d corrupted", i)
			}
		}
	})
	cl.Env.RunUntil(120 * sim.Second)
	if done != k {
		t.Fatalf("only %d/%d rendezvous sends completed", done, k)
	}
	if free := comms[0].stageFree.Len(); free != stagingBufs {
		t.Errorf("%d of %d staging buffers free after the run", free, stagingBufs)
	}
}

// TestRendezvousPullFailurePanics kills the sender's end of the
// connection while the receiver pulls a rendezvous payload. The pull
// window still holds the previous message's bytes; Recv must panic
// with the error and the peer rather than return them as the payload.
func TestRendezvousPullFailurePanics(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Core.MemBytes = 32 << 20
	cl := cluster.New(cfg)
	defer cl.Close()
	conns := cl.FullMesh()
	comms := New(cl, conns)
	cl.Env.Go("send", func(p *sim.Proc) {
		comms[0].Send(p, 1, 1, pattern(64*1024, 1))
		comms[0].Send(p, 1, 2, pattern(64*1024, 2))
	})
	var got any
	returned := false
	cl.Env.Go("recv", func(p *sim.Proc) {
		defer func() { got = recover() }()
		comms[1].Recv(p, 0, 1)
		p.Sleep(10 * sim.Millisecond) // the second RTS is queued by now
		cl.Env.After(sim.Microsecond, conns[0][1].Abandon)
		comms[1].Recv(p, 0, 2)
		returned = true
	})
	cl.Env.RunUntil(sim.Second)
	if returned {
		t.Fatal("Recv returned a payload whose pull failed")
	}
	if msg := fmt.Sprint(got); !strings.Contains(msg, "rendezvous pull from rank 0") || !strings.Contains(msg, core.ErrPeerDead.Error()) {
		t.Errorf("Recv panicked with %q, want the failed pull, its peer and its error", msg)
	}
}

func TestSendToSelfPanics(t *testing.T) {
	cl, comms := build(t, cluster.OneLink1G(2))
	panicked := false
	cl.Env.Go("bad", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		comms[0].Send(p, 0, 1, []byte("x"))
	})
	func() {
		defer func() { recover() }()
		cl.Env.RunUntil(sim.Second)
	}()
	if !panicked {
		t.Fatal("send to self did not panic")
	}
}

func TestEagerRendezvousBoundary(t *testing.T) {
	cl, comms := build(t, cluster.OneLink1G(2))
	runAll(t, cl, comms, 30*sim.Second, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, 1, pattern(EagerMax, 1))   // largest eager
			c.Send(p, 1, 2, pattern(EagerMax+1, 2)) // smallest rendezvous
		} else {
			if got := c.Recv(p, 0, 1); !bytes.Equal(got, pattern(EagerMax, 1)) {
				t.Error("EagerMax message corrupted")
			}
			if got := c.Recv(p, 0, 2); !bytes.Equal(got, pattern(EagerMax+1, 2)) {
				t.Error("EagerMax+1 message corrupted")
			}
		}
	})
	if comms[0].Stats.EagerSent != 1 || comms[0].Stats.RndvSent != 1 {
		t.Errorf("boundary routing wrong: %+v", comms[0].Stats)
	}
}

func TestOversizeMessagePanics(t *testing.T) {
	cl, comms := build(t, cluster.OneLink1G(2))
	panicked := false
	cl.Env.Go("bad", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		comms[0].Send(p, 1, 1, make([]byte, MaxMessage+1))
	})
	func() {
		defer func() { recover() }()
		cl.Env.RunUntil(sim.Second)
	}()
	if !panicked {
		t.Fatal("oversize message did not panic")
	}
}

// TestCollectivesSurviveLinkFailure runs the full collective repertoire
// with one rank's rail hard-failed mid-run: the messaging layer sits on
// MultiEdge's reliable operations, so a dead rail may cost time but
// never correctness or completion.
func TestCollectivesSurviveLinkFailure(t *testing.T) {
	const n = 4
	cl, comms := build(t, cluster.TwoLinkUnordered1G(n))
	cl.Env.At(200*sim.Microsecond, func() { cl.FailLink(2, 1) })
	data := pattern(20000, 9)
	runAll(t, cl, comms, 60*sim.Second, func(p *sim.Proc, c *Comm) {
		c.Barrier(p)
		got := c.Bcast(p, 0, data)
		if !bytes.Equal(got, data) {
			t.Errorf("rank %d: bcast corrupted under link failure", c.Rank())
		}
		sum := c.Allreduce(p, []float64{float64(c.Rank() + 1)})[0]
		if want := float64(n * (n + 1) / 2); sum != want {
			t.Errorf("rank %d: allreduce = %v, want %v", c.Rank(), sum, want)
		}
		send := make([][]byte, c.Size())
		for j := range send {
			send[j] = pattern(3000, byte(c.Rank()*8+j))
		}
		recv := c.Alltoall(p, send)
		for j, b := range recv {
			if !bytes.Equal(b, pattern(3000, byte(j*8+c.Rank()))) {
				t.Errorf("rank %d: alltoall slot %d corrupted", c.Rank(), j)
			}
		}
		c.Barrier(p)
	})
	if drops := cl.Collect().LinkFailDrops; drops == 0 {
		t.Fatal("the fault never bit (0 frames lost)")
	}
}

// TestParallelClustersStallSenders runs two clusters in two goroutines
// at once, each with a sender that stalls on ring credits again and
// again: blocked senders belong to their communicator, so the clusters
// share no state (run with -race).
func TestParallelClustersStallSenders(t *testing.T) {
	const k = 40 * RingSlots
	stalls := make([]uint64, 2)
	start, done := make(chan struct{}), make(chan struct{})
	for i := range stalls {
		go func() {
			defer func() { done <- struct{}{} }()
			cfg := cluster.OneLink1G(2)
			cfg.Core.MemBytes = 32 << 20
			cl := cluster.New(cfg)
			defer cl.Close()
			comms := New(cl, cl.FullMesh())
			got := 0
			cl.Env.Go("send", func(p *sim.Proc) {
				for j := 0; j < k; j++ {
					comms[0].Send(p, 1, 4, pattern(512, byte(j)))
				}
			})
			cl.Env.Go("recv", func(p *sim.Proc) {
				for j := 0; j < k; j++ {
					p.Sleep(50 * sim.Microsecond) // drain slower than the sender fills
					if bytes.Equal(comms[1].Recv(p, 0, 4), pattern(512, byte(j))) {
						got++
					}
				}
			})
			<-start
			cl.Env.RunUntil(30 * sim.Second)
			if got != k {
				t.Errorf("cluster %d: %d of %d messages intact", i, got, k)
			}
			stalls[i] = comms[0].Stats.SendStalls
		}()
	}
	close(start)
	<-done
	<-done
	for i, n := range stalls {
		if want := uint64(k / RingSlots / 2); n < want {
			t.Errorf("cluster %d: the sender stalled %d times, want at least %d", i, n, want)
		}
	}
}
