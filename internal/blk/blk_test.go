package blk_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"multiedge/internal/blk"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/sim"
)

// volCluster builds nodes, a full mesh, and a volume on node 0.
func volCluster(t *testing.T, cfg cluster.Config, nodes, blocks, bs, maxClients int) (*cluster.Cluster, [][]*core.Conn, *blk.Volume) {
	t.Helper()
	cfg.Nodes = nodes
	cfg.Core.MemBytes = blocks*bs + (4 << 20)
	cl := cluster.New(cfg)
	t.Cleanup(cl.Close)
	conns := cl.FullMesh()
	v := blk.NewVolume(cl, 0, blocks, bs, maxClients)
	return cl, conns, v
}

// check reports a failed call from inside a simulated process, where
// t.Fatal cannot stop the test.
func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
}

func pat(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
	return b
}

func TestReadYourWrite(t *testing.T) {
	cl, conns, v := volCluster(t, cluster.OneLink1G(0), 2, 64, 4096, 2)
	cli := blk.Open(cl, v, 1, conns[1][0], 0)
	ok := false
	cl.Env.Go("io", func(p *sim.Proc) {
		data := pat(4096, 42)
		check(t, cli.Write(p, 7, data))
		got := make([]byte, 4096)
		check(t, cli.Read(p, 7, got))
		if !bytes.Equal(got, data) {
			t.Error("read-your-write mismatch")
		}
		// An untouched block reads back zero.
		check(t, cli.Read(p, 8, got))
		for _, b := range got {
			if b != 0 {
				t.Error("untouched block not zero")
				break
			}
		}
		ok = true
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !ok {
		t.Fatal("I/O did not complete")
	}
	if cli.Stats.Writes != 1 || cli.Stats.Reads != 2 {
		t.Errorf("stats: %+v", cli.Stats)
	}
}

func TestCrossClientVisibility(t *testing.T) {
	cl, conns, v := volCluster(t, cluster.TwoLinkUnordered1G(0), 3, 64, 4096, 2)
	w := blk.Open(cl, v, 1, conns[1][0], 0)
	r := blk.Open(cl, v, 2, conns[2][0], 1)
	data := pat(4096, 9)
	var wrote sim.Signal
	ok := false
	cl.Env.Go("writer", func(p *sim.Proc) {
		check(t, w.Write(p, 3, data))
		wrote.Fire(cl.Env)
	})
	cl.Env.Go("reader", func(p *sim.Proc) {
		p.Wait(&wrote)
		got := make([]byte, 4096)
		check(t, r.Read(p, 3, got))
		if !bytes.Equal(got, data) {
			t.Error("cross-client read mismatch")
		}
		seq, block, err := r.ReadCommit(p, 0)
		check(t, err)
		if seq != 1 || block != 3 {
			t.Errorf("commit record = (%d,%d), want (1,3)", seq, block)
		}
		ok = true
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !ok {
		t.Fatal("did not complete")
	}
}

// TestCommitNeverPrecedesData is the crash-consistency invariant under
// the adversarial configuration (two unordered rails + 2% loss): an
// observer polling {commit record, block} over its own connection must
// never see a commit sequence whose data has not fully landed. The
// writer fills the block uniformly with byte(seq), so the invariant is
// "every observed byte >= the observed commit seq".
func TestCommitNeverPrecedesData(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(0)
	cfg.Link.LossProb = 0.02
	cfg.Seed = 11
	cl, conns, v := volCluster(t, cfg, 3, 8, 8192, 2)
	w := blk.Open(cl, v, 1, conns[1][0], 0)
	o := blk.Open(cl, v, 2, conns[2][0], 1)

	const rounds = 120
	writerDone := false
	cl.Env.Go("writer", func(p *sim.Proc) {
		buf := make([]byte, 8192)
		for s := 1; s <= rounds; s++ {
			for i := range buf {
				buf[i] = byte(s)
			}
			check(t, w.Write(p, 0, buf))
		}
		writerDone = true
	})
	violations := 0
	observations := 0
	cl.Env.Go("observer", func(p *sim.Proc) {
		got := make([]byte, 8192)
		for !writerDone {
			seq, block, err := o.ReadCommit(p, 0)
			check(t, err)
			if seq == 0 {
				continue
			}
			if block != 0 {
				t.Errorf("commit block = %d, want 0", block)
			}
			check(t, o.Read(p, 0, got))
			observations++
			for _, b := range got {
				if uint64(b) < seq && violations < 3 {
					violations++
					t.Errorf("observed byte %d < committed seq %d", b, seq)
					break
				}
			}
		}
	})
	cl.Env.RunUntil(120 * sim.Second)
	if !writerDone {
		t.Fatal("writer did not finish")
	}
	if observations < 10 {
		t.Fatalf("only %d observations; test exercised nothing", observations)
	}
}

// TestConcurrentClientsDisjointBlocks has four clients hammer disjoint
// block ranges concurrently; the volume must end up as the union of
// their last writes.
func TestConcurrentClientsDisjointBlocks(t *testing.T) {
	const per = 16
	cl, conns, v := volCluster(t, cluster.TwoLinkUnordered1G(0), 5, 4*per, 2048, 4)
	clients := make([]*blk.Client, 4)
	for i := range clients {
		clients[i] = blk.Open(cl, v, i+1, conns[i+1][0], i)
	}
	done := 0
	for i, cli := range clients {
		i, cli := i, cli
		cl.Env.Go("client", func(p *sim.Proc) {
			for round := 0; round < 3; round++ {
				for b := 0; b < per; b++ {
					check(t, cli.Write(p, i*per+b, pat(2048, byte(i*31+b*7+round))))
				}
			}
			check(t, cli.Flush(p))
			done++
		})
	}
	cl.Env.RunUntil(60 * sim.Second)
	if done != 4 {
		t.Fatalf("%d/4 clients finished", done)
	}
	host := v.HostMem(cl)
	for i := 0; i < 4; i++ {
		for b := 0; b < per; b++ {
			off := (i*per + b) * 2048
			want := pat(2048, byte(i*31+b*7+2))
			if !bytes.Equal(host[off:off+2048], want) {
				t.Fatalf("client %d block %d: final contents wrong", i, b)
			}
		}
	}
}

// TestBlockStoreSurvivesLinkFailure pulls one rail mid-workload.
func TestBlockStoreSurvivesLinkFailure(t *testing.T) {
	cl, conns, v := volCluster(t, cluster.TwoLinkUnordered1G(0), 2, 64, 4096, 1)
	cli := blk.Open(cl, v, 1, conns[1][0], 0)
	cl.Env.At(500*sim.Microsecond, func() { cl.FailLink(0, 1) })
	done := false
	cl.Env.Go("io", func(p *sim.Proc) {
		for b := 0; b < 64; b++ {
			check(t, cli.Write(p, b, pat(4096, byte(b))))
		}
		got := make([]byte, 4096)
		for b := 0; b < 64; b++ {
			check(t, cli.Read(p, b, got))
			if !bytes.Equal(got, pat(4096, byte(b))) {
				t.Fatalf("block %d corrupted after link failure", b)
			}
		}
		done = true
	})
	cl.Env.RunUntil(60 * sim.Second)
	if !done {
		t.Fatal("workload did not complete")
	}
	if cl.Collect().LinkFailDrops == 0 {
		t.Fatal("the fault never bit")
	}
}

// TestRandomWritesMatchModel is the property test: an arbitrary
// interleaving of two clients' writes over disjoint block sets must
// leave the volume equal to a map of each block's last write.
func TestRandomWritesMatchModel(t *testing.T) {
	prop := func(seed int64, ops []uint16) bool {
		if len(ops) > 60 {
			ops = ops[:60]
		}
		if len(ops) == 0 {
			return true
		}
		const blocks, bs = 16, 1024
		cfg := cluster.TwoLinkUnordered1G(0)
		cfg.Seed = seed%100 + 1
		cl, conns, v := func() (*cluster.Cluster, [][]*core.Conn, *blk.Volume) {
			cfg.Nodes = 3
			cfg.Core.MemBytes = blocks*bs + (4 << 20)
			cl := cluster.New(cfg)
			conns := cl.FullMesh()
			return cl, conns, blk.NewVolume(cl, 0, blocks, bs, 2)
		}()
		c1 := blk.Open(cl, v, 1, conns[1][0], 0)
		c2 := blk.Open(cl, v, 2, conns[2][0], 1)

		model := make(map[int]byte)
		var mine [2][]uint16
		for i, op := range ops {
			mine[i%2] = append(mine[i%2], op)
		}
		done := 0
		for ci, cli := range []*blk.Client{c1, c2} {
			ci, cli := ci, cli
			cl.Env.Go("w", func(p *sim.Proc) {
				for _, op := range mine[ci] {
					// Client ci owns blocks with block%2 == ci.
					b := int(op) % (blocks / 2) * 2
					if ci == 1 {
						b++
					}
					fillByte := byte(op >> 8)
					buf := bytes.Repeat([]byte{fillByte}, bs)
					check(t, cli.Write(p, b, buf))
					model[b] = fillByte
				}
				done++
			})
		}
		cl.Env.RunUntil(120 * sim.Second)
		if done != 2 {
			return false
		}
		host := v.HostMem(cl)
		for b, want := range model {
			for _, got := range host[b*bs : (b+1)*bs] {
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGeometryChecks(t *testing.T) {
	cl, conns, v := volCluster(t, cluster.OneLink1G(0), 2, 8, 512, 1)
	cli := blk.Open(cl, v, 1, conns[1][0], 0)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	cl.Env.Go("io", func(p *sim.Proc) {
		expectPanic("read out of range", func() { cli.Read(p, 8, make([]byte, 512)) })
		expectPanic("negative block", func() { cli.Read(p, -1, make([]byte, 512)) })
	})
	cl.Env.RunUntil(sim.Second)
	expectPanic("bad client id", func() { blk.Open(cl, v, 1, conns[1][0], 1) })
	expectPanic("conn to wrong node", func() {
		cl2, conns2, v2 := volCluster(t, cluster.OneLink1G(0), 3, 8, 512, 1)
		_ = v2
		blk.Open(cl2, blk.NewVolume(cl2, 0, 8, 512, 1), 1, conns2[1][2], 0)
	})
	expectPanic("zero blocks", func() { blk.NewVolume(cl, 0, 0, 512, 1) })
}

// TestFailedCallsReturnErrors kills the volume host's end of the
// connection while each client call is in flight. The call must return
// an error wrapping core.ErrPeerDead, and must not hand back the
// staging buffer or the commit shadow, which still hold the client's
// own last write, as if they had been read.
func TestFailedCallsReturnErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(t *testing.T, p *sim.Proc, cli *blk.Client) error
	}{
		{"Write", func(t *testing.T, p *sim.Proc, cli *blk.Client) error { return cli.Write(p, 4, pat(4096, 6)) }},
		{"Flush", func(t *testing.T, p *sim.Proc, cli *blk.Client) error { return cli.Flush(p) }},
		{"Read", func(t *testing.T, p *sim.Proc, cli *blk.Client) error {
			buf := make([]byte, 4096)
			err := cli.Read(p, 3, buf)
			if err != nil && !bytes.Equal(buf, make([]byte, 4096)) {
				t.Error("a failed Read copied the staging buffer out")
			}
			return err
		}},
		{"ReadCommit", func(t *testing.T, p *sim.Proc, cli *blk.Client) error {
			seq, block, err := cli.ReadCommit(p, 0)
			if err != nil && (seq != 0 || block != 0) {
				t.Errorf("a failed ReadCommit returned the record (%d,%d)", seq, block)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, conns, v := volCluster(t, cluster.OneLink1G(0), 2, 64, 4096, 1)
			cli := blk.Open(cl, v, 1, conns[1][0], 0)
			var err error
			done := false
			cl.Env.Go("io", func(p *sim.Proc) {
				check(t, cli.Write(p, 3, pat(4096, 5)))
				cl.Env.After(sim.Microsecond, conns[0][1].Abandon)
				err = tc.call(t, p, cli)
				done = true
			})
			cl.Env.RunUntil(10 * sim.Second)
			if !done {
				t.Fatal("the call never returned")
			}
			if !errors.Is(err, core.ErrPeerDead) {
				t.Errorf("%s returned %v with the host's end of the conn killed, want an error wrapping ErrPeerDead", tc.name, err)
			}
		})
	}
}
