package core_test

import (
	"bytes"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// wrapRun moves a two-rail pair's sequence space to base, writes 600
// frames in each direction, verifies every byte, and returns the traffic
// report and the time the simulation drained.
func wrapRun(t *testing.T, mode func(*core.Config), loss bool, base uint32) (cluster.NetReport, sim.Time) {
	t.Helper()
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Seed = 21
	mode(&cfg.Core)
	if loss {
		cfg.Link.LossProb = 0.05
	}
	cl, c01, c10 := pairCluster(t, cfg)
	c01.SetSeqBaseForTest(base)
	c10.SetSeqBaseForTest(base)
	const n = 600 * 1444
	var src, dst [2]uint64
	for i, c := range []*core.Conn{c01, c10} {
		i, c := i, c
		from, to := cl.Nodes[i].EP, cl.Nodes[1-i].EP
		src[i], dst[i] = from.Alloc(n), to.Alloc(n)
		fill(from.Mem()[src[i]:src[i]+n], byte(3+i))
		cl.Env.Go("writer", func(p *sim.Proc) {
			c.MustDo(p, core.Op{Remote: dst[i], Local: src[i], Size: n, Kind: frame.OpWrite}).Wait(p)
		})
	}
	end := cl.Env.Run()
	for i := range src {
		from, to := cl.Nodes[i].EP, cl.Nodes[1-i].EP
		if !bytes.Equal(to.Mem()[dst[i]:dst[i]+n], from.Mem()[src[i]:src[i]+n]) {
			t.Fatalf("write from node %d corrupted or incomplete (base %d)", i, base)
		}
	}
	rep := cl.Collect()
	if loss && (rep.Proto.Retransmissions == 0 || rep.LinkErrDrops == 0) {
		t.Fatal("lossy run lost nothing: the cell is vacuous")
	}
	return rep, end
}

// TestSequenceWrap runs every ARQ and ordering mode through the 32-bit
// sequence wrap: a connection whose sequence space starts 101 below
// 2^32 must deliver the same bytes, and behave exactly — same
// retransmissions, NACKs, duplicates, held frames, end time — as the
// same run started at 0, clean and under 5 % loss on both rails.
func TestSequenceWrap(t *testing.T) {
	for _, m := range []struct {
		name string
		mode func(*core.Config)
	}{
		{"selective-repeat", func(*core.Config) {}},
		{"strict", func(c *core.Config) { c.Strict = true }},
		{"go-back-n", func(c *core.Config) { c.GoBackN = true }},
	} {
		for _, loss := range []bool{false, true} {
			m, loss := m, loss
			name := m.name + "/clean"
			if loss {
				name = m.name + "/loss5"
			}
			t.Run(name, func(t *testing.T) {
				r0, e0 := wrapRun(t, m.mode, loss, 0)
				rw, ew := wrapRun(t, m.mode, loss, 1<<32-101)
				if r0 != rw || e0 != ew {
					t.Errorf("run across the wrap differs from the run from 0: end %v vs %v\nfrom 0:   %+v\nwrapping: %+v",
						e0, ew, r0.Proto, rw.Proto)
				}
			})
		}
	}
}
