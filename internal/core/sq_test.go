package core_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// sqCluster builds a 2-node cluster with small-op coalescing enabled on
// top of base.
func sqCluster(t *testing.T, base cluster.Config, coalesce int) (*cluster.Cluster, *core.Conn, *core.Conn) {
	t.Helper()
	base.Core.CoalesceLimit = coalesce
	return pairCluster(t, base)
}

func TestSQBatchDeliversAndCompletes(t *testing.T) {
	// 32 small writes posted and issued under one doorbell: all bytes
	// land, completions surface in issue order, and the batch is charged
	// exactly one doorbell with every op coalesced.
	cl, c01, _ := sqCluster(t, cluster.OneLink1G(0), 64)
	const k, sz = 32, 48
	src := cl.Nodes[0].EP.Alloc(k * sz)
	dst := cl.Nodes[1].EP.Alloc(k * sz)
	fill(cl.Nodes[0].EP.Mem()[src:src+k*sz], 9)
	var issued int
	var comps []core.Completion
	cl.Env.Go("app", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			off := uint64(i * sz)
			c01.MustPost(core.Op{Remote: dst + off, Local: src + off, Size: sz, Kind: frame.OpWrite})
		}
		if got := c01.SQLen(); got != k {
			t.Errorf("SQLen before ring = %d, want %d", got, k)
		}
		issued = c01.MustRing(p)
		for i := 0; i < k; i++ {
			comps = append(comps, c01.WaitCQ(p))
		}
	})
	cl.Env.RunUntil(10 * sim.Second)
	if issued != k {
		t.Fatalf("Ring issued %d ops, want %d", issued, k)
	}
	if len(comps) != k {
		t.Fatalf("got %d completions, want %d", len(comps), k)
	}
	for i := 1; i < len(comps); i++ {
		if comps[i].OpID <= comps[i-1].OpID {
			t.Fatalf("completions out of issue order: %d then %d", comps[i-1].OpID, comps[i].OpID)
		}
	}
	for i, comp := range comps {
		if want := dst + uint64(i*sz); comp.Op.Remote != want {
			t.Fatalf("completion %d: Remote = %d, want %d", i, comp.Op.Remote, want)
		}
	}
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+k*sz], cl.Nodes[0].EP.Mem()[src:src+k*sz]) {
		t.Fatal("coalesced batch delivered wrong bytes")
	}
	st := cl.Nodes[0].EP.Stats
	if st.Doorbells != 1 || st.SQOps != k {
		t.Errorf("Doorbells = %d SQOps = %d, want 1 and %d", st.Doorbells, st.SQOps, k)
	}
	if st.CoalescedSubOps != k || st.CoalescedFrames == 0 {
		t.Errorf("CoalescedSubOps = %d (want %d), CoalescedFrames = %d (want > 0)",
			st.CoalescedSubOps, k, st.CoalescedFrames)
	}
}

func TestSQReadCompletesOnCQ(t *testing.T) {
	// Reads ride the SQ too (never coalesced): the completion surfaces
	// on the CQ once the reply data is in local memory.
	cl, c01, _ := sqCluster(t, cluster.OneLink1G(0), 64)
	const n = 4096
	remote := cl.Nodes[1].EP.Alloc(n)
	local := cl.Nodes[0].EP.Alloc(n)
	fill(cl.Nodes[1].EP.Mem()[remote:remote+n], 3)
	var ok bool
	cl.Env.Go("app", func(p *sim.Proc) {
		c01.MustPost(core.Op{Remote: remote, Local: local, Size: n, Kind: frame.OpRead})
		c01.MustRing(p)
		comp := c01.WaitCQ(p)
		ok = comp.Op.Kind == frame.OpRead &&
			bytes.Equal(cl.Nodes[0].EP.Mem()[local:local+n], cl.Nodes[1].EP.Mem()[remote:remote+n])
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !ok {
		t.Fatal("SQ read did not complete with the remote bytes in place")
	}
	if cl.Nodes[0].EP.Stats.CoalescedFrames != 0 {
		t.Error("a read was coalesced")
	}
}

func TestSQFenceAcrossCoalescedBatch(t *testing.T) {
	// Big eager write A, then a coalesced batch whose middle sub-op is a
	// backward-fenced notify, on two lossy unordered links: when the
	// notification arrives, A must be fully applied even though the
	// fenced sub-op shared its frame with unfenced neighbours.
	cfg := cluster.TwoLinkUnordered1G(0)
	cfg.Link.LossProb = 0.02
	cfg.Seed = 5
	cl, c01, c10 := sqCluster(t, cfg, 64)
	const n = 200 * 1024
	src := cl.Nodes[0].EP.Alloc(n)
	dstA := cl.Nodes[1].EP.Alloc(n)
	dstB := cl.Nodes[1].EP.Alloc(64)
	fill(cl.Nodes[0].EP.Mem()[src:src+n], 6)
	var checked, ok bool
	cl.Env.Go("sender", func(p *sim.Proc) {
		c01.MustDo(p, core.Op{Remote: dstA, Local: src, Size: n, Kind: frame.OpWrite})
		c01.MustPost(core.Op{Remote: dstB, Local: src, Size: 8, Kind: frame.OpWrite})
		c01.MustPost(core.Op{Remote: dstB + 16, Local: src, Size: 8, Kind: frame.OpWrite,
			Flags: frame.FenceBefore | frame.Notify})
		c01.MustPost(core.Op{Remote: dstB + 32, Local: src, Size: 8, Kind: frame.OpWrite})
		c01.MustRing(p)
	})
	cl.Env.Go("receiver", func(p *sim.Proc) {
		nf := c10.WaitNotify(p)
		checked = true
		ok = nf.Addr == dstB+16 &&
			bytes.Equal(cl.Nodes[1].EP.Mem()[dstA:dstA+n], cl.Nodes[0].EP.Mem()[src:src+n])
	})
	cl.Env.RunUntil(10 * sim.Second)
	if !checked {
		t.Fatal("fenced coalesced notification never arrived")
	}
	if !ok {
		t.Fatal("backward fence violated inside a coalesced batch")
	}
	if cl.Nodes[0].EP.Stats.CoalescedFrames == 0 {
		t.Fatal("batch was not coalesced — the fence was never exercised in a shared frame")
	}
}

func TestSQNotifyFanout(t *testing.T) {
	// k notify sub-ops in one coalesced frame must deliver k distinct
	// notifications, each carrying its own address and length.
	cl, c01, c10 := sqCluster(t, cluster.OneLink1G(0), 64)
	const k = 8
	src := cl.Nodes[0].EP.Alloc(k * 16)
	dst := cl.Nodes[1].EP.Alloc(k * 16)
	var got []core.Notification
	cl.Env.Go("sender", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			c01.MustPost(core.Op{Remote: dst + uint64(i*16), Local: src + uint64(i*16),
				Size: 16, Kind: frame.OpWrite, Flags: frame.Notify})
		}
		c01.MustRing(p)
	})
	cl.Env.Go("receiver", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			got = append(got, c10.WaitNotify(p))
		}
	})
	cl.Env.RunUntil(10 * sim.Second)
	if len(got) != k {
		t.Fatalf("got %d notifications, want %d", len(got), k)
	}
	for i, nf := range got {
		if nf.Addr != dst+uint64(i*16) || nf.Len != 16 {
			t.Fatalf("notification %d: addr %d len %d, want %d/16", i, nf.Addr, nf.Len, dst+uint64(i*16))
		}
	}
	if cl.Nodes[0].EP.Stats.CoalescedSubOps != k {
		t.Errorf("CoalescedSubOps = %d, want %d", cl.Nodes[0].EP.Stats.CoalescedSubOps, k)
	}
}

func TestSQSolicitBatchCompletes(t *testing.T) {
	// A solicited sub-op inside a coalesced batch forces an immediate
	// acknowledgement: the whole batch completes in round-trip time, far
	// below the delayed-ACK bound that would otherwise gate it.
	cfg := cluster.OneLink1G(0)
	cfg.Core.AckDelay = 5 * sim.Millisecond
	cfg.Core.AckEvery = 1 << 20 // never ack on count; only solicit or delay
	cl, c01, _ := sqCluster(t, cfg, 64)
	const k = 4
	src := cl.Nodes[0].EP.Alloc(k * 16)
	dst := cl.Nodes[1].EP.Alloc(k * 16)
	var doneAt sim.Time
	cl.Env.Go("app", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			flags := frame.OpFlags(0)
			if i == k-1 {
				flags = frame.Solicit
			}
			c01.MustPost(core.Op{Remote: dst + uint64(i*16), Local: src + uint64(i*16),
				Size: 16, Kind: frame.OpWrite, Flags: flags})
		}
		c01.MustRing(p)
		for i := 0; i < k; i++ {
			c01.WaitCQ(p)
		}
		doneAt = cl.Env.Now()
	})
	cl.Env.RunUntil(sim.Second)
	if doneAt == 0 {
		t.Fatal("solicited batch never completed")
	}
	if doneAt >= cfg.Core.AckDelay {
		t.Fatalf("batch completed at %v — solicit inside the batch did not bypass the %v delayed ACK",
			doneAt, cfg.Core.AckDelay)
	}
}

func TestSQDeterminism(t *testing.T) {
	// Two fresh same-seed runs of an SQ/coalescing workload over lossy
	// unordered rails must agree on every statistic and on virtual time.
	run := func() (sim.Time, core.Stats, core.Stats) {
		cfg := cluster.TwoLinkUnordered1G(0)
		cfg.Link.LossProb = 0.02
		cfg.Seed = 41
		cfg.Core.CoalesceLimit = 64
		cfg.Nodes = 2
		cl := cluster.New(cfg)
		c01, _ := cl.Pair()
		const rounds, batch = 8, 32
		src := cl.Nodes[0].EP.Alloc(batch * 64)
		dst := cl.Nodes[1].EP.Alloc(batch * 64)
		cl.Env.Go("app", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				for i := 0; i < batch; i++ {
					off := uint64(i * 64)
					c01.MustPost(core.Op{Remote: dst + off, Local: src + off, Size: 64, Kind: frame.OpWrite})
				}
				c01.MustRing(p)
				for i := 0; i < batch; i++ {
					c01.WaitCQ(p)
				}
			}
		})
		end := cl.Env.RunUntil(10 * sim.Second)
		return end, cl.Nodes[0].EP.Stats, cl.Nodes[1].EP.Stats
	}
	t1, a1, b1 := run()
	t2, a2, b2 := run()
	if t1 != t2 || a1 != a2 || b1 != b2 {
		t.Fatalf("same-seed SQ runs diverged:\n%v vs %v\n%+v\nvs\n%+v", t1, t2, a1, a2)
	}
	if a1.Doorbells == 0 || a1.CoalescedFrames == 0 {
		t.Fatalf("workload did not exercise the SQ path: %+v", a1)
	}
}

func TestSQDisabledIsBitIdentical(t *testing.T) {
	// The SQ machinery must be invisible when unused: eager-path traffic,
	// small writes included, runs bit-identically whether coalescing of
	// rung batches is configured or not.
	run := func(coalesce int) (sim.Time, core.Stats) {
		cfg := cluster.TwoLinkUnordered1G(0)
		cfg.Link.LossProb = 0.02
		cfg.Seed = 31
		cfg.Core.CoalesceLimit = coalesce
		cfg.Nodes = 2
		cl := cluster.New(cfg)
		defer cl.Close()
		c01, _ := cl.Pair()
		const n, small = 128 * 1024, 48
		src := cl.Nodes[0].EP.Alloc(n)
		dst := cl.Nodes[1].EP.Alloc(n)
		cl.Env.Go("app", func(p *sim.Proc) {
			h := c01.MustDo(p, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})
			for i := 0; i < 32; i++ {
				off := uint64(i * small)
				h = c01.MustDo(p, core.Op{Remote: dst + off, Local: src + off, Size: small, Kind: frame.OpWrite})
			}
			h.Wait(p)
		})
		end := cl.Env.RunUntil(10 * sim.Second)
		return end, cl.Nodes[0].EP.Stats
	}
	t1, s1 := run(0)
	t2, s2 := run(64)
	if t1 != t2 || s1 != s2 {
		t.Fatalf("eager path disturbed by CoalesceLimit: %v vs %v\n%+v\nvs\n%+v", t1, t2, s1, s2)
	}
	if s1.CoalescedFrames != 0 {
		t.Fatalf("eager ops were coalesced: %+v", s1)
	}
}

func TestOpErrors(t *testing.T) {
	// The error-returning issue paths reject invalid ops with sentinel
	// errors instead of panicking — the issuer now or the peer later. A
	// local range near the top of the 64-bit space must not wrap the
	// bound check, and the remote range is checked against the peer's
	// memory (every endpoint runs the same MemBytes).
	cl, c01, _ := pairCluster(t, cluster.OneLink1G(0))
	src := cl.Nodes[0].EP.Alloc(64)
	dst := cl.Nodes[1].EP.Alloc(64)
	memEnd := uint64(cl.Nodes[0].EP.Config().MemBytes)
	cl.Env.Go("app", func(p *sim.Proc) {
		cases := []struct {
			name string
			op   core.Op
			want error
		}{
			{"bad range", core.Op{Remote: dst, Local: memEnd - 8, Size: 64, Kind: frame.OpWrite}, core.ErrBadRange},
			{"local wraps, write", core.Op{Remote: dst, Local: math.MaxUint64 - 15, Size: 64, Kind: frame.OpWrite}, core.ErrBadRange},
			{"local wraps, read", core.Op{Remote: dst, Local: math.MaxUint64 - 15, Size: 64, Kind: frame.OpRead}, core.ErrBadRange},
			{"remote past memory, write", core.Op{Remote: 1 << 40, Local: src, Size: 64, Kind: frame.OpWrite}, core.ErrBadRange},
			{"remote past memory, read", core.Op{Remote: 1 << 40, Local: src, Size: 64, Kind: frame.OpRead}, core.ErrBadRange},
			{"bad kind", core.Op{Remote: dst, Local: src, Size: 8, Kind: frame.OpType(99)}, core.ErrBadOpKind},
			{"negative size", core.Op{Remote: dst, Local: src, Size: -1, Kind: frame.OpWrite}, core.ErrBadSize},
			{"oversized", core.Op{Remote: dst, Local: src, Size: core.MaxOpSize + 1, Kind: frame.OpWrite}, core.ErrOversized},
		}
		for _, tc := range cases {
			if _, err := c01.Do(p, tc.op); !errors.Is(err, tc.want) {
				t.Errorf("%s: Do err = %v, want %v", tc.name, err, tc.want)
			}
			if err := c01.Post(tc.op); !errors.Is(err, tc.want) {
				t.Errorf("%s: Post err = %v, want %v", tc.name, err, tc.want)
			}
		}
		c01.Close(p)
		good := core.Op{Remote: dst, Local: src, Size: 8, Kind: frame.OpWrite}
		if _, err := c01.Do(p, good); !errors.Is(err, core.ErrClosed) {
			t.Errorf("Do on closed conn: err = %v, want ErrClosed", err)
		}
		if err := c01.Post(good); !errors.Is(err, core.ErrClosed) {
			t.Errorf("Post on closed conn: err = %v, want ErrClosed", err)
		}
		if _, err := c01.Ring(p); !errors.Is(err, core.ErrClosed) {
			t.Errorf("Ring on closed conn: err = %v, want ErrClosed", err)
		}
	})
	cl.Env.RunUntil(sim.Second)
}
