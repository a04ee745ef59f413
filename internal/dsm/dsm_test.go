package dsm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"multiedge/internal/cluster"
	"multiedge/internal/sim"
)

// build creates a DSM over a small cluster. kind selects the cluster
// configuration: "1g", "2l" (strict), "2lu", "10g".
func build(t *testing.T, nodes int, kind string, shared int) *System {
	t.Helper()
	var cfg cluster.Config
	switch kind {
	case "1g":
		cfg = cluster.OneLink1G(nodes)
	case "2l":
		cfg = cluster.TwoLink1G(nodes)
	case "2lu":
		cfg = cluster.TwoLinkUnordered1G(nodes)
	case "10g":
		cfg = cluster.OneLink10G(nodes)
	default:
		t.Fatalf("bad kind %q", kind)
	}
	cfg.Core.MemBytes = shared + (1 << 22)
	cl := cluster.New(cfg)
	conns := cl.FullMesh()
	return New(cl, conns, Config{SharedBytes: shared})
}

// spawnAll runs fn on every node as that node's application process and
// drives the simulation until all return. It fails the test if any node
// does not finish.
func spawnAll(t *testing.T, sys *System, horizon sim.Time, fn func(p *sim.Proc, in *Instance)) {
	t.Helper()
	done := 0
	for _, in := range sys.Insts {
		in := in
		sys.Cl.Env.Go(fmt.Sprintf("app-%d", in.Node()), func(p *sim.Proc) {
			fn(p, in)
			done++
		})
	}
	sys.Cl.Env.RunUntil(horizon)
	if done != len(sys.Insts) {
		t.Fatalf("only %d/%d nodes finished", done, len(sys.Insts))
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	sys := build(t, 4, "1g", 1<<20)
	var after [4]sim.Time
	spawnAll(t, sys, 10*sim.Second, func(p *sim.Proc, in *Instance) {
		p.Sleep(sim.Time(in.Node()) * sim.Millisecond) // stagger arrivals
		in.Barrier(p)
		after[in.Node()] = in.Env().Now()
	})
	// Everybody leaves the barrier after the last arrival (3 ms).
	for i, at := range after {
		if at < 3*sim.Millisecond {
			t.Errorf("node %d left barrier at %v, before last arrival", i, at)
		}
	}
}

func TestBarrierRepeats(t *testing.T) {
	sys := build(t, 3, "1g", 1<<20)
	counts := make([]int, 3)
	spawnAll(t, sys, 20*sim.Second, func(p *sim.Proc, in *Instance) {
		for i := 0; i < 10; i++ {
			in.Barrier(p)
			counts[in.Node()]++
		}
	})
	for i, c := range counts {
		if c != 10 {
			t.Errorf("node %d completed %d barriers", i, c)
		}
	}
}

func TestSharedWriteVisibleAfterBarrier(t *testing.T) {
	sys := build(t, 4, "1g", 1<<20)
	addr := sys.Alloc(4 * 8)
	spawnAll(t, sys, 10*sim.Second, func(p *sim.Proc, in *Instance) {
		me := in.Node()
		b := in.WSlice(p, addr+uint64(8*me), 8)
		SetF64(b, 0, float64(me)*1.5)
		in.Barrier(p)
		all := in.RSlice(p, addr, 4*8)
		for j := 0; j < 4; j++ {
			if got := F64(all, j); got != float64(j)*1.5 {
				t.Errorf("node %d sees slot %d = %v, want %v", me, j, got, float64(j)*1.5)
			}
		}
	})
}

func TestFalseSharingMerges(t *testing.T) {
	// All nodes write disjoint ranges of the SAME page; after the
	// barrier everyone must see the merged result (twin/diff semantics).
	sys := build(t, 4, "2lu", 1<<20)
	addr := sys.AllocPages(PageSize)
	const per = PageSize / 4
	spawnAll(t, sys, 10*sim.Second, func(p *sim.Proc, in *Instance) {
		me := in.Node()
		b := in.WSlice(p, addr+uint64(me*per), per)
		for i := range b {
			b[i] = byte(me + 1)
		}
		in.Barrier(p)
		full := in.RSlice(p, addr, PageSize)
		for j := 0; j < 4; j++ {
			for i := 0; i < per; i++ {
				if full[j*per+i] != byte(j+1) {
					t.Fatalf("node %d: byte %d of quarter %d = %d, want %d",
						me, i, j, full[j*per+i], j+1)
				}
			}
		}
	})
}

func TestLockMutualExclusion(t *testing.T) {
	// Classic counter increment under a lock: with mutual exclusion and
	// coherence the total is exact.
	sys := build(t, 4, "1g", 1<<20)
	addr := sys.AllocPages(8)
	const perNode = 25
	spawnAll(t, sys, 60*sim.Second, func(p *sim.Proc, in *Instance) {
		for i := 0; i < perNode; i++ {
			in.Acquire(p, 3)
			b := in.WSlice(p, addr, 8)
			SetU64(b, 0, U64(b, 0)+1)
			in.Release(p, 3)
		}
		in.Barrier(p)
		b := in.RSlice(p, addr, 8)
		if got := U64(b, 0); got != 4*perNode {
			t.Errorf("node %d: counter = %d, want %d", in.Node(), got, 4*perNode)
		}
	})
}

func TestLockMutualExclusionOverlapDetector(t *testing.T) {
	// Record critical-section intervals in shared memory and verify no
	// two overlap.
	sys := build(t, 3, "2lu", 1<<20)
	const iters = 10
	type iv struct{ in, out sim.Time }
	var ivs []iv
	spawnAll(t, sys, 60*sim.Second, func(p *sim.Proc, in *Instance) {
		for i := 0; i < iters; i++ {
			in.Acquire(p, 7)
			enter := in.Env().Now()
			in.Compute(p, 50*sim.Microsecond)
			ivs = append(ivs, iv{enter, in.Env().Now()})
			in.Release(p, 7)
		}
	})
	if len(ivs) != 3*iters {
		t.Fatalf("%d critical sections, want %d", len(ivs), 3*iters)
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			a, b := ivs[i], ivs[j]
			if a.in < b.out && b.in < a.out {
				t.Fatalf("critical sections overlap: [%v,%v] and [%v,%v]", a.in, a.out, b.in, b.out)
			}
		}
	}
}

func TestLockProtectedDataVisibility(t *testing.T) {
	// A chain of nodes each increments a value under the same lock; the
	// grant's write notices must invalidate stale copies so every node
	// sees the latest value.
	sys := build(t, 4, "2lu", 1<<20)
	addr := sys.AllocPages(16)
	rounds := 5
	spawnAll(t, sys, 120*sim.Second, func(p *sim.Proc, in *Instance) {
		for r := 0; r < rounds; r++ {
			for turn := 0; turn < in.N(); turn++ {
				in.Acquire(p, 0)
				b := in.WSlice(p, addr, 16)
				if turn == in.Node() {
					SetU64(b, 0, U64(b, 0)+uint64(in.Node())+1)
				}
				in.Release(p, 0)
			}
		}
		in.Barrier(p)
		b := in.RSlice(p, addr, 16)
		want := uint64(rounds * (1 + 2 + 3 + 4))
		if got := U64(b, 0); got != want {
			t.Errorf("node %d: value %d, want %d", in.Node(), got, want)
		}
	})
}

func TestReadMostlySharing(t *testing.T) {
	// Node 0 initializes a large region; all others read it after a
	// barrier. Fetches must happen; data must be exact.
	sys := build(t, 4, "1g", 1<<21)
	const n = 1 << 20
	addr := sys.AllocPages(n)
	spawnAll(t, sys, 30*sim.Second, func(p *sim.Proc, in *Instance) {
		if in.Node() == 0 {
			b := in.WSlice(p, addr, n)
			for i := 0; i < n; i += 97 {
				b[i] = byte(i * 13)
			}
		}
		in.Barrier(p)
		b := in.RSlice(p, addr, n)
		for i := 0; i < n; i += 97 {
			if b[i] != byte(i*13) {
				t.Fatalf("node %d: b[%d] = %d", in.Node(), i, b[i])
			}
		}
	})
	var st Stats
	for _, in := range sys.Insts {
		st.Add(in.Stats)
	}
	if st.Fetches == 0 {
		t.Error("no page fetches despite remote reads")
	}
	if st.DiffOps+st.DiffMsgs == 0 {
		t.Error("no diffs despite remote-homed writes")
	}
	if st.DiffMsgs == 0 {
		t.Error("fragmented pages (every 97th byte) did not use packed diff messages")
	}
}

func TestInvalidationAfterRemoteWrite(t *testing.T) {
	// Node 0 writes a value; barrier; node 1 reads it; node 0 writes a
	// NEW value; barrier; node 1 must see the new value (its cached
	// copy must have been invalidated by the write notice).
	sys := build(t, 2, "1g", 1<<20)
	addr := sys.AllocPages(8)
	spawnAll(t, sys, 30*sim.Second, func(p *sim.Proc, in *Instance) {
		if in.Node() == 0 {
			SetU64(in.WSlice(p, addr, 8), 0, 111)
		}
		in.Barrier(p)
		if got := U64(in.RSlice(p, addr, 8), 0); got != 111 {
			t.Errorf("node %d: first read = %d", in.Node(), got)
		}
		in.Barrier(p)
		if in.Node() == 0 {
			SetU64(in.WSlice(p, addr, 8), 0, 222)
		}
		in.Barrier(p)
		if got := U64(in.RSlice(p, addr, 8), 0); got != 222 {
			t.Errorf("node %d: second read = %d, stale copy not invalidated", in.Node(), got)
		}
	})
	if sys.Insts[1].Stats.Invalidations == 0 {
		t.Error("node 1 recorded no invalidations")
	}
}

func TestBreakdownAccounting(t *testing.T) {
	sys := build(t, 2, "1g", 1<<20)
	addr := sys.AllocPages(PageSize)
	spawnAll(t, sys, 30*sim.Second, func(p *sim.Proc, in *Instance) {
		in.Compute(p, 2*sim.Millisecond)
		if in.Node() == 0 {
			b := in.WSlice(p, addr, PageSize)
			b[0] = 1
		}
		in.Barrier(p)
		in.RSlice(p, addr, PageSize)
		in.Barrier(p)
	})
	for i, in := range sys.Insts {
		if in.B.Compute != 2*sim.Millisecond {
			t.Errorf("node %d compute = %v", i, in.B.Compute)
		}
		if in.B.Barrier <= 0 {
			t.Errorf("node %d barrier time = %v", i, in.B.Barrier)
		}
	}
	// Node 1 reads a page homed at... page homed at node pg%2; ensure
	// at least one node recorded data wait.
	if sys.Insts[0].B.Data+sys.Insts[1].B.Data <= 0 {
		t.Error("no data wait recorded")
	}
}

func TestDiffRuns(t *testing.T) {
	twin := make([]byte, 256)
	cur := append([]byte(nil), twin...)
	if runs := diffRuns(twin, cur); len(runs) != 0 {
		t.Fatalf("identical pages produced runs: %v", runs)
	}
	cur[10] = 1
	cur[11] = 2
	cur[200] = 3
	runs := diffRuns(twin, cur)
	if len(runs) != 2 {
		t.Fatalf("runs = %v, want 2", runs)
	}
	if runs[0].off != 10 || runs[0].n != 2 || runs[1].off != 200 || runs[1].n != 1 {
		t.Fatalf("runs = %v", runs)
	}
	// Runs never include unmodified bytes: a merged run would overwrite
	// another node's concurrent writes in the gap with stale data.
	cur2 := append([]byte(nil), twin...)
	cur2[0] = 1
	cur2[50] = 1
	runs = diffRuns(twin, cur2)
	if len(runs) != 2 || runs[0].n != 1 || runs[1].off != 50 || runs[1].n != 1 {
		t.Fatalf("runs include unmodified gap bytes: %v", runs)
	}
	// Adjacent modified bytes form one run.
	cur3 := append([]byte(nil), twin...)
	for i := 30; i < 38; i++ {
		cur3[i] = 9
	}
	if runs = diffRuns(twin, cur3); len(runs) != 1 || runs[0].off != 30 || runs[0].n != 8 {
		t.Fatalf("contiguous run split or wrong: %v", runs)
	}
}

func TestTypedAccessors(t *testing.T) {
	b := make([]byte, 64)
	SetF64(b, 2, 3.25)
	if F64(b, 2) != 3.25 {
		t.Error("F64 round trip failed")
	}
	SetU32(b, 1, 0xdeadbeef)
	if U32(b, 1) != 0xdeadbeef {
		t.Error("U32 round trip failed")
	}
	SetU64(b, 4, 1<<40)
	if U64(b, 4) != 1<<40 {
		t.Error("U64 round trip failed")
	}
}

func TestAllocPagesSeparation(t *testing.T) {
	sys := build(t, 2, "1g", 1<<20)
	a := sys.AllocPages(10)
	b := sys.AllocPages(10)
	if a/PageSize == b/PageSize {
		t.Error("AllocPages allocations share a page")
	}
	if a%64 != 0 {
		t.Error("allocation not aligned")
	}
}

func TestDSMOverLossyMultiLink(t *testing.T) {
	// The full stack under adversity: two unordered links with loss.
	cfg := cluster.TwoLinkUnordered1G(3)
	cfg.Link.LossProb = 0.01
	cfg.Seed = 77
	cfg.Core.MemBytes = 1<<20 + 1<<22
	cl := cluster.New(cfg)
	sys := New(cl, cl.FullMesh(), Config{SharedBytes: 1 << 20})
	addr := sys.AllocPages(3 * PageSize)
	done := 0
	for _, in := range sys.Insts {
		in := in
		cl.Env.Go(fmt.Sprintf("app%d", in.Node()), func(p *sim.Proc) {
			for r := 0; r < 5; r++ {
				b := in.WSlice(p, addr+uint64(in.Node()*PageSize), PageSize)
				for i := range b {
					b[i] = byte(r + in.Node())
				}
				in.Barrier(p)
				for j := 0; j < 3; j++ {
					rb := in.RSlice(p, addr+uint64(j*PageSize), PageSize)
					if rb[100] != byte(r+j) {
						t.Errorf("node %d round %d: page %d = %d, want %d",
							in.Node(), r, j, rb[100], r+j)
					}
				}
				in.Barrier(p)
			}
			done++
		})
	}
	cl.Env.RunUntil(120 * sim.Second)
	if done != 3 {
		t.Fatalf("only %d/3 nodes finished under loss", done)
	}
}

func TestManyLocksManyNodes(t *testing.T) {
	// Several locks with different homes, contended by all nodes.
	sys := build(t, 5, "1g", 1<<20)
	addrs := make([]uint64, 7)
	for i := range addrs {
		addrs[i] = sys.AllocPages(8)
	}
	spawnAll(t, sys, 120*sim.Second, func(p *sim.Proc, in *Instance) {
		for i := 0; i < 20; i++ {
			l := (i*3 + in.Node()) % 7
			in.Acquire(p, l)
			b := in.WSlice(p, addrs[l], 8)
			SetU64(b, 0, U64(b, 0)+1)
			in.Release(p, l)
		}
		in.Barrier(p)
	})
	// Each lock's counter must equal the number of increments under it.
	want := make([]uint64, 7)
	for node := 0; node < 5; node++ {
		for i := 0; i < 20; i++ {
			want[(i*3+node)%7]++
		}
	}
	in0 := sys.Insts[0]
	sys.Cl.Env.Go("check", func(p *sim.Proc) {
		for l := range addrs {
			b := in0.RSlice(p, addrs[l], 8)
			if got := U64(b, 0); got != want[l] {
				t.Errorf("lock %d counter = %d, want %d", l, got, want[l])
			}
		}
	})
	sys.Cl.Env.RunUntil(130 * sim.Second)
}

// TestPropertyRandomProgram generates random barrier-synchronized
// programs — each epoch every node writes a deterministic pseudo-random
// slice of its own region, and after the barrier every node reads
// random ranges of the whole block — and checks every read against a
// precomputed sequential memory model. This is the DSM's end-to-end
// coherence checker.
func TestPropertyRandomProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short")
	}
	f := func(seed int64, twoLinks, lossy bool) bool {
		const (
			nodes     = 4
			epochs    = 5
			regionPer = 2 * PageSize
		)
		shared := nodes * regionPer
		var cfg cluster.Config
		if twoLinks {
			cfg = cluster.TwoLinkUnordered1G(nodes)
		} else {
			cfg = cluster.OneLink1G(nodes)
		}
		if lossy {
			cfg.Link.LossProb = 0.008
		}
		cfg.Seed = seed
		cfg.Core.MemBytes = shared + (8 << 20)
		cl := cluster.New(cfg)
		sys := New(cl, cl.FullMesh(), Config{SharedBytes: shared})
		base := sys.AllocPages(shared - PageSize)
		blk := shared - PageSize

		// Deterministic write schedule and per-epoch reference
		// snapshots.
		type wr struct{ off, n, val int }
		sched := make([][]wr, epochs)
		snap := make([][]byte, epochs)
		ref := make([]byte, blk)
		rng := rand.New(rand.NewSource(seed))
		for e := 0; e < epochs; e++ {
			for k := 0; k < nodes; k++ {
				lo := k * regionPer
				if lo >= blk {
					continue
				}
				hi := lo + regionPer
				if hi > blk {
					hi = blk
				}
				n := 32 + rng.Intn((hi-lo)/2)
				off := lo + rng.Intn(hi-lo-n)
				w := wr{off: off, n: n, val: rng.Intn(256)}
				sched[e] = append(sched[e], w)
				for i := 0; i < w.n; i++ {
					ref[w.off+i] = byte(w.val + i)
				}
			}
			snap[e] = append([]byte(nil), ref...)
		}
		// Per-node read plans (deterministic).
		reads := make([][][2]int, nodes)
		for k := 0; k < nodes; k++ {
			for e := 0; e < epochs; e++ {
				for r := 0; r < 3; r++ {
					n := 16 + rng.Intn(3000)
					off := rng.Intn(blk - n)
					reads[k] = append(reads[k], [2]int{off, n})
				}
			}
		}

		ok := true
		done := 0
		for _, in := range sys.Insts {
			in := in
			cl.Env.Go(fmt.Sprintf("prog%d", in.Node()), func(p *sim.Proc) {
				k := in.Node()
				for e := 0; e < epochs; e++ {
					w := sched[e][k]
					b := in.WSlice(p, base+uint64(w.off), w.n)
					for i := range b {
						b[i] = byte(w.val + i)
					}
					in.Barrier(p)
					for r := 0; r < 3; r++ {
						plan := reads[k][e*3+r]
						got := in.RSlice(p, base+uint64(plan[0]), plan[1])
						want := snap[e][plan[0] : plan[0]+plan[1]]
						for i := range got {
							if got[i] != want[i] {
								ok = false
							}
						}
					}
					in.Barrier(p)
				}
				done++
			})
		}
		cl.Env.RunUntil(600 * sim.Second)
		if done != nodes {
			t.Logf("seed %d: %d/%d nodes finished", seed, done, nodes)
			return false
		}
		if !ok {
			t.Logf("seed %d twoLinks=%v lossy=%v: read mismatch", seed, twoLinks, lossy)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestAllocAtAndHomeOf(t *testing.T) {
	sys := build(t, 4, "1g", 1<<20)
	a := sys.AllocAt(3*PageSize, 2)
	for off := uint64(0); off < 3*PageSize; off += PageSize {
		if sys.HomeOf(a+off) != 2 {
			t.Fatalf("page at +%d homed at %d, want 2", off, sys.HomeOf(a+off))
		}
	}
	b := sys.AllocOwned(8 * PageSize)
	if sys.HomeOf(b) != 0 || sys.HomeOf(b+7*PageSize) != 3 {
		t.Errorf("AllocOwned homes: first %d last %d", sys.HomeOf(b), sys.HomeOf(b+7*PageSize))
	}
}

func TestWriteReadSharedRoundTrip(t *testing.T) {
	sys := build(t, 3, "1g", 1<<20)
	addr := sys.AllocPages(3 * PageSize)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 31)
	}
	sys.WriteShared(addr+5, data[:len(data)-10]) // unaligned range
	got := sys.ReadShared(addr+5, len(data)-10)
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestPrefetchBringsPagesIn(t *testing.T) {
	sys := build(t, 2, "1g", 1<<20)
	addr := sys.AllocAt(8*PageSize, 1)
	in0 := sys.Insts[0]
	spawnAll(t, sys, 10*sim.Second, func(p *sim.Proc, in *Instance) {
		if in.Node() != 0 {
			return
		}
		in.Prefetch(p, []Range{{Addr: addr, Len: 4 * PageSize}, {Addr: addr + 6*PageSize, Len: PageSize}})
	})
	if in0.Stats.Fetches != 5 {
		t.Errorf("prefetch fetched %d pages, want 5", in0.Stats.Fetches)
	}
	// Subsequent reads of those pages are free.
	before := in0.Stats.Fetches
	spawnAll(t, sys, 20*sim.Second, func(p *sim.Proc, in *Instance) {
		if in.Node() != 0 {
			return
		}
		in.RSlice(p, addr, 4*PageSize)
	})
	if in0.Stats.Fetches != before {
		t.Error("RSlice re-fetched prefetched pages")
	}
}
