package main

import (
	"fmt"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// sizing selects the operation counts of a rep. The full counts are fixed,
// so that two commits do the same work; quick counts exist for the tests.
type sizing struct {
	quick bool
}

// pick returns full, or quick under -quick.
func (sz sizing) pick(full, quick int) int {
	if sz.quick {
		return quick
	}
	return full
}

// workload is one set of inputs: a cluster, a profile and a set of closed
// loops. BENCHMARK.json and README.md say why each exists.
type workload struct {
	name string
	// ops is the number of operations one rep attempts.
	ops func(sz sizing) int
	// config returns the cluster to build and the gates that are gone.
	config func(sz sizing) (cfg cluster.Config, missing []string)
	// prepare allocates and fills the buffers and registers the loops. The
	// function it returns spawns the processes that establish the conns.
	prepare func(r *rep) (connect func())
}

var workloads = []*workload{streamWorkload, smallmixWorkload, faninWorkload, meshWorkload}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// slots is a run of equal buffers in one endpoint's memory.
type slots struct {
	ep      *core.Endpoint
	base    uint64
	n, size int
}

func allocSlots(ep *core.Endpoint, n, size int) slots {
	return slots{ep: ep, base: ep.Alloc(n * size), n: n, size: size}
}

func (s slots) addr(i int) uint64 { return s.base + uint64(i*s.size) }

func (s slots) bytes(i int) []byte {
	a := s.addr(i)
	return s.ep.Mem()[a : a+uint64(s.size)]
}

// fill gives slot i the pattern of key mix(k+i).
func (s slots) fill(k uint64) {
	for i := range s.n {
		fill(s.bytes(i), mix(k+uint64(i)))
	}
}

// lastOp is the last of n operations that used slot s of nslots in
// rotation, -1 if none did.
func lastOp(n, nslots, s int) int {
	if s >= n {
		return -1
	}
	return s + (n-1-s)/nslots*nslots
}

// verifyWrites checks the destination of n rotating writes: slot s must
// hold the source pattern of slot s, stamped by the last write into it.
func verifyWrites(dst slots, k uint64, n int) (bad int) {
	for s := range dst.n {
		if last := lastOp(n, dst.n, s); last >= 0 && !matches(dst.bytes(s), mix(k+uint64(s)), uint64(last)+1) {
			bad++
		}
	}
	return bad
}

// verifyReads checks the destination of n rotating reads. Local and remote
// slot counts are coprime, so what a local slot must hold depends on which
// read came last: a read that never landed leaves the wrong pattern behind.
func verifyReads(local slots, remoteSlots int, k uint64, n int) (bad int) {
	for l := range local.n {
		if last := lastOp(n, local.n, l); last >= 0 && !matches(local.bytes(l), mix(k+uint64(last%remoteSlots)), 0) {
			bad++
		}
	}
	return bad
}

// write issues write i of a rotation and blocks until it completes.
func (c *client) write(p *sim.Proc, conn *core.Conn, src, dst slots, i int, flags frame.OpFlags) {
	s := i % src.n
	stamp(src.bytes(s), uint64(i)+1)
	c.begin(0, kWrite)
	h, err := conn.Do(p, core.Op{Remote: dst.addr(s), Local: src.addr(s), Size: src.size, Kind: frame.OpWrite, Flags: flags})
	c.issued(0)
	if err == nil {
		h.Wait(p)
		err = h.Err()
	}
	c.done(0, src.size, err)
}

// read issues read i of a rotation and blocks until the data has landed.
func (c *client) read(p *sim.Proc, conn *core.Conn, local, remote slots, i int) {
	c.begin(0, kRead)
	h, err := conn.Do(p, core.Op{Remote: remote.addr(i % remote.n), Local: local.addr(i % local.n), Size: local.size, Kind: frame.OpRead})
	c.issued(0)
	if err == nil {
		h.Wait(p)
		err = h.Err()
	}
	c.done(0, local.size, err)
}

// batch posts writes first..first+n-1 of a rotation, rings the doorbell
// once and drains the completion queue. The last write solicits its ack.
func (c *client) batch(p *sim.Proc, conn *core.Conn, src, dst slots, first, n int) {
	c.begin(0, kSQ)
	posted := 0
	for k := range n {
		s := (first + k) % src.n
		stamp(src.bytes(s), uint64(first+k)+1)
		op := core.Op{Remote: dst.addr(s), Local: src.addr(s), Size: src.size, Kind: frame.OpWrite}
		if k == n-1 {
			op.Flags = frame.Solicit
		}
		if err := conn.Post(op); err != nil {
			c.errs++
			continue
		}
		posted++
	}
	_, err := conn.Ring(p)
	c.issued(0)
	for range posted {
		if err != nil {
			c.done(0, 0, err)
			continue
		}
		c.done(0, src.size, conn.WaitCQ(p).Err)
	}
}

// ---------------------------------------------------------------------
// stream: two nodes, two rails, one conn driven from both ends.

const (
	streamSize  = 256 << 10
	streamDepth = 8
)

var streamWorkload = &workload{
	name: "stream",
	ops:  func(sz sizing) int { return 2 * sz.pick(2000, 48) },
	config: func(sz sizing) (cluster.Config, []string) {
		cfg := cluster.TwoLinkUnordered1G(2)
		return cfg, applyProfile(&cfg, paperProfile)
	},
	prepare: func(r *rep) func() {
		n := r.w.ops(r.sz) / 2
		var conn [2]*core.Conn
		for i := range 2 {
			src := allocSlots(r.cl.Nodes[i].EP, streamDepth, streamSize)
			dst := allocSlots(r.cl.Nodes[1-i].EP, streamDepth, streamSize)
			k := key(r.seed, r.idx, i)
			src.fill(k)
			c := r.addClient([nKinds]int{kWrite: n}, n, func(p *sim.Proc, c *client) {
				streamLoop(p, c, conn[i], src, dst, n)
			})
			c.verify = func() int { return verifyWrites(dst, k, n) }
			c.region = dst.bytes(0)
		}
		return func() {
			r.env.Go("dial", func(p *sim.Proc) { conn[0] = r.dial(p, 0, 1) })
			r.env.Go("accept", func(p *sim.Proc) { conn[1] = r.cl.Nodes[1].EP.Accept(p) })
		}
	},
}

// streamLoop keeps one write per source slot outstanding.
func streamLoop(p *sim.Proc, c *client, conn *core.Conn, src, dst slots, n int) {
	var hs [maxSlots]*core.Handle
	wait := func(s int) {
		if h := hs[s]; h != nil {
			h.Wait(p)
			c.done(s, src.size, h.Err())
			hs[s] = nil
		}
	}
	for i := range n {
		s := i % src.n
		wait(s)
		stamp(src.bytes(s), uint64(i)+1)
		c.begin(s, kWrite)
		h, err := conn.Do(p, core.Op{Remote: dst.addr(s), Local: src.addr(s), Size: src.size, Kind: frame.OpWrite})
		c.issued(s)
		if err != nil {
			c.done(s, 0, err)
			continue
		}
		hs[s] = h
	}
	for k := range src.n {
		wait((n + k) % src.n)
	}
}

// ---------------------------------------------------------------------
// smallmix: two nodes on 10 GbE, four conns, four ways of using core.

const (
	smallSize  = 64
	smallBatch = 32
)

// smallCounts are the operations per loop, tuned so that the four loops end
// within 10 % of each other in virtual time (see README.md, sizing).
func smallCounts(sz sizing) (w, rd, sq, nt int) {
	n := sz.pick(60000, 300)
	return n, n, n * smallBatch, n
}

var smallmixWorkload = &workload{
	name: "smallmix",
	ops: func(sz sizing) int {
		w, rd, sq, nt := smallCounts(sz)
		return w + rd + sq + nt
	},
	config: func(sz sizing) (cluster.Config, []string) {
		cfg := cluster.OneLink10G(2)
		return cfg, applyProfile(&cfg, smallmixProfile)
	},
	prepare: func(r *rep) func() {
		nW, nR, nS, nN := smallCounts(r.sz)
		ep0, ep1 := r.cl.Nodes[0].EP, r.cl.Nodes[1].EP
		var conn, acc [4]*core.Conn // dialed from node 0 in this order: W, R, S, N
		loopKey := func(loop int) uint64 { return key(r.seed, r.idx, loop) }

		wSrc, wDst := allocSlots(ep0, 4, smallSize), allocSlots(ep1, 4, smallSize)
		wSrc.fill(loopKey(0))
		c := r.addClient([nKinds]int{kWrite: nW}, nW, func(p *sim.Proc, c *client) {
			for i := range nW {
				c.write(p, conn[0], wSrc, wDst, i, frame.Solicit)
			}
		})
		c.verify = func() int { return verifyWrites(wDst, loopKey(0), nW) }
		c.region = wDst.bytes(0)

		rLocal, rRemote := allocSlots(ep0, 4, smallSize), allocSlots(ep1, 5, smallSize)
		rRemote.fill(loopKey(1))
		c = r.addClient([nKinds]int{kRead: nR}, nR, func(p *sim.Proc, c *client) {
			for i := range nR {
				c.read(p, conn[1], rLocal, rRemote, i)
			}
		})
		c.verify = func() int { return verifyReads(rLocal, rRemote.n, loopKey(1), nR) }
		c.region = rLocal.bytes(0)

		sSrc, sDst := allocSlots(ep0, smallBatch, smallSize), allocSlots(ep1, smallBatch, smallSize)
		sSrc.fill(loopKey(2))
		c = r.addClient([nKinds]int{kSQ: nS}, (nS+smallBatch-1)/smallBatch, func(p *sim.Proc, c *client) {
			for first := 0; first < nS; first += smallBatch {
				c.batch(p, conn[2], sSrc, sDst, first, min(smallBatch, nS-first))
			}
		})
		c.verify = func() int { return verifyWrites(sDst, loopKey(2), nS) }
		c.region = sDst.bytes(0)

		// Notify ping-pong: node 0 writes a ping with Notify, node 1 answers
		// with a pong the same way. One round trip is one operation.
		ping, pingDst := allocSlots(ep0, 1, smallSize), allocSlots(ep1, 1, smallSize)
		pong, pongDst := allocSlots(ep1, 1, smallSize), allocSlots(ep0, 1, smallSize)
		ping.fill(loopKey(3))
		pong.fill(loopKey(4))
		c = r.addClient([nKinds]int{kNotify: nN}, nN, func(p *sim.Proc, c *client) {
			for i := range nN {
				stamp(ping.bytes(0), uint64(i)+1)
				c.begin(0, kNotify)
				h, err := conn[3].Do(p, core.Op{Remote: pingDst.addr(0), Local: ping.addr(0), Size: smallSize, Kind: frame.OpWrite, Flags: frame.Notify})
				c.issued(0)
				if err == nil {
					if conn[3].WaitNotify(p).Len < 0 {
						err = conn[3].Err()
					} else {
						h.Wait(p)
						err = h.Err()
					}
				}
				c.done(0, 2*smallSize, err)
			}
		})
		c.verify = func() int {
			return verifyWrites(pingDst, loopKey(3), nN) + verifyWrites(pongDst, loopKey(4), nN)
		}
		c.region = pongDst.bytes(0)
		r.background = append(r.background, func(p *sim.Proc) {
			var prev *core.Handle
			for i := range nN {
				if acc[3].WaitNotify(p).Len < 0 {
					return
				}
				if prev != nil {
					prev.Wait(p)
				}
				stamp(pong.bytes(0), uint64(i)+1)
				prev, _ = acc[3].Do(p, core.Op{Remote: pongDst.addr(0), Local: pong.addr(0), Size: smallSize, Kind: frame.OpWrite, Flags: frame.Notify})
			}
			if prev != nil {
				prev.Wait(p)
			}
		})

		return func() {
			// Dials are sequential, so node 1 accepts in the same order.
			r.env.Go("dial", func(p *sim.Proc) {
				for i := range conn {
					conn[i] = r.dial(p, 0, 1)
				}
			})
			r.env.Go("accept", func(p *sim.Proc) {
				for i := range acc {
					acc[i] = ep1.Accept(p)
				}
			})
		}
	},
}

// ---------------------------------------------------------------------
// fanin: 512 conns from 64 client nodes converge on node 0.

const (
	faninSize  = 256
	faninSlots = 8
	faninBatch = 8
)

// faninShape is conns, client nodes and operations per conn.
func faninShape(sz sizing) (conns, nodes, opsPerConn int) {
	if sz.quick {
		return 96, 16, 24
	}
	return 512, 64, 448
}

// thinker hands out n think times, independent and uniform over 1-3 ms, then
// scaled by a factor within a few percent of 1 so that they add up to the
// same total in every loop. With unscaled draws the window ends when the
// unluckiest of 512 loops does and its length, and with it ops_per_vs, varies
// by several percent from seed to seed.
type thinker struct {
	r     rng
	scale float64
}

const thinkLo, thinkHi = int64(sim.Millisecond), int64(3 * sim.Millisecond)

func newThinker(k uint64, n int) *thinker {
	r, sum := newRNG(k), int64(0)
	for range n {
		sum += r.between(thinkLo, thinkHi)
	}
	return &thinker{r: newRNG(k), scale: float64(n) * float64(thinkLo+thinkHi) / 2 / float64(sum)}
}

func (t *thinker) next() sim.Time {
	return sim.Time(t.scale * float64(t.r.between(thinkLo, thinkHi)))
}

var faninWorkload = &workload{
	name: "fanin",
	ops: func(sz sizing) int {
		conns, _, per := faninShape(sz)
		return conns * per
	},
	config: func(sz sizing) (cluster.Config, []string) {
		conns, nodes, _ := faninShape(sz)
		cfg := cluster.OneLink1G(1 + nodes)
		// The default 16 MiB address space times 65 nodes is real host
		// memory; size it to the working set.
		cfg.Core.MemBytes = conns*faninSlots*faninSize + 256<<10
		return cfg, applyProfile(&cfg, productionProfile)
	},
	prepare: func(r *rep) func() {
		conns, nodes, per := faninShape(r.sz)
		server := r.cl.Nodes[0].EP
		conn := make([]*core.Conn, conns)
		for j := range conns {
			node := 1 + j%nodes
			ep := r.cl.Nodes[node].EP
			k := key(r.seed, r.idx, j)
			pauses, opsPerPause := per, 1
			if j%3 == 2 {
				pauses, opsPerPause = (per+faninBatch-1)/faninBatch, faninBatch
			}
			think := newThinker(mix(k), pauses)
			// Loops start up to one mean pause apart. Without that, loops of one
			// kind are in step when their equal totals run out: the 171 batch
			// loops rang their last doorbell within 2 ms of each other, and the
			// switch dropped 2 000 frames in a window that has no drop otherwise.
			first := newRNG(mix(k + 1))
			offset := sim.Time(first.between(0, int64(opsPerPause)*(thinkLo+thinkHi)/2))
			pause := func(p *sim.Proc, ops int) {
				p.Sleep(offset + sim.Time(ops)*think.next())
				offset = 0
			}
			var c *client
			switch j % 3 {
			case 0: // eager write, solicited ack
				src, dst := allocSlots(ep, faninSlots, faninSize), allocSlots(server, faninSlots, faninSize)
				src.fill(k)
				c = r.addClient([nKinds]int{kWrite: per}, per, func(p *sim.Proc, c *client) {
					for i := range per {
						pause(p, 1)
						c.write(p, conn[j], src, dst, i, frame.Solicit)
					}
				})
				c.verify = func() int { return verifyWrites(dst, k, per) }
				c.region = dst.bytes(0)
			case 1: // eager read
				local, remote := allocSlots(ep, faninSlots-1, faninSize), allocSlots(server, faninSlots, faninSize)
				remote.fill(k)
				c = r.addClient([nKinds]int{kRead: per}, per, func(p *sim.Proc, c *client) {
					for i := range per {
						pause(p, 1)
						c.read(p, conn[j], local, remote, i)
					}
				})
				c.verify = func() int { return verifyReads(local, remote.n, k, per) }
				c.region = local.bytes(0)
			default: // submission-queue batch
				src, dst := allocSlots(ep, faninBatch, faninSize), allocSlots(server, faninBatch, faninSize)
				src.fill(k)
				c = r.addClient([nKinds]int{kSQ: per}, (per+faninBatch-1)/faninBatch, func(p *sim.Proc, c *client) {
					for first := 0; first < per; first += faninBatch {
						n := min(faninBatch, per-first)
						pause(p, n)
						c.batch(p, conn[j], src, dst, first, n)
					}
				})
				c.verify = func() int { return verifyWrites(dst, k, per) }
				c.region = dst.bytes(0)
			}
		}
		return func() {
			// The dial storm: every client dials at once; the server's
			// ends stay in its accept queue, as a passive server's do.
			for j := range conns {
				r.env.Go(fmt.Sprintf("dial%d", j), func(p *sim.Proc) { conn[j] = r.dial(p, 1+j%nodes, 0) })
			}
		}
	},
}

// ---------------------------------------------------------------------
// mesh-lossy: eight nodes, two rails, 1 % loss, a conn per pair driven from
// both ends.

const (
	meshNodes     = 8
	meshReadSize  = 4 << 10
	meshWriteSize = 16 << 10
)

var meshWorkload = &workload{
	name: "mesh-lossy",
	ops:  func(sz sizing) int { return meshNodes * (meshNodes - 1) * 2 * sz.pick(650, 12) },
	config: func(sz sizing) (cluster.Config, []string) {
		cfg := cluster.TwoLinkUnordered1G(meshNodes)
		cfg.Link.LossProb = 0.01
		return cfg, applyProfile(&cfg, paperProfile)
	},
	prepare: func(r *rep) func() {
		iters := r.w.ops(r.sz) / (meshNodes * (meshNodes - 1) * 2)
		var conn [meshNodes][meshNodes]*core.Conn
		for i := range meshNodes {
			for j := range meshNodes {
				if i == j {
					continue
				}
				epI, epJ := r.cl.Nodes[i].EP, r.cl.Nodes[j].EP
				k := key(r.seed, r.idx, i*meshNodes+j)
				rLocal, rRemote := allocSlots(epI, 3, meshReadSize), allocSlots(epJ, 4, meshReadSize)
				wSrc, wDst := allocSlots(epI, 2, meshWriteSize), allocSlots(epJ, 2, meshWriteSize)
				rRemote.fill(k)
				wSrc.fill(mix(k))
				c := r.addClient([nKinds]int{kRead: iters, kWrite: iters}, 2*iters, func(p *sim.Proc, c *client) {
					for it := range iters {
						c.read(p, conn[i][j], rLocal, rRemote, it)
						flags := frame.Solicit
						if it%4 == 3 {
							flags |= frame.FenceBefore
						}
						c.write(p, conn[i][j], wSrc, wDst, it, flags)
					}
				})
				c.verify = func() int {
					return verifyReads(rLocal, rRemote.n, k, iters) + verifyWrites(wDst, mix(k), iters)
				}
				c.region = wDst.bytes(0)
			}
		}
		return func() {
			// As cluster.FullMesh, with every dial timed: node i dials the
			// nodes above it and accepts from the nodes below.
			for i := range meshNodes {
				r.env.Go(fmt.Sprintf("dial%d", i), func(p *sim.Proc) {
					for j := i + 1; j < meshNodes; j++ {
						conn[i][j] = r.dial(p, i, j)
					}
				})
				r.env.Go(fmt.Sprintf("accept%d", i), func(p *sim.Proc) {
					for range i {
						c := r.cl.Nodes[i].EP.Accept(p)
						conn[i][c.RemoteNode()] = c
					}
				})
			}
		}
	},
}
