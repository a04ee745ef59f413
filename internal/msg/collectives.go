package msg

import (
	"encoding/binary"
	"math"

	"multiedge/internal/sim"
)

// Collective operations over the point-to-point layer, using reserved
// negative tags so they never collide with application traffic. All of
// them are classic logarithmic algorithms; every rank must call the
// same collectives in the same order.
const (
	tagBarrier = -100 - iota*100 // one tag band per collective
	tagBcast
	tagReduce
	_ // Allreduce is Reduce then Bcast; the band stays reserved so the later tags keep theirs
	tagAlltoall
	tagGather
)

// Barrier blocks until every rank has entered it (dissemination
// algorithm: log2(n) rounds of pairwise token exchange).
func (c *Comm) Barrier(p *sim.Proc) {
	c.Stats.CollectiveOps++
	if c.n == 1 {
		return
	}
	for round, dist := 0, 1; dist < c.n; round, dist = round+1, dist*2 {
		to := (c.node + dist) % c.n
		from := (c.node - dist + c.n) % c.n
		c.Send(p, to, tagBarrier-round, nil)
		c.Recv(p, from, tagBarrier-round)
	}
}

// Bcast distributes root's data to every rank (binomial tree) and
// returns each rank's copy.
func (c *Comm) Bcast(p *sim.Proc, root int, data []byte) []byte {
	c.Stats.CollectiveOps++
	if c.n == 1 {
		return data
	}
	// Standard binomial tree in root-relative rank space: a rank
	// receives from vrank-lowbit(vrank), then relays to vrank+mask for
	// each mask below its lowest set bit, high to low.
	vrank := (c.node - root + c.n) % c.n
	mask := 1
	for mask < c.n {
		if vrank&mask != 0 {
			parent := ((vrank - mask) + root) % c.n
			data = c.Recv(p, parent, tagBcast)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := vrank + mask; child < c.n {
			c.Send(p, (child+root)%c.n, tagBcast, data)
		}
	}
	return data
}

// Reduce sums float64 vectors onto root (binomial tree); only root's
// return value is the full sum, other ranks return nil.
func (c *Comm) Reduce(p *sim.Proc, root int, vals []float64) []float64 {
	c.Stats.CollectiveOps++
	acc := append([]float64(nil), vals...)
	vrank := (c.node - root + c.n) % c.n
	for dist := 1; dist < c.n; dist *= 2 {
		if vrank&dist != 0 {
			// Send accumulator to the partner and exit the tree.
			to := ((vrank - dist) + root) % c.n
			c.Send(p, to, tagReduce, encodeF64s(acc))
			return nil
		}
		partner := vrank + dist
		if partner < c.n {
			in := decodeF64s(c.Recv(p, (partner+root)%c.n, tagReduce))
			for i := range acc {
				acc[i] += in[i]
			}
		}
	}
	return acc
}

// Allreduce sums float64 vectors across all ranks and returns the sum
// on every rank (reduce to 0, then broadcast).
func (c *Comm) Allreduce(p *sim.Proc, vals []float64) []float64 {
	sum := c.Reduce(p, 0, vals)
	var buf []byte
	if c.node == 0 {
		buf = encodeF64s(sum)
	}
	return decodeF64s(c.Bcast(p, 0, buf))
}

// Alltoall performs the personalized all-to-all exchange (every rank
// sends send[j] to rank j and receives from every rank) with a pairwise
// exchange schedule that avoids hot spots. send[c.Rank()] is returned
// in place.
func (c *Comm) Alltoall(p *sim.Proc, send [][]byte) [][]byte {
	c.Stats.CollectiveOps++
	if len(send) != c.n {
		panic("msg: Alltoall needs one buffer per rank")
	}
	recv := make([][]byte, c.n)
	recv[c.node] = send[c.node]
	if c.n&(c.n-1) == 0 {
		// Power of two: XOR pairwise exchange; the lower rank of each
		// pair sends first so the two sides never rendezvous-block on
		// each other.
		for step := 1; step < c.n; step++ {
			partner := c.node ^ step
			if c.node < partner {
				c.Send(p, partner, tagAlltoall-step, send[partner])
				recv[partner] = c.Recv(p, partner, tagAlltoall-step)
			} else {
				recv[partner] = c.Recv(p, partner, tagAlltoall-step)
				c.Send(p, partner, tagAlltoall-step, send[partner])
			}
		}
		return recv
	}
	// General sizes: ring schedule, overlapping each step's send with
	// its receive via a helper process.
	var pending []*sim.Signal
	for step := 1; step < c.n; step++ {
		to := (c.node + step) % c.n
		from := (c.node - step + c.n) % c.n
		pending = append(pending, c.isend(p, to, tagAlltoall-step, send[to]))
		recv[from] = c.Recv(p, from, tagAlltoall-step)
	}
	for _, s := range pending {
		p.Wait(s)
	}
	return recv
}

// Gather collects every rank's buffer at root; returns n buffers at
// root, nil elsewhere.
func (c *Comm) Gather(p *sim.Proc, root int, data []byte) [][]byte {
	c.Stats.CollectiveOps++
	if c.node != root {
		c.Send(p, root, tagGather, data)
		return nil
	}
	out := make([][]byte, c.n)
	out[root] = data
	for r := 0; r < c.n; r++ {
		if r == root {
			continue
		}
		out[r] = c.Recv(p, r, tagGather)
	}
	return out
}

// isend starts a send in a helper process (used by the ring fallback of
// Alltoall so send and receive overlap) and returns its completion
// signal.
func (c *Comm) isend(p *sim.Proc, to, tag int, data []byte) *sim.Signal {
	sig := &sim.Signal{}
	c.env.Go("msg-isend", func(p2 *sim.Proc) {
		c.Send(p2, to, tag, data)
		sig.Fire(c.env)
	})
	return sig
}

func encodeF64s(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func decodeF64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
