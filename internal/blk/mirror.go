package blk

import (
	"errors"
	"fmt"

	"multiedge/internal/core"
	"multiedge/internal/sim"
)

// Mirror is client-side RAID-1 over two volumes on different hosts:
// writes go to both legs concurrently (each with its own fenced,
// solicited commit), reads go to the preferred leg with a deadline and
// fail over to the other. MultiEdge never loses data, so the deadline
// is not about loss — it is how a client survives a whole *host* (or
// its last rail) becoming unreachable, which the transport can only
// express as an operation that never completes.
type Mirror struct {
	legs     [2]*Client
	down     [2]bool
	deadline sim.Time

	// Stats.
	Failovers uint64 // reads that timed out or failed on one leg and switched
	Rebuilt   uint64 // blocks copied by Rebuild
}

// errLegsDown is why a write that found both legs down committed nowhere.
var errLegsDown = errors.New("both legs down")

// DefaultMirrorDeadline is how long a read may stay unanswered before
// the mirror declares the leg down: several RTOs, so ordinary loss
// repair (one RTO) never trips it.
const DefaultMirrorDeadline = 10 * sim.Millisecond

// OpenMirror pairs two clients into a mirror. The legs must serve the
// same geometry.
func OpenMirror(a, b *Client) *Mirror {
	if a.v.Blocks != b.v.Blocks || a.v.BlockSize != b.v.BlockSize {
		panic("blk: mirror legs have different geometry")
	}
	if a.v.Host == b.v.Host {
		panic("blk: mirror legs on the same host protect nothing")
	}
	return &Mirror{legs: [2]*Client{a, b}, deadline: DefaultMirrorDeadline}
}

// SetDeadline overrides the failover deadline.
func (m *Mirror) SetDeadline(d sim.Time) { m.deadline = d }

// Down reports which legs are currently marked down.
func (m *Mirror) Down() (a, b bool) { return m.down[0], m.down[1] }

// Replace hands down leg i a fresh client, for a leg whose conn has
// ended (peer reset, Conn.Abandon): its old client can never answer
// Rebuild's probe again. The client must serve the same geometry from
// the same host. The leg stays down until Rebuild has copied the
// backlog onto it.
func (m *Mirror) Replace(i int, c *Client) {
	old := m.legs[i]
	if !m.down[i] {
		panic("blk: mirror leg replaced while it is up")
	}
	if c.v.Blocks != old.v.Blocks || c.v.BlockSize != old.v.BlockSize || c.v.Host != old.v.Host {
		panic("blk: mirror leg replaced by a client of another geometry or host")
	}
	m.legs[i] = c
}

// Write stores the block on every healthy leg, concurrently, and
// returns when all their commits are acknowledged. A leg whose block
// write or commit fails is marked down, and with a leg down writes
// degrade to the other (Rebuild copies the backlog later). Write
// returns an error when no leg committed the block.
func (m *Mirror) Write(p *sim.Proc, block int, data []byte) error {
	ep := m.legs[0].ep
	sp := ep.Obs().StartLayerSpan(ep.Node(), "blk", "mirror-commit", len(data))
	err := errLegsDown
	var hs [2]*core.Handle
	for i, leg := range m.legs {
		if m.down[i] {
			continue
		}
		commit, e := leg.stageWrite(p, block, data)
		if e == nil {
			hs[i], e = leg.c.Do(p, commit)
		}
		if e != nil {
			m.down[i], err = true, e
		}
	}
	committed := false
	for i, h := range hs {
		if h == nil {
			continue
		}
		if h.Wait(p); h.Err() != nil {
			m.down[i], err = true, h.Err()
		} else {
			committed = true
		}
	}
	sp.EndAt(ep.Env().Now())
	if !committed {
		return fmt.Errorf("blk: mirror write of block %d committed on no leg: %w", block, err)
	}
	return nil
}

// waitDeadline waits for h with a deadline; false means it timed out
// (the operation itself remains outstanding — MultiEdge has no
// cancellation, exactly like a posted RDMA op on real hardware).
func (m *Mirror) waitDeadline(p *sim.Proc, h *core.Handle) bool {
	limit := p.Env().Now() + m.deadline
	for !h.Test() {
		if p.Env().Now() >= limit {
			return false
		}
		p.Sleep(m.deadline / 64)
	}
	return true
}

// Read fetches the block from the preferred (lowest-index healthy)
// leg; if the read fails or outlives the deadline, the leg is marked
// down and the other leg serves it. Reading with both legs down panics.
func (m *Mirror) Read(p *sim.Proc, block int, buf []byte) {
	for i, leg := range m.legs {
		if m.down[i] {
			continue
		}
		if h, err := leg.ReadAsync(p, block); err == nil && m.waitDeadline(p, h) && h.Err() == nil {
			copy(buf, leg.Stage())
			leg.Stats.Reads++
			leg.Stats.BytesRead += uint64(leg.v.BlockSize)
			return
		}
		// The leg failed the read or is unreachable: the staging buffer
		// holds no block of this read, and a timed-out read still owns
		// it. Mark the leg down so nothing reuses it until Rebuild has
		// verified the leg answers again.
		m.down[i] = true
		m.Failovers++
	}
	panic(fmt.Sprintf("blk: mirror read of block %d with no healthy leg", block))
}

// Rebuild brings a recovered leg back: it first verifies the leg
// answers (a deadline read of block 0), then copies every block from
// the healthy leg and finally clears the down mark. Returns false if
// the leg still does not answer, or if either leg fails mid-copy.
func (m *Mirror) Rebuild(p *sim.Proc) bool {
	var from, to int
	switch {
	case m.down[0] && !m.down[1]:
		from, to = 1, 0
	case m.down[1] && !m.down[0]:
		from, to = 0, 1
	default:
		return !m.down[0] && !m.down[1] // nothing to do, or nothing to copy from
	}
	if probe, err := m.legs[to].ReadAsync(p, 0); err != nil || !m.waitDeadline(p, probe) || probe.Err() != nil {
		return false // still dead; keep serving degraded
	}
	buf := make([]byte, m.legs[from].v.BlockSize)
	for b := 0; b < m.legs[from].v.Blocks; b++ {
		if m.legs[from].Read(p, b, buf) != nil || m.legs[to].Write(p, b, buf) != nil {
			return false // the copy is incomplete: the leg stays down
		}
		m.Rebuilt++
	}
	m.down[to] = false
	return true
}
