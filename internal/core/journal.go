package core

import (
	"fmt"
	"sort"

	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// Replay-onto-new-conn hooks (ISSUE 7): the supervised-reconnect layer
// (reconnect.go) replays a parked connection's journal onto the SAME
// peer after a rebirth. A service layer balancing over replicas needs
// the other half of that story — when a backend is condemned for good,
// the incomplete operations must move to a DIFFERENT connection. Two
// primitives compose to make that safe:
//
//   - Journal() snapshots the descriptors of every incomplete user
//     operation, in issue order, so a caller can re-issue them on a
//     healthy replica. Write payloads are re-read from local memory at
//     re-issue time, exactly like reconnect.go's own replay.
//   - Abandon() terminally fails the connection. The condemned epoch can
//     never be reborn, so its journal can never replay here — the moved
//     operations apply exactly once, at the new connection only.
//
// Snapshot-then-abandon is the intended order: Journal() first (the
// failure machinery clears the queues), then Abandon(), then re-issue.

// Journal returns the descriptors of every incomplete user operation on
// the connection — queued, in the transmission window, or (for reads)
// awaiting a reply — deduplicated and sorted by issue order. Internal
// probe traffic is excluded; each sub-operation of a coalesced batch is
// reported individually. The returned ops are copies: mutating them
// does not affect the connection.
func (c *Conn) Journal() []Op {
	type rec struct {
		id uint64
		op Op
	}
	seen := make(map[uint64]bool)
	var recs []rec
	addTx := func(t *txOp) {
		if t == nil || t.completed || t.probe || seen[t.id] {
			return
		}
		seen[t.id] = true
		if t.subs != nil {
			for i := range t.subs {
				recs = append(recs, rec{id: t.subs[i].id, op: t.subs[i].op})
			}
			return
		}
		if t.h != nil {
			recs = append(recs, rec{id: t.id, op: t.h.op})
			return
		}
		recs = append(recs, rec{id: t.id, op: Op{
			Remote: t.remote, Local: t.local, Size: int(t.total),
			Kind: t.opType, Flags: t.flags,
		}})
	}
	for s := c.sndUna; s != c.sndNxt; s++ {
		if tf, ok := c.retrans.get(s); ok {
			addTx(tf.op)
		}
	}
	for _, t := range c.txOps {
		addTx(t)
	}
	if len(c.pendingReads) > 0 {
		ids := make([]uint64, 0, len(c.pendingReads))
		for id := range c.pendingReads {
			if !seen[id] {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			seen[id] = true
			recs = append(recs, rec{id: id, op: c.pendingReads[id].op})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	ops := make([]Op, len(recs))
	for i, r := range recs {
		ops[i] = r.op
	}
	return ops
}

// Abandon terminally fails the connection from the local side: every
// queued and in-flight operation completes with an error wrapping
// ErrPeerDead, a parked reconnect is cancelled for good (the condemned
// epoch can never be reborn, so nothing journaled here can ever replay
// and double-apply), and a Reset frame tells a still-live peer to tear
// its side down too. Abandoning a closed or already-failed connection
// is a no-op. Callers migrating work to another connection should
// snapshot Journal() first.
func (c *Conn) Abandon() {
	if c.closed {
		return
	}
	c.ep.Stats.Abandons++
	c.ep.emit(c.localID, obs.EvAbandon, int64(c.incarnation), int64(c.inflight()))
	c.failConn(fmt.Errorf("core: connection to node %d abandoned by caller: %w",
		c.remoteNode, ErrPeerDead), !c.reconnecting)
}

// ReplayOn re-issues every operation in journal on the destination
// connection dst, translating remote addresses by (dstBase - srcBase):
// an operation that addressed srcBase+off on the dead peer addresses
// dstBase+off on the new one. Write payloads are re-read from local
// memory, so the caller's buffers must still hold the data (they do for
// any operation whose handle has not completed — the issue-time
// snapshot was taken from the same addresses). It returns the handles
// in journal order; the caller waits on them (or not) as it pleases.
// Deadlines are NOT carried over — the journal entries already expired
// once; the caller sets fresh deadlines via the dl argument (0 = none).
func ReplayOn(p *sim.Proc, dst *Conn, journal []Op, srcBase, dstBase uint64, dl sim.Time) ([]*Handle, error) {
	hs := make([]*Handle, 0, len(journal))
	for _, op := range journal {
		op.Remote = op.Remote - srcBase + dstBase
		op.Deadline = dl
		h, err := dst.Do(p, op)
		if err != nil {
			return hs, err
		}
		hs = append(hs, h)
	}
	return hs, nil
}
