package core

import (
	"cmp"
	"fmt"
	"slices"

	"multiedge/internal/obs"
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
	var recs []rec
	c.outstanding(func(t *txOp) {
		switch {
		case t.probe:
		case len(t.subs) > 0:
			for _, s := range t.subs {
				recs = append(recs, rec{id: s.id, op: s.op})
			}
		default:
			recs = append(recs, rec{id: t.id, op: t.Op})
		}
	})
	slices.SortFunc(recs, func(a, b rec) int { return cmp.Compare(a.id, b.id) })
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
	if c.state >= Closing {
		return
	}
	c.ep.Stats.Abandons++
	c.ep.emit(c.localID, obs.EvAbandon, int64(c.incarnation), int64(c.inflight()))
	c.failConn(fmt.Errorf("core: connection to node %d abandoned by caller: %w",
		c.remoteNode, ErrPeerDead), true)
}
