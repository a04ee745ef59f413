package core

import (
	"fmt"

	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// Connection setup: the dial and accept handshakes, and the redial
// that negotiates a reconnect (reconnect.go) over the same frames.

// Dial establishes a connection to remoteNode, blocking the calling
// process until the handshake completes. The connection stripes frames
// over min(local NICs, links) physical links; links selects how many of
// the node's NICs to use (0 = all).
func (ep *Endpoint) Dial(p *sim.Proc, remoteNode int, links int) *Conn {
	if remoteNode == ep.node {
		panic("core: dial to self")
	}
	if links <= 0 || links > len(ep.nics) {
		links = len(ep.nics)
	}
	c := ep.newConn(remoteNode, links)
	ep.emit(c.localID, obs.EvDial, int64(links), int64(remoteNode))
	c.dialer = true // this side owns redialing under Config.Reconnect
	if ep.cfg.Reconnect {
		c.incarnation = 1 // first epoch; 0 means "incarnations unused"
	}
	h := frame.Header{Type: frame.TypeConnReq, ConnID: c.localID, OpID: uint64(links),
		Incarnation: c.incarnation}
	ep.handshake(p, remoteNode, &h, &c.established, &c.connTimer, func(attempts int) {
		// The peer never answered: fail the dial instead of retrying
		// forever. The teardown releases the waiter (see Conn.Failed).
		ep.Stats.PeerDeadEvents++
		ep.emit(c.localID, obs.EvFailed, int64(attempts), 0)
		c.teardown(fmt.Errorf("core: dial to node %d: no answer after %d attempts: %w",
			remoteNode, attempts, ErrPeerDead))
	})
	return c
}

// handshake sends h to node's first NIC now and every connRetry until
// done fires, and blocks p until it does. With a MaxRetries budget set,
// giveUp(attempts) runs instead of the send after that many retries and
// must fire done. *timer is the pending retry, for the teardown to stop.
func (ep *Endpoint) handshake(p *sim.Proc, node int, h *frame.Header, done *sim.Signal, timer **sim.Timer, giveUp func(attempts int)) {
	dst := frame.NewAddr(node, 0)
	attempts := 0
	var retry func()
	retry = func() {
		if done.Fired() {
			return
		}
		if mr := ep.cfg.MaxRetries; mr > 0 && attempts > mr {
			giveUp(attempts)
			return
		}
		attempts++
		ep.sendHandshake(dst, h)
		*timer = ep.env.After(connRetry, retry)
	}
	ep.env.After(0, retry)
	p.Wait(done)
}

// sendHandshake transmits one connection-management frame (ConnReq,
// ConnAck, ConnClose, ConnCloseAck) from the first NIC: these frames
// belong to no conn's striping and carry no payload.
func (ep *Endpoint) sendHandshake(dst frame.Addr, h *frame.Header) {
	nic := ep.nics[0]
	buf := frame.MustEncode(dst, nic.Addr(), h, nil)
	nic.Transmit(&phys.Frame{Buf: buf, Dst: dst, Src: nic.Addr()})
}

// Accept blocks until a peer-initiated connection is established and
// returns it.
func (ep *Endpoint) Accept(p *sim.Proc) *Conn {
	return ep.accepted.Recv(p)
}

// newConn makes a conn to remoteNode over links rails and tables it.
func (ep *Endpoint) newConn(remoteNode, links int) *Conn {
	c := &Conn{
		ep: ep, localID: ep.nextConnID, remoteNode: remoteNode, links: links,
		railSet: railSet{rails: make([]rail, links)},
	}
	if ep.cfg.ccOn() {
		c.cwnd = ep.cfg.ccInit()
	}
	ep.nextConnID++
	ep.conns[c.localID] = c
	ep.connOrder = append(ep.connOrder, c)
	return c
}

func (ep *Endpoint) handleConnReq(src frame.Addr, h frame.Header) {
	if !ep.acceptAll {
		return
	}
	key := peerKey{node: src.Node(), connID: h.ConnID}
	c, ok := ep.byPeer[key]
	switch {
	case !ok && h.Incarnation > 1:
		// A redial for a conn this side already ended: its epoch cannot
		// be reborn here, so the dialer's reconnect budget runs out
		// instead of replaying onto a fresh conn nobody accepted.
		ep.Stats.StaleEpochDrops++
		ep.emit(obs.NoConn, obs.EvStaleDrop, int64(h.Incarnation), 0)
		return
	case !ok:
		links := int(h.OpID)
		if links <= 0 || links > len(ep.nics) {
			links = len(ep.nics)
		}
		c = ep.newConn(src.Node(), links)
		c.remoteID = h.ConnID
		c.incarnation = h.Incarnation // adopt the dialer's epoch (0 = feature off)
		ep.byPeer[key] = c
		ep.emit(c.localID, obs.EvEstablished, int64(c.incarnation), int64(src.Node()))
		c.to(live)
		c.startKeepalive()
		ep.accepted.Send(ep.env, c)
	case ep.cfg.Reconnect && h.Incarnation != c.incarnation && !incarnNewer(h.Incarnation, c.incarnation):
		// A redial from an epoch we already superseded (an earlier
		// outage's request, delayed in flight): acking it would regress
		// the connection. Drop it.
		ep.Stats.StaleEpochDrops++
		ep.emit(c.localID, obs.EvStaleDrop, int64(h.Incarnation), int64(c.incarnation))
		return
	case ep.cfg.Reconnect && incarnNewer(h.Incarnation, c.incarnation):
		// The dialer is negotiating a successor epoch: be reborn into it,
		// then ack as usual. Repeated redials for the same incarnation
		// match no case and only re-send the ack.
		c.acceptReconnect(h.Incarnation)
	}
	// Always (re-)send the ConnAck: the previous one may have been lost.
	ep.sendHandshake(src, &frame.Header{Type: frame.TypeConnAck, ConnID: h.ConnID, OpID: uint64(c.localID),
		Incarnation: c.incarnation})
}

func (ep *Endpoint) handleConnAck(_ frame.Addr, h frame.Header) {
	c, ok := ep.conns[h.ConnID]
	if !ok {
		return
	}
	if c.state != dialing {
		if c.state == reconnecting && c.dialer && h.Incarnation == c.recov.pendingIncarn {
			// The acceptor answered our redial: the successor epoch is
			// live on both sides. Duplicate acks (h.Incarnation already
			// installed, the conn live again) fall through harmlessly.
			c.rebirth(c.recov.pendingIncarn)
		}
		return
	}
	c.remoteID = uint32(h.OpID)
	c.connTimer.Stop() // nil-safe
	ep.emit(c.localID, obs.EvEstablished, int64(c.incarnation), int64(c.remoteNode))
	c.to(live)
	c.startKeepalive()
}
