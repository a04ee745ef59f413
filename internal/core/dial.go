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
	c := ep.newConn(remoteNode, links)
	ep.emit(c.localID, obs.EvDial, int64(len(c.rails)), int64(remoteNode))
	c.dialer = true // this side owns redialing under Config.Reconnect
	if ep.cfg.Reconnect {
		c.incarnation = 1 // first epoch; 0 means "incarnations unused"
	}
	c.handshake(p)
	return c
}

// handshake runs the dial or the close handshake, by the conn's state:
// it sends the ConnReq or ConnClose to the peer's first NIC now and
// every connRetry until the handshake ends (c.hs is dropped), and
// blocks p until then.
func (c *Conn) handshake(p *sim.Proc) {
	c.hs = &handshake{}
	c.ep.env.SchedAtArg(c.ep.env.Now(), handshakeRetry, c)
	p.Wait(&c.hs.sig)
}

// handshakeRetry sends the handshake's frame once more and re-arms. With
// a MaxRetries budget set, a dial or close that many retries old gives
// up instead: the teardown ends the handshake.
func handshakeRetry(arg any) {
	c := arg.(*Conn)
	hs, ep := c.hs, c.ep
	if hs == nil {
		return
	}
	if mr := ep.cfg.MaxRetries; mr > 0 && hs.attempts > mr {
		cause := c.endErr // a close gives up with the cause Close fixed
		if c.state == Dialing {
			// The peer never answered: fail the dial instead of retrying
			// forever. The teardown releases the waiter (see Conn.Failed).
			ep.Stats.PeerDeadEvents++
			ep.emit(c.localID, obs.EvFailed, int64(hs.attempts), 0)
			cause = fmt.Errorf("core: dial to node %d: no answer after %d attempts: %w", c.remoteNode, hs.attempts, ErrPeerDead)
		}
		c.teardown(cause)
		return
	}
	hs.attempts++
	h := frame.Header{Type: frame.TypeConnReq, ConnID: c.localID, OpID: uint64(len(c.rails)), Incarnation: c.incarnation}
	if c.state == Closing {
		h = frame.Header{Type: frame.TypeConnClose, ConnID: c.remoteID, OpID: uint64(c.localID), Incarnation: c.incarnation}
	}
	ep.sendControl(0, frame.NewAddr(int(c.remoteNode), 0), &h)
	hs.timer = ep.env.RearmArg(hs.timer, connRetry, handshakeRetry, c)
}

// sendControl transmits one payload-less frame from NIC li to dst,
// outside any conn's striping: a handshake (ConnReq, ConnAck, ConnClose,
// ConnCloseAck) from the first NIC, or a Reset on every rail. Its buffer
// is a fresh one of the frame's ~64 B, not a pooled 1 514 B one: a dial
// storm puts over a thousand handshakes in flight at once, and the pool
// keeps up to frame.PoolKeep of them idle afterwards (pooled, fanin's
// bytes per conn at seed 1 rose from 757 to 1 157-1 273 B).
func (ep *Endpoint) sendControl(li int, dst frame.Addr, h *frame.Header) {
	nic := ep.nics[li]
	buf := frame.MustEncode(dst, nic.Addr(), h, nil)
	nic.Transmit(&phys.Frame{Buf: buf, Dst: dst, Src: nic.Addr()})
}

// Accept blocks until a peer-initiated connection is established and
// returns it.
func (ep *Endpoint) Accept(p *sim.Proc) *Conn {
	return ep.accepted.Recv(p)
}

// newConn tables a conn to remoteNode over links NICs (all if out of range).
func (ep *Endpoint) newConn(remoteNode, links int) *Conn {
	if links <= 0 || links > len(ep.nics) {
		links = len(ep.nics)
	}
	c := &Conn{
		ep: ep, localID: ep.nextConnID, remoteNode: int32(remoteNode),
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
		c = ep.newConn(src.Node(), int(h.OpID))
		c.remoteID = h.ConnID
		c.incarnation = h.Incarnation // adopt the dialer's epoch (0 = feature off)
		ep.byPeer[key] = c
		ep.emit(c.localID, obs.EvEstablished, int64(c.incarnation), int64(src.Node()))
		c.to(Live)
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
	ep.sendControl(0, src, &frame.Header{Type: frame.TypeConnAck, ConnID: h.ConnID, OpID: uint64(c.localID),
		Incarnation: c.incarnation})
}

func (ep *Endpoint) handleConnAck(_ frame.Addr, h frame.Header) {
	c, ok := ep.conns[h.ConnID]
	if !ok {
		return
	}
	if c.state != Dialing {
		if c.state == Reconnecting && c.dialer && h.Incarnation == c.recov.pendingIncarn {
			// The acceptor answered our redial: the successor epoch is
			// live on both sides. Duplicate acks (h.Incarnation already
			// installed, the conn live again) fall through harmlessly.
			c.rebirth(c.recov.pendingIncarn)
		}
		return
	}
	c.remoteID = uint32(h.OpID)
	ep.emit(c.localID, obs.EvEstablished, int64(c.incarnation), int64(c.remoteNode))
	c.to(Live)
	c.startKeepalive()
}
