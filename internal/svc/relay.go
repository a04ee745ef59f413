package svc

import (
	"fmt"
	"sort"

	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// ---------------------------------------------------------------------
// Client side of relay routing.
// ---------------------------------------------------------------------

// callRelay forwards op to backend b through the registry's relay:
// encode a call envelope into the local staging slot, write it into the
// stub's call slot at the relay with Notify, and wait for the reply
// envelope in the stub's reply slot. One exchange at a time per stub
// (it has one call slot).
func (c *Client) callRelay(p *sim.Proc, b int, token uint64, op core.Op) error {
	if !c.opts.UseRelay {
		return ErrNoRelay
	}
	if op.Size > maxRelayPayload {
		return fmt.Errorf("svc %s: %d-byte op exceeds relay payload %d: %w",
			c.svc.Name, op.Size, maxRelayPayload, ErrBadCall)
	}
	c.relayTok.Recv(p)
	err := c.relayExchange(p, b, token, op)
	c.relayTok.Send(c.env, struct{}{})
	return err
}

func (c *Client) relayExchange(p *sim.Proc, b int, token uint64, op core.Op) error {
	rc, err := c.ensureRelay(p)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRelayFailed, err)
	}
	mem := c.ep.Mem()
	c.relayCallID++
	call := relayEnvelope{
		Kind: kindCall, OpKind: op.Kind, Flags: op.Flags,
		Backend: uint32(c.svc.Backends[b].Node), CallID: c.relayCallID,
		Token: token, Remote: c.svc.Backends[b].Base + op.Remote,
		Size: uint32(op.Size), Reply: c.relayReply,
	}
	call.encode(mem[c.relayOut : c.relayOut+relayHdrBytes])
	n := relayHdrBytes
	if op.Kind == frame.OpWrite {
		copy(mem[c.relayOut+relayHdrBytes:c.relayOut+uint64(relayHdrBytes+op.Size)],
			mem[op.Local:op.Local+uint64(op.Size)])
		n += op.Size
	}
	wop := core.Op{
		Remote: c.relaySlot, Local: c.relayOut,
		Size: n, Kind: frame.OpWrite, Flags: frame.Notify,
	}
	if c.opts.FailoverBudget > 0 {
		wop.Deadline = c.env.Now() + c.opts.FailoverBudget
	}
	if err := rc.Run(p, wop); err != nil {
		c.dropRelayConn()
		return fmt.Errorf("%w: %v", ErrRelayFailed, err)
	}
	return c.awaitReply(p, b, op)
}

// awaitReply waits on the stub's reply-slot mailbox until the relay's
// reply envelope for the current call lands, or the guard expires (the
// relay's forwarding budget, both wire legs, plus slack).
func (c *Client) awaitReply(p *sim.Proc, b int, op core.Op) error {
	mem := c.ep.Mem()
	var guard *sim.Timer
	expired := false
	if c.opts.FailoverBudget > 0 {
		guard = c.env.After(3*c.opts.FailoverBudget, func() {
			expired = true
			c.replies.Send(c.env, core.Notification{}) // wake the wait below
		})
	}
	for {
		c.replies.Recv(p)
		re, derr := decodeRelayEnvelope(mem[c.relayReply : c.relayReply+relaySlotBytes])
		if derr == nil && re.Kind == kindReply && re.CallID == c.relayCallID {
			guard.Stop()
			if re.Status != statusOK {
				return fmt.Errorf("svc %s: relay reports backend node %d unreachable: %w",
					c.svc.Name, c.svc.Backends[b].Node, core.ErrPeerDead)
			}
			if op.Kind == frame.OpRead {
				copy(mem[op.Local:op.Local+uint64(op.Size)],
					mem[c.relayReply+relayHdrBytes:c.relayReply+uint64(relayHdrBytes+op.Size)])
			}
			return nil
		}
		if expired {
			c.dropRelayConn()
			return fmt.Errorf("%w: reply timeout", ErrRelayFailed)
		}
		// A late reply to an earlier call, or an earlier guard's wake.
	}
}

func (c *Client) ensureRelay(p *sim.Proc) (*core.Conn, error) {
	for c.relayDialing != nil {
		p.Wait(c.relayDialing)
	}
	if rc := c.relayConn; rc != nil && rc.State() < core.Closing {
		return rc, nil
	}
	relayNode, _ := c.reg.Relay()
	sig := &sim.Signal{}
	c.relayDialing = sig
	rc := c.ep.Dial(p, relayNode, c.opts.Links)
	c.relayDialing = nil
	sig.Fire(c.env)
	if rc.Err() != nil {
		return nil, fmt.Errorf("svc %s: dial relay node %d: %w", c.svc.Name, relayNode, rc.Err())
	}
	c.relayConn = rc
	return rc, nil
}

func (c *Client) dropRelayConn() {
	if rc := c.relayConn; rc != nil {
		c.relayConn = nil
		rc.Abandon()
	}
}

// ---------------------------------------------------------------------
// Relay node: the forwarding daemon.
// ---------------------------------------------------------------------

// RelayStats counts the relay's forwarding events.
type RelayStats struct {
	Calls       uint64 // call envelopes received
	Forwarded   uint64 // operations that completed on a backend
	BackendDead uint64 // forwards that failed (backend unreachable)
	BadCalls    uint64 // envelopes that did not decode or were refused
}

// Relay is the designated forwarding node: it holds (lazily dialed)
// connections to both sides and serves calls one at a time, in the
// order they land in its call slots — head-of-line blocking under a
// parked backend is bounded by the forwarding budget. Each
// relay-enabled stub owns one call slot, whatever its node or service,
// so one relay serves every client and service in the cluster.
type Relay struct {
	ep     *core.Endpoint
	env    *sim.Env
	base   uint64
	calls  *sim.Mailbox[core.Notification] // writes into the call slots
	budget sim.Time
	conns  map[int]*core.Conn
	Stats  RelayStats
}

// StartRelay allocates the relay's call slots (one per relay-enabled
// stub that will Connect), records them in the registry, and starts the
// serve daemon. budget bounds each forwarded operation like a
// client's FailoverBudget (0 = DefaultFailoverBudget, negative = none).
func StartRelay(ep *core.Endpoint, reg *Registry, slots int, budget sim.Time) *Relay {
	if budget == 0 {
		budget = DefaultFailoverBudget
	}
	if budget < 0 {
		budget = 0
	}
	r := &Relay{ep: ep, env: ep.Env(), budget: budget, conns: map[int]*core.Conn{}}
	r.base = ep.Alloc(slots * relaySlotBytes)
	r.calls = ep.NotifyRegion(r.base, slots*relaySlotBytes)
	reg.setRelay(ep.Node(), r.base, slots)
	r.env.Go(fmt.Sprintf("svc-relay-n%d", ep.Node()), r.serve)
	return r
}

// Base returns the address of the first call slot (the i-th stub to
// Connect with UseRelay owns Base + i*8 KiB).
func (r *Relay) Base() uint64 { return r.base }

func (r *Relay) serve(p *sim.Proc) {
	for {
		nf := r.calls.Recv(p)
		slot := r.base + (nf.Addr-r.base)/relaySlotBytes*relaySlotBytes
		r.handle(p, nf.From, slot)
	}
}

func (r *Relay) handle(p *sim.Proc, from int, slot uint64) {
	mem := r.ep.Mem()
	r.Stats.Calls++
	sp := r.ep.Obs().StartLayerSpan(r.ep.Node(), "svc", "relay-forward", 0)
	defer sp.EndAt(r.env.Now())
	call, err := decodeRelayEnvelope(mem[slot : slot+relaySlotBytes])
	if err != nil || call.Kind != kindCall {
		// Without a decoded reply address there is nobody to answer;
		// the client's guard timer converts the silence into an error.
		r.Stats.BadCalls++
		return
	}
	status := statusOK
	if ferr := r.forward(p, slot, call); ferr != nil {
		status = statusBackendDead
		r.Stats.BackendDead++
	} else {
		r.Stats.Forwarded++
	}
	r.reply(p, from, slot, call, status)
}

// forward issues the relayed operation on the relay's own connection to
// the backend. Read data lands in the slot's payload area, ready for
// the reply. The Notify flag is stripped: notification semantics belong
// to the client side of the exchange.
func (r *Relay) forward(p *sim.Proc, slot uint64, call relayEnvelope) error {
	cn, err := r.ensureConn(p, int(call.Backend))
	if err != nil {
		return err
	}
	op := core.Op{
		Remote: call.Remote, Local: slot + relayHdrBytes,
		Size: int(call.Size), Kind: call.OpKind, Flags: call.Flags &^ frame.Notify,
	}
	if r.budget > 0 {
		op.Deadline = r.env.Now() + r.budget
	}
	err = cn.Run(p, op)
	if err != nil && cn.State() >= core.Reconnecting {
		r.dropConn(int(call.Backend))
	}
	return err
}

// reply rewrites the slot header in place as a reply envelope and
// writes it (plus read data on success) back to the client's reply
// slot with Notify.
func (r *Relay) reply(p *sim.Proc, from int, slot uint64, call relayEnvelope, status relayStatus) {
	cn, err := r.ensureConn(p, from)
	if err != nil {
		return // client unreachable; its guard timer fires
	}
	re := call
	re.Kind = kindReply
	re.Status = status
	mem := r.ep.Mem()
	re.encode(mem[slot : slot+relayHdrBytes])
	n := relayHdrBytes
	if status == statusOK && call.OpKind == frame.OpRead {
		n += int(call.Size)
	}
	wop := core.Op{Remote: call.Reply, Local: slot, Size: n, Kind: frame.OpWrite, Flags: frame.Notify}
	if r.budget > 0 {
		wop.Deadline = r.env.Now() + r.budget
	}
	if err := cn.Run(p, wop); err != nil && cn.State() >= core.Reconnecting {
		r.dropConn(from)
	}
}

func (r *Relay) ensureConn(p *sim.Proc, node int) (*core.Conn, error) {
	if cn := r.conns[node]; cn != nil && cn.State() < core.Closing {
		return cn, nil
	}
	cn := r.ep.Dial(p, node, 0)
	if cn.Err() != nil {
		return nil, cn.Err()
	}
	r.conns[node] = cn
	return cn, nil
}

func (r *Relay) dropConn(node int) {
	if cn := r.conns[node]; cn != nil {
		delete(r.conns, node)
		cn.Abandon()
	}
}

// Shutdown closes the relay's connections (gracefully when possible,
// abandoning parked ones). The serve daemon stays parked on its call
// slots' mailbox; it holds no timers, so it never keeps a drained
// simulation alive.
func (r *Relay) Shutdown(p *sim.Proc) {
	nodes := make([]int, 0, len(r.conns))
	for n := range r.conns {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		cn := r.conns[n]
		delete(r.conns, n)
		closeOrAbandon(p, cn)
	}
}

// Health reports the relay's connection states via the endpoint's
// health snapshot (the balancer's eligible set is driven by the CLIENT
// side's Conn.Health; this is the relay's own view, for dashboards).
func (r *Relay) Health() obs.EndpointHealth { return r.ep.Health() }
