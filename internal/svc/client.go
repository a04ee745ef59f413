package svc

import (
	"errors"
	"fmt"
	"strconv"

	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// ClientStats counts one stub's service-layer events. PerBackend is
// indexed like Service.Backends.
type ClientStats struct {
	Calls               uint64 // calls issued (batch ops included)
	CallsFailed         uint64 // calls that returned an error to the caller
	BatchCalls          uint64 // CallBatch invocations that completed on the SQ path
	BatchOps            uint64 // descriptors issued by those batches
	Failovers           uint64 // backend attempts abandoned mid-call
	BackendsCondemned   uint64 // backends marked dead by this stub
	JournaledOps        uint64 // incomplete ops snapshotted off condemned conns
	JournaledBytes      uint64 // their payload bytes
	RelayCalls          uint64 // calls completed through the relay
	RelayFailures       uint64 // relay attempts that failed
	Throttled           uint64 // submissions refused with core.ErrThrottled (QoS quota)
	PerBackend          []uint64
	ThrottledPerBackend []uint64 // per-backend throttle refusals (class health)
}

// collector publishes the stub's counters under per-service (and
// per-backend) labels.
func (s *ClientStats) collector(node int, svc *Service) obs.Collector {
	nl := obs.NodeLabel(node)
	sl := obs.Label{Key: "service", Value: svc.Name}
	return func(emit func(obs.Sample)) {
		c := func(name string, v uint64, extra ...obs.Label) {
			emit(obs.Sample{Name: name, Labels: append([]obs.Label{nl, sl}, extra...),
				Value: float64(v), Type: obs.TypeCounter})
		}
		c("svc_calls_total", s.Calls)
		c("svc_calls_failed_total", s.CallsFailed)
		c("svc_batch_calls_total", s.BatchCalls)
		c("svc_batch_ops_total", s.BatchOps)
		c("svc_failovers_total", s.Failovers)
		c("svc_backends_condemned_total", s.BackendsCondemned)
		c("svc_journaled_ops_total", s.JournaledOps)
		c("svc_journaled_bytes_total", s.JournaledBytes)
		c("svc_relay_calls_total", s.RelayCalls)
		c("svc_relay_failures_total", s.RelayFailures)
		c("svc_throttled_total", s.Throttled)
		for b, v := range s.PerBackend {
			c("svc_backend_calls_total", v,
				obs.Label{Key: "backend", Value: strconv.Itoa(svc.Backends[b].Node)})
		}
		for b, v := range s.ThrottledPerBackend {
			c("svc_backend_throttled_total", v,
				obs.Label{Key: "backend", Value: strconv.Itoa(svc.Backends[b].Node)})
		}
	}
}

// Client is a service stub: it resolves a name against the registry and
// issues Op-shaped calls across the service's replicas. One stub serves
// one endpoint and may be shared by every process on it; callers are
// distinguished by token (the balancer's session key). Connections are
// dialed lazily and concurrent dials to one backend are deduplicated.
//
// Failover composes the recovery primitives underneath: each call
// carries Options.FailoverBudget as its Op.Deadline, and when the
// deadline fires with the connection parked in Reconnecting (or the
// conn fails outright), the stub snapshots the conn's journal, condemns
// the epoch with Abandon — so it can never rebirth and double-apply —
// and retries the call on the next eligible replica (through the relay
// first, when configured). Every journaled operation belongs to some
// blocked caller whose own Call loop re-issues it, so the exactly-once
// guarantee is: old epoch condemned, each op re-lands exactly once.
type Client struct {
	ep   *core.Endpoint
	env  *sim.Env
	reg  *Registry
	svc  *Service
	opts Options
	bal  Balancer

	conns    []*core.Conn
	dialing  []*sim.Signal
	dead     []bool                   // condemned by this stub
	viaRelay []bool                   // direct path broken, relay path proven
	cqTok    []*sim.Mailbox[struct{}] // per-backend CQ ownership for CallBatch

	relayConn    *core.Conn
	relayDialing *sim.Signal
	relayTok     *sim.Mailbox[struct{}] // serializes relay exchanges
	relaySlot    uint64                 // this stub's call slot at the relay
	relayOut     uint64                 // local staging slot for call envelopes
	relayReply   uint64                 // local reply slot the relay writes into
	relayCallID  uint64
	replies      *sim.Mailbox[core.Notification] // writes into relayReply

	Stats ClientStats
}

// Connect resolves name in the registry and returns a client stub on
// ep. Nothing is dialed yet; connections come up lazily per backend.
func Connect(ep *core.Endpoint, reg *Registry, name string, opts Options) (*Client, error) {
	s, ok := reg.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("svc: connect %q: %w", name, ErrUnknownService)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(s)
	n := s.Replicas()
	c := &Client{
		ep: ep, env: ep.Env(), reg: reg, svc: s, opts: opts, bal: opts.Balancer,
		conns: make([]*core.Conn, n), dialing: make([]*sim.Signal, n),
		dead: make([]bool, n), viaRelay: make([]bool, n),
		cqTok: make([]*sim.Mailbox[struct{}], n),
	}
	c.Stats.PerBackend = make([]uint64, n)
	c.Stats.ThrottledPerBackend = make([]uint64, n)
	for i := range c.cqTok {
		c.cqTok[i] = &sim.Mailbox[struct{}]{}
		c.cqTok[i].Send(c.env, struct{}{})
	}
	if opts.UseRelay {
		slot, err := reg.takeRelaySlot()
		if err != nil {
			return nil, fmt.Errorf("svc: connect %q: %w", name, err)
		}
		c.relaySlot = slot
		c.relayOut = ep.Alloc(relaySlotBytes)
		c.relayReply = ep.Alloc(relaySlotBytes)
		c.replies = ep.NotifyRegion(c.relayReply, relaySlotBytes)
		c.relayTok = &sim.Mailbox[struct{}]{}
		c.relayTok.Send(c.env, struct{}{})
	}
	ep.Obs().AddCollector(c.Stats.collector(ep.Node(), s))
	return c, nil
}

// Service returns the resolved service.
func (c *Client) Service() *Service { return c.svc }

// checkCall validates a service-relative operation.
func (c *Client) checkCall(op core.Op) error {
	if op.Kind != frame.OpWrite && op.Kind != frame.OpRead {
		return fmt.Errorf("svc %s: op kind %v: %w", c.svc.Name, op.Kind, ErrBadCall)
	}
	if op.Size < 0 || op.Remote+uint64(op.Size) > uint64(c.svc.Size) {
		return fmt.Errorf("svc %s: range [%d,%d) outside the %d-byte service region: %w",
			c.svc.Name, op.Remote, op.Remote+uint64(op.Size), c.svc.Size, ErrBadCall)
	}
	if op.Deadline != 0 {
		return fmt.Errorf("svc %s: Op.Deadline is owned by the stub (set Options.FailoverBudget): %w",
			c.svc.Name, ErrBadCall)
	}
	return nil
}

// EligibleBackends returns the backend indices the balancer currently
// chooses from: not condemned by this stub, and with a connection that
// is neither failed nor closed. A backend
// parked in Reconnecting stays eligible — that is what keeps session
// affinity sticky across recoverable outages. A backend reached through
// the relay is eligible regardless of its (condemned) direct conn.
func (c *Client) EligibleBackends() []int {
	el := make([]int, 0, len(c.conns))
	for i := range c.svc.Backends {
		if c.dead[i] {
			continue
		}
		if cn := c.conns[i]; cn != nil && !c.viaRelay[i] {
			if cn.Failed() || cn.Closed() {
				continue
			}
		}
		el = append(el, i)
	}
	return el
}

func (c *Client) pick(token uint64) (int, bool) {
	el := c.EligibleBackends()
	if len(el) == 0 {
		return 0, false
	}
	return c.bal.Pick(token, el), true
}

// Call issues one operation against the service — a write or read at a
// service-relative offset — on the backend the balancer picks for
// token, failing over across replicas (and through the relay, when
// configured) until it lands or the eligible set drains.
func (c *Client) Call(p *sim.Proc, token uint64, op core.Op) error {
	if err := c.checkCall(op); err != nil {
		return err
	}
	sp := c.ep.Obs().StartLayerSpan(c.ep.Node(), "svc", "call", op.Size)
	err := c.call(p, token, op)
	sp.EndAt(c.env.Now())
	c.Stats.Calls++
	if err != nil {
		c.Stats.CallsFailed++
	}
	return err
}

func (c *Client) call(p *sim.Proc, token uint64, op core.Op) error {
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		b, ok := c.pick(token)
		if !ok {
			if lastErr != nil {
				return fmt.Errorf("svc %s: %w (last: %v)", c.svc.Name, ErrNoBackends, lastErr)
			}
			return fmt.Errorf("svc %s: %w", c.svc.Name, ErrNoBackends)
		}
		err, failover := c.callOn(p, b, token, op)
		if err == nil {
			c.Stats.PerBackend[b]++
			return nil
		}
		if !failover {
			return err
		}
		lastErr = err
		c.condemn(b)
		c.Stats.Failovers++
	}
	return fmt.Errorf("svc %s: %d attempts exhausted: %w (last: %v)",
		c.svc.Name, c.opts.MaxAttempts, ErrNoBackends, lastErr)
}

// callOn runs one backend attempt: direct when possible, relay
// otherwise. failover=true means the backend should be condemned and
// the call retried elsewhere.
func (c *Client) callOn(p *sim.Proc, b int, token uint64, op core.Op) (err error, failover bool) {
	if !c.viaRelay[b] {
		err, failover = c.callDirect(p, b, op)
		if err == nil || !failover || !c.opts.UseRelay {
			return err, failover
		}
		// Direct path broken: same backend, through the relay.
		if rerr := c.callRelay(p, b, token, op); rerr == nil {
			c.viaRelay[b] = true
			c.Stats.RelayCalls++
			return nil, false
		}
		c.Stats.RelayFailures++
		return err, true
	}
	if rerr := c.callRelay(p, b, token, op); rerr != nil {
		c.Stats.RelayFailures++
		return rerr, true
	}
	c.Stats.RelayCalls++
	return nil, false
}

// callDirect issues op on the backend's direct connection. failover
// reports whether the path (not the call) is at fault.
func (c *Client) callDirect(p *sim.Proc, b int, op core.Op) (error, bool) {
	cn, err := c.ensureConn(p, b)
	if err != nil {
		return err, true // dial failed: path broken
	}
	op.Remote += c.svc.Backends[b].Base
	if c.opts.FailoverBudget > 0 {
		op.Deadline = c.env.Now() + c.opts.FailoverBudget
	}
	if c.opts.Class > 0 {
		op.Class = c.opts.Class // tenant tag rides every call (QoS admission)
	}
	h, err := cn.Do(p, op)
	if err != nil {
		// The conn reached a terminal state while ensureConn blocked.
		c.journalAndAbandon(b)
		return err, true
	}
	h.Wait(p)
	if err := h.Err(); err != nil {
		if errors.Is(err, core.ErrDeadlineExceeded) &&
			!cn.Reconnecting() && !cn.Failed() && !cn.Closed() {
			// The path is up and the op was merely slower than the
			// budget: a caller-visible timeout, not a failover trigger.
			return err, false
		}
		c.journalAndAbandon(b)
		return err, true
	}
	return nil, false
}

// journalAndAbandon snapshots the backend conn's incomplete operations
// and condemns its epoch so it can never rebirth and double-apply.
// Every journaled op belongs to a caller blocked in Call whose own
// retry loop re-issues it on a surviving replica; the journal here is
// the accounting (and the audit trail a post-mortem wants).
func (c *Client) journalAndAbandon(b int) {
	cn := c.conns[b]
	c.conns[b] = nil
	if cn == nil {
		return
	}
	j := cn.Journal()
	c.Stats.JournaledOps += uint64(len(j))
	for _, op := range j {
		c.Stats.JournaledBytes += uint64(op.Size)
	}
	cn.Abandon()
}

func (c *Client) condemn(b int) {
	if !c.dead[b] {
		c.dead[b] = true
		c.viaRelay[b] = false
		c.Stats.BackendsCondemned++
	}
}

// ensureConn returns a live connection to backend b, dialing if needed.
// Concurrent callers coalesce onto one dial.
func (c *Client) ensureConn(p *sim.Proc, b int) (*core.Conn, error) {
	for c.dialing[b] != nil {
		p.Wait(c.dialing[b])
	}
	if cn := c.conns[b]; cn != nil && !cn.Failed() && !cn.Closed() {
		return cn, nil
	}
	sig := &sim.Signal{}
	c.dialing[b] = sig
	cn := c.ep.Dial(p, c.svc.Backends[b].Node, c.opts.Links)
	c.dialing[b] = nil
	sig.Fire(c.env)
	if cn.Failed() {
		return nil, fmt.Errorf("svc %s: dial backend %d (node %d): %w",
			c.svc.Name, b, c.svc.Backends[b].Node, cn.Err())
	}
	if c.opts.Class > 0 {
		cn.SetClass(c.opts.Class)
	}
	c.conns[b] = cn
	return cn, nil
}

// CallBatch issues ops as one submission-queue batch — Post per
// descriptor, one doorbell, completions reaped from the CQ — against
// the single backend the balancer picks for token. A per-backend token
// serializes CQ ownership, so concurrent batches never interleave their
// completion records (eager Do-path calls bypass the CQ and need no
// token). On any path failure the whole batch degrades to op-by-op
// Calls, which carry the full failover machinery.
func (c *Client) CallBatch(p *sim.Proc, token uint64, ops []core.Op) error {
	for _, op := range ops {
		if err := c.checkCall(op); err != nil {
			return err
		}
	}
	if len(ops) == 0 {
		return nil
	}
	total := 0
	for _, op := range ops {
		total += op.Size
	}
	sp := c.ep.Obs().StartLayerSpan(c.ep.Node(), "svc", "call-batch", total)
	err := c.callBatch(p, token, ops)
	sp.EndAt(c.env.Now())
	return err
}

func (c *Client) callBatch(p *sim.Proc, token uint64, ops []core.Op) error {
	if b, ok := c.pick(token); ok && !c.viaRelay[b] {
		if cn, err := c.ensureConn(p, b); err == nil {
			if c.batchOn(p, cn, b, ops) {
				c.Stats.BatchCalls++
				c.Stats.BatchOps += uint64(len(ops))
				c.Stats.PerBackend[b] += uint64(len(ops))
				c.Stats.Calls += uint64(len(ops))
				return nil
			}
		}
	}
	// Degraded path: per-op calls with failover.
	for _, op := range ops {
		if err := c.Call(p, token, op); err != nil {
			return err
		}
	}
	return nil
}

// batchOn runs one SQ batch attempt; false means fall back to Call.
func (c *Client) batchOn(p *sim.Proc, cn *core.Conn, b int, ops []core.Op) bool {
	tok := c.cqTok[b]
	tok.Recv(p)
	var dl sim.Time
	if c.opts.FailoverBudget > 0 {
		dl = c.env.Now() + c.opts.FailoverBudget
	}
	posted := 0
	throttled := false
	for _, op := range ops {
		rop := op
		rop.Remote += c.svc.Backends[b].Base
		rop.Deadline = dl
		if c.opts.Class > 0 {
			rop.Class = c.opts.Class
		}
		if err := cn.Post(rop); err != nil {
			if errors.Is(err, core.ErrThrottled) {
				// Per-backend class health: the tenant's quota is full on
				// this endpoint. Not a path fault — the batch degrades to
				// op-by-op Calls (blocking admission) without condemning
				// the backend.
				c.Stats.Throttled++
				c.Stats.ThrottledPerBackend[b]++
				throttled = true
			}
			break
		}
		posted++
	}
	rung := 0
	if posted > 0 {
		if n, err := cn.Ring(p); err == nil {
			rung = n
		}
	}
	failed := false
	for i := 0; i < rung; i++ {
		if comp := cn.WaitCQ(p); comp.Err != nil {
			failed = true
		}
	}
	tok.Send(c.env, struct{}{})
	ok := posted == len(ops) && rung == posted && !failed
	if !ok && !throttled {
		c.journalAndAbandon(b)
	}
	return ok
}

// Close tears down every connection the stub owns: healthy conns close
// gracefully, parked or failed ones are abandoned. The stub is unusable
// afterwards.
func (c *Client) Close(p *sim.Proc) {
	for b, cn := range c.conns {
		c.conns[b] = nil
		closeOrAbandon(p, cn)
	}
	rc := c.relayConn
	c.relayConn = nil
	closeOrAbandon(p, rc)
}

func closeOrAbandon(p *sim.Proc, cn *core.Conn) {
	switch {
	case cn == nil || cn.Closed():
	case cn.Reconnecting() || cn.Failed():
		cn.Abandon()
	default:
		cn.Close(p)
	}
}
