// Package svc is the service layer (ISSUE 7): named services backed by
// N replica endpoints, client stubs that resolve a name and issue
// Op-shaped calls across the backends through pluggable load-balancing
// policies, and relay routing for clients whose direct path to a
// backend is broken.
//
// The layer composes the primitives underneath rather than inventing
// new protocol: a call is a core.Op issued on an ordinary connection
// (eagerly via Do, or SQ-batched via Post+Ring in CallBatch); backend
// health is core's Conn.Health; failover reuses the recovery machinery
// — a dead backend's connection is journaled (Conn.Journal) and
// condemned (Conn.Abandon) so its epoch can never rebirth, and the
// incomplete operations land exactly once on a healthy replica when the
// callers re-issue them; relay forwarding is a relay envelope written
// into the stub's own slot at the relay node with one-sided writes.
//
// Everything here is deterministic: registries and balancers iterate in
// fixed orders, the only randomness is a seeded xorshift in the random
// balancer, and equal seeds reproduce bit-identical runs.
package svc

import (
	"errors"
	"fmt"

	"multiedge/internal/core"
	"multiedge/internal/sim"
)

var (
	// ErrUnknownService: the registry has no service under that name.
	ErrUnknownService = errors.New("svc: unknown service")
	// ErrNoBackends: every replica is condemned or terminally failed —
	// the eligible set is empty.
	ErrNoBackends = errors.New("svc: no eligible backends")
	// ErrBadCall: the operation does not fit the service (offset/size
	// outside the region, unsupported kind).
	ErrBadCall = errors.New("svc: bad call")
	// ErrNoRelay: Options.UseRelay is set but the registry has no relay,
	// or every one of its call slots is taken.
	ErrNoRelay = errors.New("svc: no relay registered")
	// ErrRelayFailed: the relay path itself broke (relay unreachable or
	// its reply timed out).
	ErrRelayFailed = errors.New("svc: relay failed")
)

// Backend is one replica of a service: an endpoint and the base address
// of the service's memory region in that endpoint's memory.
type Backend struct {
	EP   *core.Endpoint
	Node int
	Base uint64
}

// Service is one named, replicated service. Clients address it with
// service-relative offsets in [0, Size); each backend holds its own
// copy of the region.
type Service struct {
	Name     string
	Size     int // region bytes per replica
	Backends []Backend
}

// Replicas returns the backend count.
func (s *Service) Replicas() int { return len(s.Backends) }

// Registry maps service names to replica sets, and optionally names the
// relay node calls fall back to. It is the naming plane both Serve and
// Connect share; iteration order is registration order (deterministic).
type Registry struct {
	services map[string]*Service
	names    []string

	relayNode  int
	relayBase  uint64
	relaySlots int // call slots at the relay, one per relay-enabled stub
	relayTaken int // slots handed out by Connect
	hasRelay   bool
}

// NewRegistry creates an empty service registry.
func NewRegistry() *Registry {
	return &Registry{services: map[string]*Service{}, relayNode: -1}
}

// Register creates a service with one replica per endpoint, allocating
// a size-byte region in each backend's memory.
func (r *Registry) Register(name string, size int, backends ...*core.Endpoint) (*Service, error) {
	if name == "" {
		return nil, fmt.Errorf("svc: empty service name")
	}
	if _, dup := r.services[name]; dup {
		return nil, fmt.Errorf("svc: service %q already registered", name)
	}
	if size <= 0 {
		return nil, fmt.Errorf("svc: service %q size %d, want > 0", name, size)
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("svc: service %q has no backends", name)
	}
	s := &Service{Name: name, Size: size}
	for _, ep := range backends {
		s.Backends = append(s.Backends, Backend{EP: ep, Node: ep.Node(), Base: ep.Alloc(size)})
	}
	r.services[name] = s
	r.names = append(r.names, name)
	return s, nil
}

// Lookup resolves a service name.
func (r *Registry) Lookup(name string) (*Service, bool) {
	s, ok := r.services[name]
	return s, ok
}

// Names returns the registered service names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// setRelay records the relay's location; called by StartRelay.
func (r *Registry) setRelay(node int, base uint64, slots int) {
	r.relayNode, r.relayBase, r.relaySlots, r.hasRelay = node, base, slots, true
}

// takeRelaySlot hands a relay-enabled stub the address of its own call
// slot at the relay. Slots are never given back.
func (r *Registry) takeRelaySlot() (uint64, error) {
	if !r.hasRelay {
		return 0, ErrNoRelay
	}
	if r.relayTaken == r.relaySlots {
		return 0, fmt.Errorf("all %d relay slots taken: %w", r.relaySlots, ErrNoRelay)
	}
	r.relayTaken++
	return r.relayBase + uint64(r.relayTaken-1)*relaySlotBytes, nil
}

// Relay returns the relay node, if one is registered.
func (r *Registry) Relay() (node int, ok bool) {
	return r.relayNode, r.hasRelay
}

// Options configures one client stub. The zero value is usable:
// round-robin balancing, the default failover budget, no relay.
type Options struct {
	// Balancer picks a backend per call. Nil means NewRoundRobin().
	// The balancer instance is owned by one client (stateful).
	Balancer Balancer
	// FailoverBudget bounds how long a call may sit on a connection
	// that is parked in Reconnecting (or merely stalled) before the
	// stub gives up on the path and fails over. It becomes each
	// operation's Op.Deadline. 0 means DefaultFailoverBudget;
	// negative disables deadlines (calls wait forever).
	FailoverBudget sim.Time
	// Links is the per-connection link count passed to Dial (0 = all).
	Links int
	// UseRelay enables relay fallback: when the direct path to a
	// backend breaks, the call is forwarded through the registry's
	// relay before the backend is condemned. Requires StartRelay, and
	// takes one of the relay's call slots for the stub's life.
	UseRelay bool
	// MaxAttempts caps how many backends one call may try before
	// giving up. 0 means the replica count.
	MaxAttempts int
	// Class is the tenant/traffic class every connection and operation
	// this stub issues is tagged with (core Config.QoS). 0 is the
	// default class; ignored when the cluster runs without QoS.
	Class int
}

// DefaultFailoverBudget is the per-call deadline when Options leaves
// FailoverBudget zero: generous against slow paths, small against the
// bench's latency gates.
const DefaultFailoverBudget = 50 * sim.Millisecond

// Validate rejects option values no configuration should carry.
func (o Options) Validate() error {
	if o.Links < 0 {
		return fmt.Errorf("svc: Links %d, want >= 0", o.Links)
	}
	if o.MaxAttempts < 0 {
		return fmt.Errorf("svc: MaxAttempts %d, want >= 0", o.MaxAttempts)
	}
	if o.Class < 0 {
		return fmt.Errorf("svc: Class %d, want >= 0", o.Class)
	}
	return nil
}

// withDefaults resolves zero values against the service.
func (o Options) withDefaults(s *Service) Options {
	if o.Balancer == nil {
		o.Balancer = NewRoundRobin()
	}
	if o.FailoverBudget == 0 {
		o.FailoverBudget = DefaultFailoverBudget
	}
	if o.FailoverBudget < 0 {
		o.FailoverBudget = 0
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = s.Replicas()
	}
	return o
}
