package svc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"multiedge/internal/frame"
)

// The relay envelope is the record a stub and the relay exchange when
// the direct client↔backend path is broken ("direct when possible, relay
// otherwise"). A call is one write into the stub's own slot at the
// relay, carrying the operation descriptor and — for writes — the
// payload; the relay issues the operation on its own connection to the
// backend and writes a reply envelope (status plus, for reads, the data)
// back to the stub's reply slot. Both writes carry Notify, and each side
// receives them on the mailbox of the region they land in
// (core.Endpoint.NotifyRegion).

const (
	// relaySlotBytes is the size of one relay mailbox slot — one call
	// (or reply) envelope, header plus payload.
	relaySlotBytes = 8 * 1024
	// relayHdrBytes is the fixed envelope header size.
	relayHdrBytes = 48
	// maxRelayPayload bounds the payload a single relayed operation may
	// carry; larger operations must go direct or be fragmented by the
	// caller.
	maxRelayPayload = relaySlotBytes - relayHdrBytes
)

// relayKind discriminates call and reply envelopes.
type relayKind uint8

const (
	kindCall  relayKind = 1 // client → relay: forward this operation
	kindReply relayKind = 2 // relay → client: outcome (and read data)
)

// relayStatus is the relay's verdict on a forwarded call.
type relayStatus uint8

const (
	// statusOK: the operation completed on the backend.
	statusOK relayStatus = iota
	// statusBackendDead: the relay could not reach the backend (dial
	// failed or the forwarding operation died with the connection). The
	// client should condemn the backend and fail over.
	statusBackendDead
	// statusBadCall: the envelope did not decode or named an operation
	// the relay refuses (wrong kind, oversized).
	statusBadCall
)

// errBadRelayEnvelope reports a relay slot whose bytes do not form a
// valid envelope.
var errBadRelayEnvelope = errors.New("svc: bad relay envelope")

// relayEnvelope is the decoded header of one relay call or reply. The
// payload (write data on calls, read data on statusOK read replies)
// follows the header in the slot.
type relayEnvelope struct {
	Kind    relayKind
	OpKind  frame.OpType  // OpWrite or OpRead
	Flags   frame.OpFlags // forwarded operation flags
	Status  relayStatus   // meaningful on replies
	Backend uint32        // target backend node
	CallID  uint64        // client-local call sequence, echoed in the reply
	Token   uint64        // caller token (affinity key), for tracing
	Remote  uint64        // absolute target address in backend memory
	Size    uint32        // operation payload size
	Reply   uint64        // client-memory address of the reply slot
}

// encode writes the fixed header into dst[:relayHdrBytes]. The caller
// places the payload at dst[relayHdrBytes:].
func (e relayEnvelope) encode(dst []byte) {
	if len(dst) < relayHdrBytes {
		panic(fmt.Sprintf("svc: relay envelope buffer %d < %d", len(dst), relayHdrBytes))
	}
	dst[0] = byte(e.Kind)
	dst[1] = byte(e.OpKind)
	dst[2] = byte(e.Flags)
	dst[3] = byte(e.Status)
	binary.LittleEndian.PutUint32(dst[4:], e.Backend)
	binary.LittleEndian.PutUint64(dst[8:], e.CallID)
	binary.LittleEndian.PutUint64(dst[16:], e.Token)
	binary.LittleEndian.PutUint64(dst[24:], e.Remote)
	binary.LittleEndian.PutUint32(dst[32:], e.Size)
	binary.LittleEndian.PutUint64(dst[40:], e.Reply)
}

// decodeRelayEnvelope parses and validates a slot's header. It never
// panics on hostile bytes: every malformed field is an
// errBadRelayEnvelope.
func decodeRelayEnvelope(b []byte) (relayEnvelope, error) {
	var e relayEnvelope
	if len(b) < relayHdrBytes {
		return e, fmt.Errorf("%w: %d bytes < header %d", errBadRelayEnvelope, len(b), relayHdrBytes)
	}
	e.Kind = relayKind(b[0])
	if e.Kind != kindCall && e.Kind != kindReply {
		return e, fmt.Errorf("%w: kind %d", errBadRelayEnvelope, b[0])
	}
	e.OpKind = frame.OpType(b[1])
	if e.OpKind != frame.OpWrite && e.OpKind != frame.OpRead {
		return e, fmt.Errorf("%w: op kind %d", errBadRelayEnvelope, b[1])
	}
	e.Flags = frame.OpFlags(b[2])
	e.Status = relayStatus(b[3])
	if e.Status > statusBadCall {
		return e, fmt.Errorf("%w: status %d", errBadRelayEnvelope, b[3])
	}
	e.Backend = binary.LittleEndian.Uint32(b[4:])
	e.CallID = binary.LittleEndian.Uint64(b[8:])
	e.Token = binary.LittleEndian.Uint64(b[16:])
	e.Remote = binary.LittleEndian.Uint64(b[24:])
	e.Size = binary.LittleEndian.Uint32(b[32:])
	if e.Size > maxRelayPayload {
		return e, fmt.Errorf("%w: size %d > %d", errBadRelayEnvelope, e.Size, maxRelayPayload)
	}
	e.Reply = binary.LittleEndian.Uint64(b[40:])
	return e, nil
}
