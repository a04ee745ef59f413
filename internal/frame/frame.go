// Package frame defines the MultiEdge wire format: raw Ethernet-style
// frames carrying the MultiEdge protocol header and payload.
//
// MultiEdge (IPPS'07 §2) runs directly on Ethernet frames, below IP. A
// frame is laid out as
//
//	[Ethernet header 14B][MultiEdge header 56B][payload ≤ MaxPayload][FCS]
//
// The Ethernet FCS, preamble and inter-frame gap are not stored in the
// buffer but are accounted in wire timing via WireLen. The MultiEdge
// header carries ARQ state (frame sequence number, piggy-backed
// cumulative acknowledgement), the remote-memory operation the frame
// belongs to (id, type, fence flags, remote address, offset, total
// length), and a CRC-32 covering header and payload.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
)

// Addr is a compact link-layer address: node number in the high byte,
// NIC port number in the low byte. It stands in for the 6-byte Ethernet
// MAC; only two bytes are significant in a few-hundred-node cluster.
type Addr uint16

// NewAddr builds the address of port p on node n.
func NewAddr(node, port int) Addr {
	if node < 0 || node > 255 || port < 0 || port > 255 {
		panic(fmt.Sprintf("frame: address out of range: node %d port %d", node, port))
	}
	return Addr(node<<8 | port)
}

// Node returns the node number encoded in the address.
func (a Addr) Node() int { return int(a >> 8) }

// Port returns the NIC port number encoded in the address.
func (a Addr) Port() int { return int(a & 0xff) }

// Broadcast is the all-stations address.
const Broadcast Addr = 0xffff

func (a Addr) String() string { return strconv.Itoa(a.Node()) + ":" + strconv.Itoa(a.Port()) }

// Type identifies the kind of a MultiEdge frame.
type Type uint8

// Frame types. Data frames carry payload bytes of a remote write or a
// remote-read reply; ReadReq frames request data from remote memory; Ack
// and Nack are explicit acknowledgement frames sent when there is no data
// traffic to piggy-back on; ConnReq/ConnAck set up connections; MultiData
// frames carry several small coalesced write operations as sub-op
// records (see EncodeMultiPayloadInto); Heartbeat frames keep an idle
// connection's liveness tracking fed; Reset tells the peer the sender
// has abandoned the connection (peer-failure surfacing); RailProbe is a
// per-rail round-trip measurement the receiver answers with a
// RailProbeEcho on the arrival rail (Seq carries the rail index, OpID
// the sender's transmit timestamp, both echoed verbatim).
const (
	TypeData Type = 1 + iota
	TypeReadReq
	TypeAck
	TypeNack
	TypeConnReq
	TypeConnAck
	TypeConnClose
	TypeConnCloseAck
	TypeMultiData
	TypeHeartbeat
	TypeReset
	TypeRailProbe
	TypeRailProbeEcho
)

func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeReadReq:
		return "READREQ"
	case TypeAck:
		return "ACK"
	case TypeNack:
		return "NACK"
	case TypeConnReq:
		return "CONNREQ"
	case TypeConnAck:
		return "CONNACK"
	case TypeConnClose:
		return "CONNCLOSE"
	case TypeConnCloseAck:
		return "CONNCLOSEACK"
	case TypeMultiData:
		return "MULTIDATA"
	case TypeHeartbeat:
		return "HEARTBEAT"
	case TypeReset:
		return "RESET"
	case TypeRailProbe:
		return "RAILPROBE"
	case TypeRailProbeEcho:
		return "RAILPROBEECHO"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// OpType identifies the remote memory operation a frame belongs to.
type OpType uint8

// Remote memory operation kinds (IPPS'07 §2.2): remote write, remote
// read, and the reply stream a remote read generates.
const (
	OpNone OpType = iota
	OpWrite
	OpRead
	OpReadReply
)

func (o OpType) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpReadReply:
		return "readreply"
	}
	return fmt.Sprintf("OpType(%d)", uint8(o))
}

// OpFlags is the per-operation flag bit-field from the RDMA_operation API
// (IPPS'07 §2.2, §2.5).
type OpFlags uint8

const (
	// FenceBefore (the paper's "backward fence") delays this operation
	// at the destination until all previously issued operations on the
	// connection have been performed.
	FenceBefore OpFlags = 1 << iota
	// FenceAfter (the paper's "forward fence") delays all subsequently
	// issued operations until this one has been performed.
	FenceAfter
	// Notify delivers a completion notification to the remote process
	// once the operation has been performed at the destination.
	Notify
	// Solicit requests an immediate explicit acknowledgement when the
	// operation's last frame arrives, instead of waiting for the
	// delayed-ACK policy (AckEvery/AckDelay). Latency-critical writes —
	// storage commits, flag updates a peer polls remotely — complete in
	// one round trip at the cost of one extra control frame. (An
	// extension beyond IPPS'07; real interconnects have the same bit,
	// e.g. InfiniBand's solicited event.)
	Solicit
)

// Frame geometry. The evaluation switches do not support jumbo frames
// (IPPS'07 §3), so the classic 1500-byte Ethernet MTU applies.
const (
	EthHeaderLen = 14 // dst MAC, src MAC, ethertype
	HeaderLen    = 56 // MultiEdge protocol header
	MTU          = 1500
	// MaxPayload is the largest payload a single frame can carry.
	MaxPayload = MTU - HeaderLen // 1444

	// Wire framing overhead not stored in the buffer: 8B preamble+SFD,
	// 4B FCS, 12B inter-frame gap.
	wireExtra = 8 + 4 + 12
)

// WireLen returns the number of byte-times frame transmission occupies on
// the wire, including preamble, FCS and inter-frame gap.
func WireLen(frameLen int) int { return frameLen + wireExtra }

// Header is the decoded MultiEdge protocol header.
type Header struct {
	Type   Type
	ConnID uint32 // connection identifier, receiver-relative
	Seq    uint32 // ARQ frame sequence number within the connection
	Ack    uint32 // piggy-backed cumulative acknowledgement (next expected seq)
	HasAck bool   // whether Ack is meaningful

	// EcnEcho echoes congestion-experienced marks back to the sender:
	// the receiver sets it on ack-bearing frames after taking delivery of
	// a frame a congested switch queue marked (phys.Frame.Ecn), and the
	// sender's congestion controller treats it as an early loss signal.
	// Never set unless ECN marking is armed in the fabric, so existing
	// traffic stays byte-identical.
	EcnEcho bool

	// AckReq is the transport's own solicit bit, set by the sender on a
	// data frame whose acknowledgement it is blocked on (its window is
	// spent below the receiver's AckEvery threshold, or a forward fence
	// holds everything behind this frame): the receiver acknowledges at
	// once instead of applying the delayed-ACK policy, and once more when
	// the cumulative point reaches the frame if it had not yet. Never set
	// at the paper's defaults (see core.Conn.sendNextDataFrame).
	AckReq bool

	OpID    uint64 // operation sequence number within the connection
	OpType  OpType
	OpFlags OpFlags
	Remote  uint64 // destination virtual address of the operation
	Local   uint64 // for reads: requester-side destination address
	Offset  uint32 // offset of this frame's payload within the operation
	Total   uint32 // total operation length in bytes

	// Incarnation is the connection epoch the frame belongs to. Each
	// Dial/Accept handshake (and each supervised reconnect) negotiates a
	// fresh nonzero incarnation; receive paths drop frames stamped with a
	// dead incarnation, which fences duplicated, long-delayed, or
	// replayed-across-Restore frames from a previous life of the
	// connection. Zero — the wire encoding of the historical pad bytes —
	// means "incarnations unused" and keeps pre-recovery traffic
	// byte-identical.
	Incarnation uint16
}

// Wire layout after the 14-byte Ethernet header (big endian):
//
//	 0: type(1) flags(1) opType(1) opFlags(1)
//	 4: connID(4)
//	 8: seq(4)
//	12: ack(4)
//	16: opID(8)
//	24: remote(8)
//	32: local(8)
//	40: offset(4)
//	44: total(4)
//	48: payloadLen(2) incarnation(2)
//	52: crc32(4)
const (
	flagHasAck  = 0x01
	flagEcnEcho = 0x02
	flagAckReq  = 0x04
	flagsKnown  = flagHasAck | flagEcnEcho | flagAckReq

	offType    = 0
	offFlags   = 1
	offOpType  = 2
	offOpFlags = 3
	offConnID  = 4
	offSeq     = 8
	offAck     = 12
	offOpID    = 16
	offRemote  = 24
	offLocal   = 32
	offOffset  = 40
	offTotal   = 44
	offPayLen  = 48
	offIncarn  = 50
	offCRC     = 52
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// etherType is the IEEE local-experimental ethertype MultiEdge frames
// travel under.
const etherType = 0x88B5

// Errors returned by Encode and Decode.
var (
	ErrTooShort    = errors.New("frame: buffer shorter than headers")
	ErrBadChecksum = errors.New("frame: checksum mismatch")
	ErrBadLength   = errors.New("frame: payload length field disagrees with buffer")
	ErrBadType     = errors.New("frame: unknown frame type")
	ErrBadFlags    = errors.New("frame: unknown header flag bits")
	ErrOversize    = errors.New("frame: payload exceeds MaxPayload")
	ErrBadEther    = errors.New("frame: not a MultiEdge frame")
)

// Encode serializes a frame into a fresh buffer: Ethernet header
// (dst, src, ethertype), MultiEdge header h, payload, with the CRC filled
// in. A payload longer than MaxPayload returns ErrOversize — callers
// fragment operations into frames before encoding.
func Encode(dst, src Addr, h *Header, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d > %d", ErrOversize, len(payload), MaxPayload)
	}
	buf := make([]byte, EthHeaderLen+HeaderLen+len(payload))
	// Ethernet header: 6-byte MACs with our 2 significant bytes in the
	// low positions; a private ethertype.
	binary.BigEndian.PutUint16(buf[4:], uint16(dst))
	binary.BigEndian.PutUint16(buf[10:], uint16(src))
	binary.BigEndian.PutUint16(buf[12:], etherType)
	p := buf[EthHeaderLen:]
	p[offType] = byte(h.Type)
	p[offFlags] = h.flags()
	p[offOpType] = byte(h.OpType)
	p[offOpFlags] = byte(h.OpFlags)
	binary.BigEndian.PutUint32(p[offConnID:], h.ConnID)
	binary.BigEndian.PutUint32(p[offSeq:], h.Seq)
	binary.BigEndian.PutUint32(p[offAck:], h.Ack)
	binary.BigEndian.PutUint64(p[offOpID:], h.OpID)
	binary.BigEndian.PutUint64(p[offRemote:], h.Remote)
	binary.BigEndian.PutUint64(p[offLocal:], h.Local)
	binary.BigEndian.PutUint32(p[offOffset:], h.Offset)
	binary.BigEndian.PutUint32(p[offTotal:], h.Total)
	binary.BigEndian.PutUint16(p[offPayLen:], uint16(len(payload)))
	binary.BigEndian.PutUint16(p[offIncarn:], h.Incarnation)
	copy(p[HeaderLen:], payload)
	binary.BigEndian.PutUint32(p[offCRC:], checksum(buf))
	return buf, nil
}

// flags packs the header's boolean fields into the wire flags byte.
func (h *Header) flags() byte {
	var fl byte
	if h.HasAck {
		fl |= flagHasAck
	}
	if h.EcnEcho {
		fl |= flagEcnEcho
	}
	if h.AckReq {
		fl |= flagAckReq
	}
	return fl
}

// MustEncode is Encode for internal fragmenting callers that guarantee
// the payload fits in one frame; it panics on oversize.
func MustEncode(dst, src Addr, h *Header, payload []byte) []byte {
	buf, err := Encode(dst, src, h, payload)
	if err != nil {
		panic(err)
	}
	return buf
}

// crcZero stands in for the CRC field while checksumming; package
// scope keeps the 4-byte slice from escaping per call.
var crcZero [4]byte

// checksum computes the CRC over the whole frame with the CRC field
// treated as zero.
func checksum(buf []byte) uint32 {
	p := buf[EthHeaderLen:]
	crc := crc32.Update(0, castagnoli, buf[:EthHeaderLen+offCRC])
	crc = crc32.Update(crc, castagnoli, crcZero[:])
	return crc32.Update(crc, castagnoli, p[offCRC+4:])
}

// Decode parses and verifies a frame buffer produced by Encode. The
// returned payload aliases buf.
func Decode(buf []byte) (dst, src Addr, h Header, payload []byte, err error) {
	if len(buf) < EthHeaderLen+HeaderLen {
		return 0, 0, Header{}, nil, ErrTooShort
	}
	if binary.BigEndian.Uint16(buf[12:]) != etherType {
		return 0, 0, Header{}, nil, ErrBadEther
	}
	// The four MAC bytes Encode leaves zero (only two of each six are
	// significant) must BE zero: the decoder accepts exactly the
	// encoder's image, so decode→re-encode is bit-exact for every
	// accepted frame.
	for _, i := range [...]int{0, 1, 2, 3, 6, 7, 8, 9} {
		if buf[i] != 0 {
			return 0, 0, Header{}, nil, ErrBadEther
		}
	}
	dst = Addr(binary.BigEndian.Uint16(buf[4:]))
	src = Addr(binary.BigEndian.Uint16(buf[10:]))
	p := buf[EthHeaderLen:]
	if got, want := binary.BigEndian.Uint32(p[offCRC:]), checksum(buf); got != want {
		return 0, 0, Header{}, nil, ErrBadChecksum
	}
	h.Type = Type(p[offType])
	if h.Type < TypeData || h.Type > TypeRailProbeEcho {
		return 0, 0, Header{}, nil, ErrBadType
	}
	if p[offFlags]&^flagsKnown != 0 {
		// Unknown flag bits would decode, vanish on re-encode, and break
		// the decode→re-encode bit-exactness property the fuzzer pins.
		return 0, 0, Header{}, nil, ErrBadFlags
	}
	h.HasAck = p[offFlags]&flagHasAck != 0
	h.EcnEcho = p[offFlags]&flagEcnEcho != 0
	h.AckReq = p[offFlags]&flagAckReq != 0
	h.OpType = OpType(p[offOpType])
	h.OpFlags = OpFlags(p[offOpFlags])
	h.ConnID = binary.BigEndian.Uint32(p[offConnID:])
	h.Seq = binary.BigEndian.Uint32(p[offSeq:])
	h.Ack = binary.BigEndian.Uint32(p[offAck:])
	h.OpID = binary.BigEndian.Uint64(p[offOpID:])
	h.Remote = binary.BigEndian.Uint64(p[offRemote:])
	h.Local = binary.BigEndian.Uint64(p[offLocal:])
	h.Offset = binary.BigEndian.Uint32(p[offOffset:])
	h.Total = binary.BigEndian.Uint32(p[offTotal:])
	plen := int(binary.BigEndian.Uint16(p[offPayLen:]))
	if plen != len(p)-HeaderLen {
		return 0, 0, Header{}, nil, ErrBadLength
	}
	if plen > MaxPayload {
		// Encode never produces such a frame; accepting one here would
		// break the decode→re-encode round trip.
		return 0, 0, Header{}, nil, ErrOversize
	}
	h.Incarnation = binary.BigEndian.Uint16(p[offIncarn:])
	return dst, src, h, p[HeaderLen:], nil
}

// SubOp is one coalesced small-write operation carried inside a
// TypeMultiData frame. Each sub-op keeps its own operation id and flag
// bits, so the receive side fans completion, fences, Notify and Solicit
// out per operation exactly as if each had travelled in its own frame.
type SubOp struct {
	OpID   uint64
	Flags  OpFlags
	Remote uint64
	Data   []byte
}

// SubOpOverhead is the per-sub-op encoding overhead inside a MultiData
// payload: opID(8) + flags(1) + remote(8) + length(2).
const SubOpOverhead = 19

// multiCountLen is the leading sub-op count field.
const multiCountLen = 2

// EncodeMultiPayloadInto serializes coalesced sub-ops into a MultiData
// frame payload: count(2) then per sub-op opID(8) flags(1) remote(8)
// len(2) data. The records go into buf's backing array (typically a
// pooled Buf's Bytes()) when it is large enough, and into a fresh
// allocation otherwise. It returns ErrOversize when the records do not
// fit in one frame's payload — the coalescing sender packs under
// MaxPayload by construction.
func EncodeMultiPayloadInto(buf []byte, subs []SubOp) ([]byte, error) {
	total := multiCountLen
	for _, s := range subs {
		total += SubOpOverhead + len(s.Data)
	}
	if total > MaxPayload {
		return nil, fmt.Errorf("%w: %d coalesced sub-ops need %d > %d", ErrOversize, len(subs), total, MaxPayload)
	}
	var out []byte
	if cap(buf) >= total {
		out = buf[:total]
	} else {
		out = make([]byte, total)
	}
	binary.BigEndian.PutUint16(out, uint16(len(subs)))
	o := multiCountLen
	for _, s := range subs {
		binary.BigEndian.PutUint64(out[o:], s.OpID)
		out[o+8] = byte(s.Flags)
		binary.BigEndian.PutUint64(out[o+9:], s.Remote)
		binary.BigEndian.PutUint16(out[o+17:], uint16(len(s.Data)))
		copy(out[o+SubOpOverhead:], s.Data)
		o += SubOpOverhead + len(s.Data)
	}
	return out, nil
}

// MultiReader walks the sub-ops of a MultiData payload in place, one
// sub-op at a time and with no slice built. Its tests compare it against
// a slice-building reference decoder.
type MultiReader struct {
	rest []byte
	left int
}

// ReadMultiPayload starts a walk over the MultiData payload p.
func ReadMultiPayload(p []byte) (MultiReader, error) {
	if len(p) < multiCountLen {
		return MultiReader{}, ErrTooShort
	}
	return MultiReader{rest: p[multiCountLen:], left: int(binary.BigEndian.Uint16(p))}, nil
}

// Len returns the number of sub-ops not yet read.
func (r *MultiReader) Len() int { return r.left }

// Next returns the next sub-op, whose Data aliases the payload. It must
// not be called once Len is zero.
func (r *MultiReader) Next() (SubOp, error) {
	p := r.rest
	if len(p) < SubOpOverhead {
		return SubOp{}, ErrTooShort
	}
	end := SubOpOverhead + int(binary.BigEndian.Uint16(p[17:]))
	if len(p) < end {
		return SubOp{}, ErrTooShort
	}
	r.rest, r.left = p[end:], r.left-1
	return SubOp{
		OpID:   binary.BigEndian.Uint64(p),
		Flags:  OpFlags(p[8]),
		Remote: binary.BigEndian.Uint64(p[9:]),
		Data:   p[SubOpOverhead:end],
	}, nil
}
