package frame

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// BufCap is the capacity of a pooled frame buffer: enough for the
// Ethernet header plus a full MTU, i.e. the largest frame Encode can
// produce.
const BufCap = EthHeaderLen + MTU

// Buf is a pooled frame buffer. The hot transmit path acquires one
// with GetBuf, encodes a frame into it with EncodeInto, and hands
// ownership to the wire (phys.Frame); exactly one release point per
// frame returns it with PutBuf. The zero-copy contract: a decoded
// payload aliases the buffer it travelled in, so receivers must copy
// anything they keep beyond the dispatch callback (DESIGN.md §13).
type Buf struct {
	b    []byte
	free bool // in the pool (double-release detector)
}

// Bytes returns the full-capacity backing slice to encode into.
func (b *Buf) Bytes() []byte { return b.b }

var bufPool = sync.Pool{New: func() any { return &Buf{b: make([]byte, BufCap)} }}

// poolDebug enables release poisoning: returned buffers are filled
// with 0xDB so any use-after-release surfaces as CRC/decode garbage
// instead of silent aliasing. Double-release detection is always on.
var poolDebug atomic.Bool

// SetPoolDebug toggles buffer poisoning on release. It returns the
// previous setting; tests flip it on and restore the old value.
func SetPoolDebug(on bool) bool { return poolDebug.Swap(on) }

// Poison fills b with the released-buffer pattern when pool debugging
// is on. Owners of recycled byte storage other than a Buf (core's
// snapshot pool) call it at their release point, so the
// use-after-release check covers that storage too.
func Poison(b []byte) {
	if poolDebug.Load() {
		for i := range b {
			b[i] = 0xDB
		}
	}
}

// GetBuf acquires a frame buffer from the pool.
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.free = false
	return b
}

// PutBuf releases a buffer back to the pool. Releasing the same Buf
// twice panics: a double release would hand one buffer to two owners
// and corrupt frames in flight.
func PutBuf(b *Buf) {
	if b == nil {
		return
	}
	if b.free {
		panic("frame: PutBuf called twice on the same Buf")
	}
	b.free = true
	Poison(b.b)
	bufPool.Put(b)
}

// EncodeInto is Encode targeting a caller-supplied buffer (typically a
// pooled Buf's Bytes()): it serializes the frame into buf's backing
// array and returns buf resliced to the frame length, allocating
// nothing. The output is byte-identical to Encode's. A buffer with
// insufficient capacity falls back to a fresh allocation, so callers
// never need to size-check.
func EncodeInto(buf []byte, dst, src Addr, h *Header, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d > %d", ErrOversize, len(payload), MaxPayload)
	}
	n := EthHeaderLen + HeaderLen + len(payload)
	if cap(buf) < n {
		return Encode(dst, src, h, payload)
	}
	buf = buf[:n]
	// Encode gets zeroed MAC pad bytes from make for free; a recycled
	// buffer must zero them explicitly — Decode rejects frames whose
	// pad bytes are nonzero.
	buf[0], buf[1], buf[2], buf[3] = 0, 0, 0, 0
	buf[6], buf[7], buf[8], buf[9] = 0, 0, 0, 0
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

// MustEncodeInto is EncodeInto for internal fragmenting callers that
// guarantee the payload fits in one frame; it panics on oversize.
func MustEncodeInto(buf []byte, dst, src Addr, h *Header, payload []byte) []byte {
	out, err := EncodeInto(buf, dst, src, h, payload)
	if err != nil {
		panic(err)
	}
	return out
}

// AppendNackPayload serializes the list of missing sequence numbers a
// NACK frame reports (IPPS'07 §2.4: negative acknowledgements name lost
// or damaged frames for retransmission) into dst's backing array (growing it only when the capacity is short) and returns the
// resliced result. Steady-state NACK traffic reuses one scratch per
// connection and allocates nothing.
func AppendNackPayload(dst []byte, missing []uint32) []byte {
	if max := (MaxPayload - 2) / 4; len(missing) > max {
		missing = missing[:max]
	}
	n := 2 + 4*len(missing)
	if cap(dst) < n {
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
	}
	binary.BigEndian.PutUint16(dst, uint16(len(missing)))
	for i, s := range missing {
		binary.BigEndian.PutUint32(dst[2+4*i:], s)
	}
	return dst
}

// AppendNackSeqs parses a NACK payload: the sequence numbers it names
// are appended to dst, a reusable scratch slice. The
// receiving endpoint keeps one scratch and allocates nothing per NACK.
func AppendNackSeqs(dst []uint32, p []byte) ([]uint32, error) {
	if len(p) < 2 {
		return dst, ErrTooShort
	}
	n := int(binary.BigEndian.Uint16(p))
	if len(p) < 2+4*n {
		return dst, ErrTooShort
	}
	for i := range n {
		dst = append(dst, binary.BigEndian.Uint32(p[2+4*i:]))
	}
	return dst, nil
}
