package frame

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// BufCap is the capacity of a pooled frame buffer: enough for the
// Ethernet header plus a full MTU, i.e. the largest frame Encode can
// produce.
const BufCap = EthHeaderLen + MTU

// Buf is a pooled frame buffer. The hot transmit path acquires one
// from its simulation's Pool, encodes a frame into it with EncodeInto,
// and hands ownership to the wire (phys.Frame); exactly one release
// point per frame returns it with Put. The zero-copy contract: a decoded
// payload aliases the buffer it travelled in, so receivers must copy
// anything they keep beyond the dispatch callback (DESIGN.md §13).
type Buf struct {
	free bool // released (double-release detector)
	b    [BufCap]byte
}

// Bytes returns the full-capacity backing slice to encode into.
func (b *Buf) Bytes() []byte { return b.b[:] }

// Freelist is a stack of idle records of one kind, owned by one
// simulation, whose single goroutine serializes it: no locks or
// atomics, and how many records get allocated depends only on the run,
// never on when the garbage collector runs. It holds only what was
// released, never more than was outstanding at once, and at most
// PoolKeep idle records; the rest go to the collector, and so do all of
// them at Trim. The zero value is ready.
type Freelist[T any] struct{ idle []*T }

// PoolKeep bounds a Freelist: as many frames as two connections keep
// in flight at the default Window of 128.
const PoolKeep = 256

// Get hands out an idle record as it was released, or a new one.
func (f *Freelist[T]) Get() *T {
	n := len(f.idle)
	if n == 0 {
		return new(T)
	}
	x := f.idle[n-1]
	f.idle[n-1] = nil
	f.idle = f.idle[:n-1]
	return x
}

// Put takes a record back, unless PoolKeep are idle already.
func (f *Freelist[T]) Put(x *T) {
	if len(f.idle) < PoolKeep {
		f.idle = append(f.idle, x)
	}
}

// Trim lets every idle record go. A simulation's buffer pool is trimmed
// when the simulation stops (sim.Env.OnStop), so that a stopped
// simulation keeps no idle buffer.
func (f *Freelist[T]) Trim() {
	clear(f.idle)
	f.idle = f.idle[:0]
}

// Pool is one simulation's freelist of frame buffers.
type Pool struct{ bufs Freelist[Buf] }

// Get acquires a buffer.
func (p *Pool) Get() *Buf {
	b := p.bufs.Get()
	b.free = false
	return b
}

// Put releases a buffer (nil is a no-op). Releasing the same Buf twice
// panics: a double release would hand one buffer to two owners and
// corrupt frames in flight.
func (p *Pool) Put(b *Buf) {
	if b == nil {
		return
	}
	if b.free {
		panic("frame: Buf released twice")
	}
	b.free = true
	Poison(b.b[:])
	p.bufs.Put(b)
}

// Trim lets every idle buffer go (Freelist.Trim).
func (p *Pool) Trim() { p.bufs.Trim() }

// GetBuf and PutBuf are Get and Put for one-off callers outside a
// simulation, on a pool of their own: every buffer is fresh, and a
// released one is poisoned and dropped.
func GetBuf() *Buf  { return new(Pool).Get() }
func PutBuf(b *Buf) { new(Pool).Put(b) }

// poolDebug enables release poisoning: returned buffers are filled
// with 0xDB so any use-after-release surfaces as CRC/decode garbage
// instead of silent aliasing. Double-release detection is always on.
var poolDebug atomic.Bool

// SetPoolDebug toggles buffer poisoning on release. It returns the
// previous setting; tests flip it on and restore the old value.
func SetPoolDebug(on bool) bool { return poolDebug.Swap(on) }

// Poisoning reports whether SetPoolDebug is on. Owners of recycled
// records other than byte storage (core's operation records) fill them
// with the poison pattern at their release point when it is.
func Poisoning() bool { return poolDebug.Load() }

// Poison fills b with the released-buffer pattern when pool debugging
// is on. Owners of recycled byte storage other than a Buf (core's
// snapshot pool) call it at their release point, so the
// use-after-release check covers that storage too.
func Poison(b []byte) {
	if Poisoning() {
		for i := range b {
			b[i] = 0xDB
		}
	}
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
// or damaged frames for retransmission) into dst's backing array
// (growing it only when the capacity is short) and returns the
// resliced result. Steady-state NACK traffic reuses one scratch per
// endpoint (core's Endpoint.nackScratch) and allocates nothing.
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
