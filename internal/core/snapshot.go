package core

import (
	"math/bits"

	"multiedge/internal/frame"
)

// snapKeep bounds the idle snapshots an endpoint keeps per size class.
// The freelist only ever holds what was outstanding at once; this trims
// what a burst leaves behind.
const snapKeep = 16

// snapshot copies ep.mem[off:off+n] into the kernel buffer a txOp will
// transmit and retransmit from: a pooled frame buffer when it fits one
// (the common case for latency-sensitive small ops), else a buffer from
// the endpoint's freelist of power-of-two size classes, so a steady
// stream of large writes or read replies reuses the same few buffers
// instead of allocating and zero-filling one per operation. The txOp
// owns what it gets until retireTxOp hands both back (releaseSnapshot).
func (ep *Endpoint) snapshot(off uint64, n int) (data []byte, buf *frame.Buf) {
	switch {
	case n == 0:
		return nil, nil
	case n <= frame.BufCap:
		buf = frame.GetBuf()
		data = buf.Bytes()[:n]
	default:
		class := bits.Len(uint(n - 1))
		if class < len(ep.snapFree) && len(ep.snapFree[class]) > 0 {
			free := ep.snapFree[class]
			data = free[len(free)-1][:n]
			free[len(free)-1] = nil
			ep.snapFree[class] = free[:len(free)-1]
		} else {
			data = make([]byte, n, 1<<class)
		}
	}
	copy(data, ep.mem[off:off+uint64(n)])
	return data, buf
}

// releaseSnapshot returns what snapshot handed out, poisoned under
// frame.SetPoolDebug like any released frame buffer. A sub-op container
// or any other op whose data lives in a frame.Buf releases just that.
func (ep *Endpoint) releaseSnapshot(data []byte, buf *frame.Buf) {
	if buf != nil {
		frame.PutBuf(buf)
		return
	}
	if cap(data) == 0 {
		return // no data: a read request, a probe
	}
	data = data[:cap(data)]
	frame.Poison(data)
	class := bits.Len(uint(len(data) - 1))
	for len(ep.snapFree) <= class {
		ep.snapFree = append(ep.snapFree, nil)
	}
	if len(ep.snapFree[class]) < snapKeep {
		ep.snapFree[class] = append(ep.snapFree[class], data)
	}
}
