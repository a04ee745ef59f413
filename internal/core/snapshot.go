package core

import (
	"math/bits"

	"multiedge/internal/frame"
)

// snapshot copies ep.mem[off:off+n] into the kernel buffer a txOp will
// transmit and retransmit from (snapBuf). The txOp owns it until endTxOp
// hands it back (releaseSnapshot).
func (ep *Endpoint) snapshot(off uint64, n int) []byte {
	data := ep.snapBuf(n)
	copy(data, ep.mem[off:off+uint64(n)])
	return data
}

// snapBuf returns an n-byte buffer (nil for none) from the endpoint's
// freelist of power-of-two size classes, so a steady stream of writes,
// read replies or coalesced containers of any size reuses the same few
// buffers instead of allocating and zero-filling one per operation. Like
// a frame.Freelist, each class holds only what was outstanding at once,
// at most frame.PoolKeep, and none once the simulation stops.
func (ep *Endpoint) snapBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	class := bits.Len(uint(n - 1))
	if class < len(ep.snapFree) && len(ep.snapFree[class]) > 0 {
		free := ep.snapFree[class]
		data := free[len(free)-1][:n]
		free[len(free)-1] = nil
		ep.snapFree[class] = free[:len(free)-1]
		return data
	}
	return make([]byte, n, 1<<class)
}

// releaseSnapshot returns what snapBuf handed out, poisoned under
// frame.SetPoolDebug like any released frame buffer.
func (ep *Endpoint) releaseSnapshot(data []byte) {
	if cap(data) == 0 {
		return // no data: a read request, a probe
	}
	data = data[:cap(data)]
	frame.Poison(data)
	class := bits.Len(uint(len(data) - 1))
	for len(ep.snapFree) <= class {
		ep.snapFree = append(ep.snapFree, nil)
	}
	if len(ep.snapFree[class]) < frame.PoolKeep {
		ep.snapFree[class] = append(ep.snapFree[class], data)
	}
}
