package core_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// TestStaleIncarnationNeverApplied is the epoch-fence property (quick):
// a data frame stamped with ANY incarnation other than the connection's
// live one — older epochs, future epochs, and the zero "unused" value —
// is dropped at dispatch and never reaches receiver memory or ARQ
// state. The frames are crafted to be maximally plausible otherwise:
// correct ConnID, an in-window sequence number, a fresh op id and a
// valid destination address, so only the incarnation check can reject
// them.
func TestStaleIncarnationNeverApplied(t *testing.T) {
	cfg := reconnectConfig()
	cl, c01, c10 := pairCluster(t, cfg)

	// Force one real crash-restart recovery so the live incarnation is
	// not the initial one: the property must hold against a connection
	// that has history (epoch 1 frames are genuinely "stale", not just
	// malformed).
	const wn = 1 << 20
	wsrc := cl.Nodes[0].EP.Alloc(wn)
	wdst := cl.Nodes[1].EP.Alloc(wn)
	fill(cl.Nodes[0].EP.Mem()[wsrc:wsrc+wn], 17)
	cl.Env.After(2*sim.Millisecond, func() { cl.RestartNode(1, 150*sim.Millisecond) })
	var wrErr error
	cl.Env.Go("writer", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: wdst, Local: wsrc, Size: wn, Kind: frame.OpWrite}))
		h.Wait(p)
		wrErr = h.Err()
	})
	cl.Env.RunUntil(5 * sim.Second)
	if wrErr != nil {
		t.Fatalf("setup write across restart: %v", wrErr)
	}
	live := c10.Incarnation()
	if live < 2 {
		t.Fatalf("live incarnation %d, want >= 2 after a real reconnect", live)
	}
	if got := c01.Incarnation(); got != live {
		t.Fatalf("incarnation split brain: dialer %d, acceptor %d", got, live)
	}

	// The target region the forged writes aim at, with a pinned snapshot.
	const n = 4096
	dst := cl.Nodes[1].EP.Alloc(n)
	fill(cl.Nodes[1].EP.Mem()[dst:dst+n], 23)
	snap := append([]byte(nil), cl.Nodes[1].EP.Mem()[dst:dst+n]...)

	connID := c10.LocalIDForTest()
	rcvNxt0, maxSeen0 := c10.RcvStateForTest()
	now := cl.Env.Now()

	prop := func(delta uint16, seqOff uint8, opLow uint16, payload []byte) bool {
		// Map delta onto every incarnation EXCEPT the live one: live+1+k
		// for k in [0, 65534] walks the other 65535 values of the ring,
		// including zero.
		inc := live + 1 + delta%65535
		if len(payload) > 512 {
			payload = payload[:512]
		}
		if len(payload) == 0 {
			payload = []byte{0xEE}
		}
		h := frame.Header{
			Type:        frame.TypeData,
			ConnID:      connID,
			Seq:         rcvNxt0 + uint32(seqOff), // in-window: acceptable to ARQ
			OpID:        1<<20 + uint64(opLow),    // fresh op, above any real frontier
			OpType:      frame.OpWrite,
			Remote:      dst,
			Offset:      0,
			Total:       uint32(len(payload)),
			Incarnation: inc,
		}
		buf := frame.MustEncode(frame.NewAddr(1, 0), frame.NewAddr(0, 0), &h, payload)
		before := cl.Nodes[1].EP.Stats.StaleEpochDrops
		// Deliver straight into node 1's NIC rx path, as the switch
		// would — the forgery does not depend on node 0's sender state.
		cl.Env.After(0, func() {
			cl.Nodes[1].NICs[0].DeliverFrame(&phys.Frame{
				Buf: buf, Dst: frame.NewAddr(1, 0), Src: frame.NewAddr(0, 0),
			})
		})
		now += 300 * sim.Microsecond
		cl.Env.RunUntil(now)

		if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], snap) {
			t.Logf("incarnation %d (live %d): forged frame reached memory", inc, live)
			return false
		}
		rcvNxt, maxSeen := c10.RcvStateForTest()
		if rcvNxt != rcvNxt0 || maxSeen != maxSeen0 {
			t.Logf("incarnation %d: ARQ state moved: rcvNxt %d->%d maxSeen %d->%d",
				inc, rcvNxt0, rcvNxt, maxSeen0, maxSeen)
			return false
		}
		if got := cl.Nodes[1].EP.Stats.StaleEpochDrops; got != before+1 {
			t.Logf("incarnation %d: StaleEpochDrops %d, want %d — frame not fenced",
				inc, got, before+1)
			return false
		}
		return c10.Incarnation() == live && c10.State() != core.Reconnecting && c10.Err() == nil
	}
	qc := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(42)), // deterministic under sim
	}
	if err := quick.Check(prop, qc); err != nil {
		t.Fatal(err)
	}

	// The connection is still fully functional after 200 forgeries: a
	// genuine write with the live incarnation goes through.
	src2 := cl.Nodes[0].EP.Alloc(n)
	fill(cl.Nodes[0].EP.Mem()[src2:src2+n], 29)
	var postErr error
	cl.Env.Go("post", func(p *sim.Proc) {
		h := must(c01.Do(p, core.Op{Remote: dst, Local: src2, Size: n, Kind: frame.OpWrite}))
		h.Wait(p)
		postErr = h.Err()
	})
	cl.Env.RunUntil(now + sim.Second)
	if postErr != nil {
		t.Fatalf("live write after forgeries: %v", postErr)
	}
	if !bytes.Equal(cl.Nodes[1].EP.Mem()[dst:dst+n], cl.Nodes[0].EP.Mem()[src2:src2+n]) {
		t.Fatal("live write after forgeries did not land")
	}
}
