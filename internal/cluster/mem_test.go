package cluster

import (
	"runtime"
	"testing"
	"time"

	"multiedge/internal/core"
)

// settledMem collects until every endpoint dropped so far has had its
// memory released (the collector runs cleanups on a goroutine of its own,
// after the cycle that found them) and returns the endpoint memory still
// live.
func settledMem() int64 {
	last, same := core.LiveMemBytes(), 0
	for i := 0; i < 200 && same < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if n := core.LiveMemBytes(); n == last {
			same++
		} else {
			last, same = n, 0
		}
	}
	return last
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestNodeMemoryContract: node memory is reserved, not zeroed. A fan-in
// cluster (65 nodes at the benchmark's 1.3 MB each) adds little to the
// Go heap, which used to carry all 85 MB of it zeroed; every byte reads
// zero until written and holds what was written; Close releases every
// node's memory, after which Mem is nil; and the cluster built next
// reads zero where the first one wrote.
func TestNodeMemoryContract(t *testing.T) {
	const nodes = 65
	cfg := OneLink1G(nodes)
	cfg.Core.MemBytes = 512*8*256 + 256<<10
	size := uint64(cfg.Core.MemBytes)
	offsets := []uint64{0, 1, 4095, 4096, size / 3, size / 2, size - 4097, size - 1}

	base := settledMem()
	heap := liveHeap()
	cl := New(cfg)
	if grown := int64(liveHeap()) - int64(heap); runtime.GOOS == "linux" && grown >= 8<<20 {
		t.Errorf("a %d-node cluster of %d B each added %d B to the Go heap, want under 8 MB", nodes, size, grown)
	}
	if got, want := core.LiveMemBytes()-base, int64(nodes)*int64(size); got != want {
		t.Errorf("live endpoint memory grew %d B, want %d", got, want)
	}
	for i, n := range cl.Nodes {
		mem := n.EP.Mem()
		if uint64(len(mem)) != size {
			t.Fatalf("node %d: Mem() is %d B, want %d", i, len(mem), size)
		}
		for _, off := range offsets {
			if mem[off] != 0 {
				t.Fatalf("node %d: untouched byte %d reads %#x", i, off, mem[off])
			}
			mem[off] = byte(i + int(off))
		}
		for _, off := range offsets {
			if mem[off] != byte(i+int(off)) {
				t.Fatalf("node %d: byte %d reads %#x after writing %#x", i, off, mem[off], byte(i+int(off)))
			}
		}
	}

	cl.Close()
	for i, n := range cl.Nodes {
		if n.EP.Mem() != nil {
			t.Fatalf("node %d: Mem() is still %d B after Close", i, len(n.EP.Mem()))
		}
	}
	if got := core.LiveMemBytes(); got > base {
		t.Errorf("%d B of endpoint memory live after Close, %d before New", got, base)
	}
	cl.Close() // a second Close releases nothing twice

	next := New(cfg)
	defer next.Close()
	for i, n := range next.Nodes {
		for _, off := range offsets {
			if b := n.EP.Mem()[off]; b != 0 {
				t.Fatalf("next cluster, node %d: byte %d reads %#x where the closed one wrote", i, off, b)
			}
		}
	}
}

// TestDroppedClusterReleasesMemory: a cluster nobody closes still hands
// its memory back once the collector finds it unreachable, which is how
// every run that never calls Close ends.
func TestDroppedClusterReleasesMemory(t *testing.T) {
	base := settledMem()
	func() {
		cfg := OneLink1G(2)
		cfg.Core.MemBytes = 64 << 20
		cl := New(cfg)
		cl.Pair() // conns, timers and parked processes, as a run leaves them
		for _, n := range cl.Nodes {
			mem := n.EP.Mem()
			for off := 0; off < len(mem); off += 1 << 20 {
				mem[off] = 1
			}
		}
		if got, want := core.LiveMemBytes()-base, int64(2*cfg.Core.MemBytes); got != want {
			t.Errorf("live endpoint memory grew %d B, want %d", got, want)
		}
	}()
	if got := settledMem(); got > base {
		t.Errorf("%d B of endpoint memory still live after the cluster was dropped and collected, %d before", got, base)
	}
}
