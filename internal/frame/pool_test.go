package frame

import (
	"bytes"
	"multiedge/internal/race"
	"slices"
	"testing"
)

// encodeIntoCases covers every frame type, ack flag states, and payload
// shapes from empty to MaxPayload.
func encodeIntoCases() []struct {
	name    string
	dst     Addr
	src     Addr
	h       Header
	payload []byte
} {
	big := make([]byte, MaxPayload)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return []struct {
		name    string
		dst     Addr
		src     Addr
		h       Header
		payload []byte
	}{
		{"data", NewAddr(1, 0), NewAddr(2, 1), Header{Type: TypeData, ConnID: 7, Seq: 42, Ack: 41, HasAck: true, OpID: 9, OpType: OpWrite, Remote: 0x1000, Offset: 4, Total: 64}, []byte("payload bytes")},
		{"data-max", NewAddr(3, 1), NewAddr(4, 0), Header{Type: TypeData, ConnID: 1, Seq: 1, OpType: OpWrite, Total: MaxPayload}, big},
		{"ack", NewAddr(0, 0), NewAddr(255, 255), Header{Type: TypeAck, ConnID: 3, Ack: 77, HasAck: true}, nil},
		{"nack", NewAddr(9, 0), NewAddr(8, 0), Header{Type: TypeNack, ConnID: 2, Ack: 5, HasAck: true}, EncodeNackPayload([]uint32{5, 6, 9})},
		{"readreq", NewAddr(1, 1), NewAddr(2, 0), Header{Type: TypeReadReq, ConnID: 4, Seq: 10, OpID: 3, OpType: OpRead, Remote: 64, Local: 128, Total: 256}, nil},
		{"connreq", NewAddr(5, 0), NewAddr(6, 0), Header{Type: TypeConnReq, ConnID: 11, Incarnation: 2}, nil},
		{"heartbeat", NewAddr(5, 0), NewAddr(6, 0), Header{Type: TypeHeartbeat, ConnID: 11, Seq: 900, Incarnation: 7}, nil},
		{"reset", NewAddr(5, 0), NewAddr(6, 0), Header{Type: TypeReset, ConnID: 11, Incarnation: 3}, nil},
	}
}

// TestEncodeIntoMatchesEncode pins EncodeInto's output byte-identical
// to Encode's for every frame shape, including when the target buffer
// is dirty from a previous (poisoned) life.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	for _, tc := range encodeIntoCases() {
		want, err := Encode(tc.dst, tc.src, &tc.h, tc.payload)
		if err != nil {
			t.Fatalf("%s: Encode: %v", tc.name, err)
		}
		dirty := make([]byte, BufCap)
		for i := range dirty {
			dirty[i] = 0xDB
		}
		got, err := EncodeInto(dirty, tc.dst, tc.src, &tc.h, tc.payload)
		if err != nil {
			t.Fatalf("%s: EncodeInto: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: EncodeInto output differs from Encode", tc.name)
		}
		if _, _, _, _, err := Decode(got); err != nil {
			t.Fatalf("%s: Decode(EncodeInto): %v", tc.name, err)
		}
	}
}

// TestEncodeIntoShortBufferFallsBack: a too-small target must yield a
// correct frame via the allocation fallback, never a panic or a
// truncated buffer.
func TestEncodeIntoShortBufferFallsBack(t *testing.T) {
	h := Header{Type: TypeData, ConnID: 1, Seq: 2, OpType: OpWrite, Total: 8}
	pay := []byte("01234567")
	want := MustEncode(NewAddr(1, 0), NewAddr(2, 0), &h, pay)
	got := MustEncodeInto(make([]byte, 0, 4), NewAddr(1, 0), NewAddr(2, 0), &h, pay)
	if !bytes.Equal(got, want) {
		t.Fatalf("fallback output differs from Encode")
	}
}

func TestEncodeIntoOversize(t *testing.T) {
	h := Header{Type: TypeData}
	if _, err := EncodeInto(make([]byte, BufCap), 0, 0, &h, make([]byte, MaxPayload+1)); err == nil {
		t.Fatalf("EncodeInto accepted an oversize payload")
	}
}

// TestAppendNackPayloadReuse pins the scratch-reuse NACK encoder to
// EncodeNackPayload's bytes and to zero allocations once the scratch
// has grown (the hot-path leak this PR fixes: frame.go allocated a
// fresh payload per NACK).
func TestAppendNackPayloadReuse(t *testing.T) {
	missing := []uint32{3, 5, 8, 13, 21}
	want := EncodeNackPayload(missing)
	scratch := make([]byte, 0, 2+4*64)
	got := AppendNackPayload(scratch, missing)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendNackPayload differs from EncodeNackPayload")
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatalf("AppendNackPayload did not reuse the scratch buffer")
	}
	if race.Enabled {
		t.Skip("alloc counting is skipped under -race")
	}
	allocs := testing.AllocsPerRun(100, func() {
		scratch = AppendNackPayload(scratch, missing)
	})
	if allocs != 0 {
		t.Fatalf("AppendNackPayload with warm scratch: %v allocs/op, want 0", allocs)
	}
}

// TestAppendNackPayloadTruncates pins the cap shared with
// EncodeNackPayload.
func TestAppendNackPayloadTruncates(t *testing.T) {
	max := (MaxPayload - 2) / 4
	missing := make([]uint32, max+10)
	for i := range missing {
		missing[i] = uint32(i)
	}
	out := AppendNackPayload(nil, missing)
	seqs, err := DecodeNackPayload(out)
	if err != nil {
		t.Fatalf("DecodeNackPayload: %v", err)
	}
	if len(seqs) != max {
		t.Fatalf("truncated to %d seqs, want %d", len(seqs), max)
	}
}

// TestEncodeIntoAllocFree: the pooled Get→EncodeInto→Put cycle must
// not allocate in steady state.
func TestEncodeIntoAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counting is skipped under -race")
	}
	h := Header{Type: TypeData, ConnID: 1, Seq: 2, OpType: OpWrite, Total: 64}
	pay := make([]byte, 64)
	// Warm the pool so the first Get's backing allocation is done.
	var pool Pool
	pool.Put(pool.Get())
	allocs := testing.AllocsPerRun(200, func() {
		b := pool.Get()
		if _, err := EncodeInto(b.Bytes(), NewAddr(1, 0), NewAddr(2, 0), &h, pay); err != nil {
			t.Fatal(err)
		}
		pool.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("pooled encode cycle: %v allocs/op, want 0", allocs)
	}
}

// TestPutBufDoubleReleasePanics: releasing the same buffer twice must
// panic — a double release would hand one buffer to two owners — with
// or without a pool.
func TestPutBufDoubleReleasePanics(t *testing.T) {
	var pool Pool
	for _, c := range []struct {
		name string
		get  func() *Buf
		put  func(*Buf)
	}{{"PutBuf", GetBuf, PutBuf}, {"Pool.Put", pool.Get, pool.Put}} {
		b := c.get()
		c.put(b)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("second %s did not panic", c.name)
				}
			}()
			c.put(b)
		}()
	}
}

// TestPoolRecycles: a pool hands a released buffer out again, and two
// pools share nothing.
func TestPoolRecycles(t *testing.T) {
	var a, b Pool
	x := a.Get()
	a.Put(x)
	if b.Get() == x {
		t.Fatal("a buffer released to one pool came out of another")
	}
	if a.Get() != x {
		t.Fatal("the pool did not hand its released buffer out again")
	}
}

// TestFreelistKeepsPoolKeep: a freelist hands records out last in,
// first out, keeps at most PoolKeep idle, and none after Trim.
func TestFreelistKeepsPoolKeep(t *testing.T) {
	var f Freelist[int]
	xs := make([]*int, PoolKeep+10)
	for i := range xs {
		xs[i] = f.Get()
	}
	for _, x := range xs {
		f.Put(x)
	}
	if len(f.idle) != PoolKeep {
		t.Fatalf("%d idle, want %d", len(f.idle), PoolKeep)
	}
	if f.Get() != xs[PoolKeep-1] {
		t.Fatal("Get did not hand out the last record kept")
	}
	f.Trim()
	if len(f.idle) != 0 || slices.Contains(xs, f.Get()) {
		t.Fatal("Trim kept idle records")
	}
}

// TestPoolPoisoning: with debug poisoning on, a released buffer is
// overwritten so use-after-release reads garbage, and the next
// EncodeInto over the poisoned buffer, which the pool hands out again,
// still produces a frame byte-identical to a fresh Encode.
func TestPoolPoisoning(t *testing.T) {
	prev := SetPoolDebug(true)
	defer SetPoolDebug(prev)
	var p Pool
	b := p.Get()
	h := Header{Type: TypeData, ConnID: 1, Seq: 9, OpType: OpWrite, Total: 4}
	buf := MustEncodeInto(b.Bytes(), NewAddr(1, 0), NewAddr(2, 0), &h, []byte("abcd"))
	stale := buf // aliases the pooled storage past its release below
	p.Put(b)
	for i, v := range stale {
		if v != 0xDB {
			t.Fatalf("byte %d not poisoned after Put: %#x", i, v)
		}
	}
	b2 := p.Get()
	defer p.Put(b2)
	if b2 != b {
		t.Fatal("the pool did not hand the poisoned buffer out again")
	}
	got := MustEncodeInto(b2.Bytes(), NewAddr(1, 0), NewAddr(2, 0), &h, []byte("abcd"))
	want := MustEncode(NewAddr(1, 0), NewAddr(2, 0), &h, []byte("abcd"))
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeInto over poisoned buffer differs from Encode")
	}
}
