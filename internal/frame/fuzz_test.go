package frame

import (
	"bytes"
	"testing"

	"multiedge/internal/race"
)

// fuzzSeeds builds the seed corpus: one well-formed frame per frame
// type, exercising payloads, piggy-backed acks, op metadata, and a
// non-zero incarnation, plus MultiData and NACK payload encodings.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	add := func(h Header, payload []byte) {
		seeds = append(seeds, MustEncode(NewAddr(1, 0), NewAddr(0, 1), &h, payload))
	}
	pay := make([]byte, 100)
	for i := range pay {
		pay[i] = byte(i * 3)
	}
	add(Header{Type: TypeData, ConnID: 7, Seq: 42, Ack: 17, HasAck: true,
		OpID: 9, OpType: OpWrite, OpFlags: Notify | FenceAfter,
		Remote: 0x1000, Offset: 512, Total: 4096, Incarnation: 3}, pay)
	add(Header{Type: TypeData, ConnID: 7, Seq: 43, OpID: 10, OpType: OpReadReply,
		Remote: 0x2000, Local: 0x3000, Total: uint32(len(pay))}, pay)
	add(Header{Type: TypeReadReq, ConnID: 7, Seq: 44, OpID: 11, OpType: OpRead,
		Remote: 0x4000, Local: 0x5000, Total: 1 << 20, Incarnation: 65535}, nil)
	add(Header{Type: TypeAck, ConnID: 7, Ack: 99, HasAck: true}, nil)
	add(Header{Type: TypeNack, ConnID: 7, Ack: 99, HasAck: true},
		EncodeNackPayload([]uint32{100, 103, 107}))
	add(Header{Type: TypeConnReq, ConnID: 3, OpID: 2, Incarnation: 1}, nil)
	add(Header{Type: TypeConnAck, ConnID: 3, OpID: 5, Incarnation: 1}, nil)
	add(Header{Type: TypeConnClose, ConnID: 3, OpID: 5}, nil)
	add(Header{Type: TypeConnCloseAck, ConnID: 5}, nil)
	multi, err := EncodeMultiPayload([]SubOp{
		{OpID: 20, Flags: Notify, Remote: 0x6000, Data: pay[:16]},
		{OpID: 21, Remote: 0x7000, Data: pay[:32]},
	})
	if err != nil {
		panic(err)
	}
	add(Header{Type: TypeMultiData, ConnID: 7, Seq: 45, Incarnation: 2}, multi)
	add(Header{Type: TypeHeartbeat, ConnID: 7, Ack: 50, HasAck: true}, nil)
	add(Header{Type: TypeReset, ConnID: 7, Incarnation: 9}, nil)
	// The two header flag bits beside HasAck: a congestion echo on an ACK,
	// and a data frame whose sender is blocked on its acknowledgement.
	add(Header{Type: TypeAck, ConnID: 7, Ack: 100, HasAck: true, EcnEcho: true}, nil)
	add(Header{Type: TypeData, ConnID: 7, Seq: 46, Ack: 17, HasAck: true, AckReq: true,
		OpID: 12, OpType: OpWrite, OpFlags: FenceAfter, Remote: 0x1000, Total: 16}, pay[:16])
	// Maximum-size frame: the MTU boundary.
	add(Header{Type: TypeData, ConnID: 1, Seq: 1, OpID: 1, OpType: OpWrite,
		Total: MaxPayload}, make([]byte, MaxPayload))
	return seeds
}

// FuzzFrameDecode asserts the decoder's core contract under arbitrary
// input: it never panics, and every frame it ACCEPTS re-encodes
// bit-exactly from the decoded form. The second half is the load-bearing
// property — a frame that decodes into a header which encodes
// differently would mean some wire bits are invisible to the decoded
// representation (the exact bug class the incarnation field could have
// introduced had it been left out of Encode or Decode).
func FuzzFrameDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	// A few malformed variants steer the fuzzer at the error paths.
	valid := fuzzSeeds()[0]
	f.Add(valid[:EthHeaderLen+HeaderLen-1]) // truncated
	corrupt := append([]byte(nil), valid...)
	corrupt[EthHeaderLen+offCRC] ^= 0xff // bad checksum
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, buf []byte) {
		dst, src, h, payload, err := Decode(buf)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		re := MustEncode(dst, src, &h, payload)
		if !bytes.Equal(re, buf) {
			t.Fatalf("accepted frame does not re-encode bit-exactly:\n in: %x\nout: %x", buf, re)
		}
		// Decoded geometry must be internally consistent.
		if len(payload) > MaxPayload {
			t.Fatalf("accepted payload of %d bytes > MaxPayload", len(payload))
		}
		if h.Type < TypeData || h.Type > TypeReset {
			t.Fatalf("accepted unknown type %d", h.Type)
		}
	})
}

// TestFuzzSeedsRoundTrip runs every seed through the fuzz body so the
// corpus is validated in ordinary `go test` runs, not only under -fuzz.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	for i, s := range fuzzSeeds() {
		dst, src, h, payload, err := Decode(s)
		if err != nil {
			t.Fatalf("seed %d does not decode: %v", i, err)
		}
		if re := MustEncode(dst, src, &h, payload); !bytes.Equal(re, s) {
			t.Fatalf("seed %d round trip mismatch", i)
		}
	}
}

// checkMultiReader holds the in-place walker to DecodeMultiPayload on one
// payload: the same sub-ops aliasing the same bytes, and an ErrTooShort
// exactly where the reference reports one.
func checkMultiReader(t *testing.T, p []byte) {
	t.Helper()
	want, wantErr := DecodeMultiPayload(p)
	var got []SubOp
	r, err := ReadMultiPayload(p)
	for err == nil && r.Len() > 0 {
		var s SubOp
		if s, err = r.Next(); err == nil {
			got = append(got, s)
		}
	}
	if err != wantErr {
		t.Fatalf("payload %x: walker error %v, DecodeMultiPayload %v", p, err, wantErr)
	}
	if err != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("payload %x: walker read %d sub-ops, DecodeMultiPayload %d", p, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.OpID != w.OpID || g.Flags != w.Flags || g.Remote != w.Remote || len(g.Data) != len(w.Data) ||
			(len(w.Data) > 0 && &g.Data[0] != &w.Data[0]) {
			t.Fatalf("payload %x: sub-op %d = %+v, DecodeMultiPayload %+v", p, i, g, w)
		}
	}
}

// multiSeeds is every payload of the frame seed corpus, MultiData or
// not: the walker has to agree with the reference on garbage too.
func multiSeeds() [][]byte {
	var seeds [][]byte
	for _, s := range fuzzSeeds() {
		if _, _, _, payload, err := Decode(s); err == nil {
			seeds = append(seeds, payload)
		}
	}
	full := make([]SubOp, 32)
	for i := range full {
		full[i] = SubOp{OpID: uint64(i), Flags: OpFlags(i & 7), Remote: uint64(64 * i), Data: make([]byte, i%5)}
	}
	p, err := EncodeMultiPayload(full)
	if err != nil {
		panic(err)
	}
	return append(seeds, p, []byte{0, 0}, []byte{0, 1}, nil)
}

// FuzzMultiReader: the walker the receive path uses never disagrees with
// DecodeMultiPayload, whatever the bytes.
func FuzzMultiReader(f *testing.F) {
	for _, s := range multiSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkMultiReader)
}

// TestMultiReaderAgainstDecode runs the fuzz body over the seed corpus,
// every truncation of it and seeded single-byte corruptions (count and
// length fields included), and pins that a walk allocates nothing.
func TestMultiReaderAgainstDecode(t *testing.T) {
	short := 0
	for _, p := range multiSeeds() {
		for cut := 0; cut <= len(p); cut++ {
			checkMultiReader(t, p[:cut])
			if _, err := DecodeMultiPayload(p[:cut]); err == ErrTooShort {
				short++
			}
		}
		for i := 0; i < len(p) && i < 64; i++ {
			q := append([]byte(nil), p...)
			q[i] ^= byte(1 + i)
			checkMultiReader(t, q)
		}
	}
	if short < 100 {
		t.Errorf("only %d truncated payloads were rejected", short)
	}
	if race.Enabled {
		return // alloc counting is skipped under -race
	}
	p := multiSeeds()[len(multiSeeds())-4] // the 32-sub-op payload
	var ids uint64
	allocs := testing.AllocsPerRun(100, func() {
		r, err := ReadMultiPayload(p)
		for err == nil && r.Len() > 0 {
			var s SubOp
			s, err = r.Next()
			ids += s.OpID
		}
	})
	if allocs != 0 || ids == 0 {
		t.Errorf("walking 32 sub-ops allocates %v times (ids %d), want 0", allocs, ids)
	}
}
