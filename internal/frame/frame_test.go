package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// The slice-building codecs below are the references the in-place
// encoders and readers are tested against.

func EncodeNackPayload(missing []uint32) []byte { return AppendNackPayload(nil, missing) }

func DecodeNackPayload(p []byte) ([]uint32, error) { return AppendNackSeqs(nil, p) }

func EncodeMultiPayload(subs []SubOp) ([]byte, error) { return EncodeMultiPayloadInto(nil, subs) }

// DecodeMultiPayload parses a MultiData payload into sub-ops whose Data
// slices alias p.
func DecodeMultiPayload(p []byte) ([]SubOp, error) {
	if len(p) < multiCountLen {
		return nil, ErrTooShort
	}
	n := int(binary.BigEndian.Uint16(p))
	subs := make([]SubOp, 0, n)
	o := multiCountLen
	for i := 0; i < n; i++ {
		if len(p) < o+SubOpOverhead {
			return nil, ErrTooShort
		}
		s := SubOp{
			OpID:   binary.BigEndian.Uint64(p[o:]),
			Flags:  OpFlags(p[o+8]),
			Remote: binary.BigEndian.Uint64(p[o+9:]),
		}
		dn := int(binary.BigEndian.Uint16(p[o+17:]))
		if len(p) < o+SubOpOverhead+dn {
			return nil, ErrTooShort
		}
		s.Data = p[o+SubOpOverhead : o+SubOpOverhead+dn]
		subs = append(subs, s)
		o += SubOpOverhead + dn
	}
	return subs, nil
}

func TestAddr(t *testing.T) {
	a := NewAddr(12, 1)
	if a.Node() != 12 || a.Port() != 1 {
		t.Fatalf("addr = %d:%d, want 12:1", a.Node(), a.Port())
	}
	if a.String() != "12:1" {
		t.Errorf("String = %q", a.String())
	}
}

func TestAddrRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAddr(300,0) did not panic")
		}
	}()
	NewAddr(300, 0)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := Header{
		Type: TypeData, ConnID: 7, Seq: 1234, Ack: 1200, HasAck: true,
		OpID: 42, OpType: OpWrite, OpFlags: FenceBefore | Notify,
		Remote: 0xdeadbeef00, Local: 0x1000, Offset: 2888, Total: 65536,
	}
	payload := []byte("hello, multiedge")
	buf := MustEncode(NewAddr(3, 0), NewAddr(5, 1), &h, payload)
	dst, src, got, pl, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dst != NewAddr(3, 0) || src != NewAddr(5, 1) {
		t.Errorf("addrs = %v,%v", dst, src)
	}
	if got != h {
		t.Errorf("header = %+v, want %+v", got, h)
	}
	if !bytes.Equal(pl, payload) {
		t.Errorf("payload = %q", pl)
	}
}

func TestEncodeEmptyPayload(t *testing.T) {
	h := Header{Type: TypeAck, ConnID: 1, Ack: 99, HasAck: true}
	buf := MustEncode(NewAddr(0, 0), NewAddr(1, 0), &h, nil)
	if len(buf) != EthHeaderLen+HeaderLen {
		t.Fatalf("len = %d, want %d", len(buf), EthHeaderLen+HeaderLen)
	}
	_, _, got, pl, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(pl) != 0 || got.Ack != 99 || !got.HasAck {
		t.Errorf("got %+v payload %d bytes", got, len(pl))
	}
}

func TestEncodeMaxPayload(t *testing.T) {
	p := make([]byte, MaxPayload)
	for i := range p {
		p[i] = byte(i)
	}
	buf := MustEncode(1, 2, &Header{Type: TypeData}, p)
	if len(buf) != MTU+EthHeaderLen {
		t.Fatalf("full frame = %d bytes, want %d", len(buf), MTU+EthHeaderLen)
	}
	if _, _, _, pl, err := Decode(buf); err != nil || !bytes.Equal(pl, p) {
		t.Fatalf("decode of max frame failed: %v", err)
	}
}

func TestEncodeOversize(t *testing.T) {
	if _, err := Encode(1, 2, &Header{Type: TypeData}, make([]byte, MaxPayload+1)); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize payload: err = %v, want ErrOversize", err)
	}
}

func TestMustEncodeOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversize payload did not panic")
		}
	}()
	MustEncode(1, 2, &Header{Type: TypeData}, make([]byte, MaxPayload+1))
}

func TestDecodeShort(t *testing.T) {
	if _, _, _, _, err := Decode(make([]byte, 10)); err != ErrTooShort {
		t.Errorf("err = %v, want ErrTooShort", err)
	}
}

func TestDecodeCorruption(t *testing.T) {
	h := Header{Type: TypeData, ConnID: 1, Seq: 5}
	buf := MustEncode(1, 2, &h, []byte("payload bytes here"))
	// Flip each byte in turn; every corruption must be detected (CRC) —
	// except flips confined to the Ethernet header, which the CRC covers
	// too in our layout, so all flips must fail.
	for i := range buf {
		c := append([]byte(nil), buf...)
		c[i] ^= 0x40
		if _, _, _, _, err := Decode(c); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
}

func TestDecodeTruncation(t *testing.T) {
	buf := MustEncode(1, 2, &Header{Type: TypeData}, []byte("0123456789"))
	if _, _, _, _, err := Decode(buf[:len(buf)-3]); err == nil {
		t.Error("truncated frame decoded without error")
	}
}

func TestDecodeBadType(t *testing.T) {
	// Construct a frame with type 0 by corrupting and re-checksumming is
	// involved; instead verify Encode+manual type tweak fails checksum,
	// and a crafted frame with valid checksum but bad type is rejected.
	h := Header{Type: TypeData}
	buf := MustEncode(1, 2, &h, nil)
	buf[EthHeaderLen+offType] = 0
	if _, _, _, _, err := Decode(buf); err == nil {
		t.Error("zero-type frame accepted")
	}
}

// TestDecodeFlags pins the flags byte: every combination of the three
// known bits round-trips into its own header field, and a frame with any
// unknown bit set — checksum valid — is rejected with ErrBadFlags rather
// than decoded into a header that would re-encode differently.
func TestDecodeFlags(t *testing.T) {
	for fl := byte(0); fl <= flagsKnown; fl++ {
		h := Header{Type: TypeData, Seq: 5, Ack: 3,
			HasAck: fl&flagHasAck != 0, EcnEcho: fl&flagEcnEcho != 0, AckReq: fl&flagAckReq != 0}
		buf := MustEncode(1, 2, &h, []byte("x"))
		if got := buf[EthHeaderLen+offFlags]; got != fl {
			t.Fatalf("flags %#02x encoded as %#02x", fl, got)
		}
		_, _, got, _, err := Decode(buf)
		if err != nil || got != h {
			t.Fatalf("flags %#02x: decoded %+v (err %v), want %+v", fl, got, err, h)
		}
		if into := MustEncodeInto(make([]byte, BufCap), 1, 2, &h, []byte("x")); !bytes.Equal(into, buf) {
			t.Fatalf("flags %#02x: EncodeInto differs from Encode", fl)
		}
	}
	for bit := byte(1); bit != 0; bit <<= 1 {
		if bit&flagsKnown != 0 {
			continue
		}
		buf := MustEncode(1, 2, &Header{Type: TypeData, HasAck: true}, nil)
		buf[EthHeaderLen+offFlags] |= bit
		binary.BigEndian.PutUint32(buf[EthHeaderLen+offCRC:], checksum(buf))
		if _, _, _, _, err := Decode(buf); !errors.Is(err, ErrBadFlags) {
			t.Errorf("unknown flag bit %#02x: err = %v, want ErrBadFlags", bit, err)
		}
	}
}

func TestWireLen(t *testing.T) {
	if got := WireLen(60); got != 60+24 {
		t.Errorf("WireLen(60) = %d, want 84", got)
	}
}

func TestNackPayloadRoundTrip(t *testing.T) {
	miss := []uint32{5, 9, 10, 1 << 30}
	p := EncodeNackPayload(miss)
	got, err := DecodeNackPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(miss) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range miss {
		if got[i] != miss[i] {
			t.Fatalf("got %v, want %v", got, miss)
		}
	}
}

func TestNackPayloadEmpty(t *testing.T) {
	p := EncodeNackPayload(nil)
	got, err := DecodeNackPayload(p)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestNackPayloadTruncated(t *testing.T) {
	if _, err := DecodeNackPayload([]byte{0}); err == nil {
		t.Error("1-byte NACK payload accepted")
	}
	p := EncodeNackPayload([]uint32{1, 2, 3})
	if _, err := DecodeNackPayload(p[:5]); err == nil {
		t.Error("truncated NACK payload accepted")
	}
}

func TestNackPayloadCapped(t *testing.T) {
	many := make([]uint32, MaxPayload) // far above the cap
	p := EncodeNackPayload(many)
	if len(p) > MaxPayload {
		t.Fatalf("NACK payload %d exceeds MaxPayload", len(p))
	}
}

// Property: every header/payload combination round-trips exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(connID, seq, ack uint32, opID, remote, local uint64,
		offset, total uint32, typ, opTyp, opFl uint8, hasAck bool, n uint16) bool {
		h := Header{
			Type:   Type(typ%11) + TypeData,
			ConnID: connID, Seq: seq, Ack: ack, HasAck: hasAck,
			OpID: opID, OpType: OpType(opTyp % 4), OpFlags: OpFlags(opFl & 7),
			Remote: remote, Local: local, Offset: offset, Total: total,
		}
		payload := make([]byte, int(n)%MaxPayload)
		rand.New(rand.NewSource(int64(seq))).Read(payload)
		buf := MustEncode(NewAddr(int(connID%16), int(seq%2)), NewAddr(int(ack%16), 0), &h, payload)
		_, _, got, pl, err := Decode(buf)
		return err == nil && got == h && bytes.Equal(pl, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: random buffers never decode successfully by accident (CRC
// collision probability over random 100-byte buffers is negligible) and
// never panic.
func TestPropertyRandomBuffers(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		buf := make([]byte, int(n)%2000)
		rand.New(rand.NewSource(seed)).Read(buf)
		_, _, _, _, err := Decode(buf)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMultiPayloadRoundTrip(t *testing.T) {
	subs := []SubOp{
		{OpID: 7, Flags: FenceAfter, Remote: 0x100, Data: []byte("alpha")},
		{OpID: 8, Flags: 0, Remote: 0x2000, Data: nil},
		{OpID: 9, Flags: Notify | Solicit, Remote: 0xfeed, Data: []byte("gamma-gamma")},
	}
	p, err := EncodeMultiPayload(subs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMultiPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(subs) {
		t.Fatalf("len = %d, want %d", len(got), len(subs))
	}
	for i := range subs {
		g, w := got[i], subs[i]
		if g.OpID != w.OpID || g.Flags != w.Flags || g.Remote != w.Remote || !bytes.Equal(g.Data, w.Data) {
			t.Errorf("sub %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestMultiPayloadOversize(t *testing.T) {
	subs := []SubOp{
		{OpID: 1, Data: make([]byte, 800)},
		{OpID: 2, Data: make([]byte, 800)},
	}
	if _, err := EncodeMultiPayload(subs); !errors.Is(err, ErrOversize) {
		t.Errorf("err = %v, want ErrOversize", err)
	}
}

func TestMultiPayloadTruncated(t *testing.T) {
	if _, err := DecodeMultiPayload([]byte{9}); err == nil {
		t.Error("1-byte multi payload accepted")
	}
	p, err := EncodeMultiPayload([]SubOp{{OpID: 1, Data: []byte("abcdef")}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{3, SubOpOverhead, len(p) - 1} {
		if _, err := DecodeMultiPayload(p[:cut]); err == nil {
			t.Errorf("multi payload truncated to %d accepted", cut)
		}
	}
}

func TestMultiPayloadFramed(t *testing.T) {
	// A MultiData payload travels inside a regular frame.
	subs := []SubOp{{OpID: 3, Flags: Notify, Remote: 64, Data: []byte("x")}}
	pl, err := EncodeMultiPayload(subs)
	if err != nil {
		t.Fatal(err)
	}
	h := Header{Type: TypeMultiData, ConnID: 1, Seq: 9, OpID: 3, OpType: OpWrite, Total: uint32(len(pl))}
	buf := MustEncode(1, 2, &h, pl)
	_, _, got, p, err := Decode(buf)
	if err != nil || got.Type != TypeMultiData {
		t.Fatalf("decode: %v type %v", err, got.Type)
	}
	back, err := DecodeMultiPayload(p)
	if err != nil || len(back) != 1 || back[0].OpID != 3 {
		t.Fatalf("round trip: %v %+v", err, back)
	}
}

func TestCtrlTypesRoundTrip(t *testing.T) {
	// Heartbeat and Reset are the newest header types: both must pass the
	// decoder's type-range check (they extend the upper bound).
	for _, typ := range []Type{TypeHeartbeat, TypeReset} {
		h := Header{Type: typ, ConnID: 5, Ack: 77, HasAck: typ == TypeHeartbeat}
		buf := MustEncode(NewAddr(1, 0), NewAddr(2, 0), &h, nil)
		_, _, got, pl, err := Decode(buf)
		if err != nil {
			t.Fatalf("%v: Decode: %v", typ, err)
		}
		if got != h || len(pl) != 0 {
			t.Errorf("%v: got %+v payload %d bytes", typ, got, len(pl))
		}
	}
}

func TestStringers(t *testing.T) {
	if TypeData.String() != "DATA" || TypeNack.String() != "NACK" {
		t.Error("Type.String wrong")
	}
	if TypeHeartbeat.String() != "HEARTBEAT" || TypeReset.String() != "RESET" {
		t.Error("ctrl Type.String wrong")
	}
	if OpWrite.String() != "write" || OpReadReply.String() != "readreply" {
		t.Error("OpType.String wrong")
	}
	if Type(99).String() == "" || OpType(99).String() == "" {
		t.Error("unknown stringers empty")
	}
}

func BenchmarkEncode(b *testing.B) {
	h := Header{Type: TypeData, ConnID: 1, Seq: 7, OpID: 3, OpType: OpWrite, Total: 1 << 20}
	payload := make([]byte, MaxPayload)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		MustEncode(1, 2, &h, payload)
	}
}

func BenchmarkDecode(b *testing.B) {
	h := Header{Type: TypeData, ConnID: 1, Seq: 7, OpID: 3, OpType: OpWrite, Total: 1 << 20}
	buf := MustEncode(1, 2, &h, make([]byte, MaxPayload))
	b.SetBytes(int64(MaxPayload))
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
