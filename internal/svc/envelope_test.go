package svc

import (
	"errors"
	"testing"

	"multiedge/internal/frame"
)

func TestRelayEnvelopeRoundTrip(t *testing.T) {
	in := relayEnvelope{
		Kind: kindCall, OpKind: frame.OpWrite, Flags: frame.Notify,
		Status: statusOK, Backend: 2, CallID: 77, Token: 0xdeadbeef,
		Remote: 1 << 40, Size: maxRelayPayload, Reply: 4096,
	}
	buf := make([]byte, relaySlotBytes)
	in.encode(buf)
	out, err := decodeRelayEnvelope(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestRelayEnvelopeDecodeRejects(t *testing.T) {
	good := relayEnvelope{Kind: kindReply, OpKind: frame.OpRead, Status: statusBackendDead, Size: 8}
	buf := make([]byte, relayHdrBytes)
	good.encode(buf)
	if _, err := decodeRelayEnvelope(buf); err != nil {
		t.Fatalf("valid envelope rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]byte)
	}{
		{"short", func(b []byte) {}}, // handled below with a truncated slice
		{"kind", func(b []byte) { b[0] = 9 }},
		{"opkind", func(b []byte) { b[1] = 200 }},
		{"status", func(b []byte) { b[3] = 7 }},
		{"oversize", func(b []byte) { b[32] = 0xff; b[33] = 0xff; b[34] = 0xff; b[35] = 0x7f }},
	}
	for _, tc := range cases {
		b := make([]byte, relayHdrBytes)
		good.encode(b)
		if tc.name == "short" {
			b = b[:relayHdrBytes-1]
		} else {
			tc.mutate(b)
		}
		if _, err := decodeRelayEnvelope(b); !errors.Is(err, errBadRelayEnvelope) {
			t.Errorf("%s: err = %v, want errBadRelayEnvelope", tc.name, err)
		}
	}
}
