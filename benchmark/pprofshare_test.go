package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// A hand-built profile: the smallest protobuf writer that can express what
// runtime/pprof emits, so the reader is tested against the wire format and
// not against itself.

func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(b []byte, num int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, payload []byte) []byte {
	b = pbVarint(b, uint64(num)<<3|2)
	b = pbVarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = pbVarint(p, v)
	}
	return pbBytes(b, num, p)
}

// profileBuilder interns strings and functions and emits one location per
// stack entry; an entry of several names is one location with inlined calls,
// innermost first.
type profileBuilder struct {
	strings   []string
	funcs     map[string]uint64
	body      []byte
	locations uint64
}

func newProfileBuilder() *profileBuilder {
	return &profileBuilder{strings: []string{""}, funcs: map[string]uint64{}}
}

func (p *profileBuilder) str(s string) uint64 {
	for i, t := range p.strings {
		if t == s {
			return uint64(i)
		}
	}
	p.strings = append(p.strings, s)
	return uint64(len(p.strings) - 1)
}

func (p *profileBuilder) function(name string) uint64 {
	if id, ok := p.funcs[name]; ok {
		return id
	}
	id := uint64(len(p.funcs) + 1)
	p.funcs[name] = id
	var f []byte
	f = pbUint(f, 1, id)
	f = pbUint(f, 2, p.str(name))
	f = pbUint(f, 4, p.str(name+".go"))
	p.body = pbBytes(p.body, 5, f)
	return id
}

func (p *profileBuilder) location(inlined ...string) uint64 {
	p.locations++
	var l []byte
	l = pbUint(l, 1, p.locations)
	l = pbUint(l, 3, 0x1000+p.locations) // address: a field the reader skips
	for _, name := range inlined {
		var line []byte
		line = pbUint(line, 1, p.function(name))
		line = pbUint(line, 2, 42)
		l = pbBytes(l, 4, line)
	}
	p.body = pbBytes(p.body, 4, l)
	return p.locations
}

// sample adds one stack, leaf first, with the given CPU nanoseconds.
func (p *profileBuilder) sample(packed bool, ns uint64, stack ...[]string) {
	var ids []uint64
	for _, entry := range stack {
		ids = append(ids, p.location(entry...))
	}
	var s []byte
	if packed {
		s = pbPacked(s, 1, ids...)
		s = pbPacked(s, 2, 1, ns)
	} else {
		for _, id := range ids {
			s = pbUint(s, 1, id)
		}
		s = pbUint(s, 2, 1)
		s = pbUint(s, 2, ns)
	}
	p.body = pbBytes(p.body, 2, s)
}

func (p *profileBuilder) gzipped(t *testing.T) []byte {
	var sampleType []byte
	sampleType = pbUint(sampleType, 1, p.str("cpu"))
	sampleType = pbUint(sampleType, 2, p.str("nanoseconds"))
	raw := pbBytes(nil, 1, sampleType)
	raw = append(raw, p.body...)
	for _, s := range p.strings {
		raw = pbBytes(raw, 6, []byte(s))
	}
	raw = pbUint(raw, 9, 123456789) // time_nanos: skipped
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func one(names ...string) [][]string {
	out := make([][]string, len(names))
	for i, n := range names {
		out[i] = []string{n}
	}
	return out
}

func TestCPUSharesChargeTheInnermostLayerFrame(t *testing.T) {
	p := newProfileBuilder()
	// crc32 under frame under core: the innermost layer frame wins.
	p.sample(true, 30, one("hash/crc32.update", "multiedge/internal/frame.checksum",
		"multiedge/internal/core.(*Conn).sendFrame", "multiedge/internal/sim.(*Env).run", "main.main")...)
	// memmove called from core, on a process goroutine rooted in sim.
	p.sample(false, 20, one("runtime.memmove", "multiedge/internal/core.(*Conn).DoOn",
		"multiedge/internal/sim.(*Env).Go.func1")...)
	// Channel handoff lands on sim.
	p.sample(true, 10, one("runtime.chansend", "multiedge/internal/sim.(*Proc).park")...)
	// No repo frame: the collector's goroutine, then the scheduler.
	p.sample(true, 15, one("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker")...)
	p.sample(true, 5, one("runtime.schedule", "runtime.park_m", "runtime.mcall")...)
	// A package that is not a layer is skipped; here it is inlined into
	// its caller, innermost call first.
	p.sample(true, 10, []string{"multiedge/internal/trace.(*Trace).Add", "multiedge/internal/core.(*Endpoint).trc"},
		[]string{"multiedge/internal/sim.(*Env).run"})
	// The benchmark's own code.
	p.sample(true, 10, one("main.fill", "main.streamLoop", "multiedge/internal/sim.(*Env).Go.func1")...)

	shares, samples, err := cpuShares(p.gzipped(t))
	if err != nil {
		t.Fatal(err)
	}
	if samples != 7 {
		t.Errorf("samples = %d, want 7", samples)
	}
	want := map[string]float64{"frame": 30, "core": 30, "sim": 10, "runtime.gc": 15, "runtime.other": 5, "bench": 10,
		"phys": 0, "hostmodel": 0, "cluster": 0, "obs": 0}
	sum := 0.0
	for layer, w := range want {
		got, ok := shares[layer]
		if !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", layer, got, w)
		}
		sum += got
	}
	if len(shares) != len(want) || math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares %v sum to %v, want the %d layers summing to 100", shares, sum, len(want))
	}
}

func TestCPUSharesRejectDamagedProfiles(t *testing.T) {
	p := newProfileBuilder()
	p.sample(true, 10, one("multiedge/internal/sim.(*Env).run")...)
	gz := p.gzipped(t)
	if _, _, err := cpuShares(gz[:len(gz)/2]); err == nil {
		t.Error("a truncated gzip stream was accepted")
	}
	if _, _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("bytes that are no gzip stream were accepted")
	}
	if _, err := parseProfile([]byte{0x12, 0x7f, 0x01}); err == nil { // a sample longer than the input
		t.Error("a truncated message was accepted")
	}
}
