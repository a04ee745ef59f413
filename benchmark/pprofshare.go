package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the gzipped protobuf that runtime/pprof writes, limited to
// what attribution needs: samples, locations, functions and the string
// table. Field numbers are those of pprof's profile.proto.

// cpuLayers are the layers a CPU sample can be charged to.
var cpuLayers = []string{"sim", "frame", "phys", "hostmodel", "core", "cluster", "obs", "bench", "runtime.gc", "runtime.other"}

const repoPrefix = "multiedge/internal/"

// gcRoots are the runtime's background collector goroutines; a stack with
// no repo frame that contains one of them is garbage collection.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf returns the layer a function belongs to, "" if none: a package
// below multiedge/internal that is a named layer, or the benchmark itself.
func layerOf(fn string) string {
	// The benchmark's package is main in its binary and carries its import
	// path in the test binary.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "multiedge/benchmark.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	for _, l := range cpuLayers[:7] {
		if l == pkg {
			return l
		}
	}
	return ""
}

// cpuShares decodes a CPU profile and charges every sample to the innermost
// frame on its stack that belongs to a layer, so that crc32 and memmove
// land on the layer that called them. Stacks with no such frame are the
// runtime's own: garbage collection, or scheduling and everything else.
// The shares are percentages of the sampled time and sum to 100.
func cpuShares(gz []byte) (shares map[string]float64, samples int, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	total := 0.0
	shares = map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu/nanoseconds comes last
		layer, gc := "", false
	stack:
		for _, loc := range s.locations { // leaf first
			for _, fid := range p.locations[loc] { // innermost inlined call first
				name := p.strings[p.functions[fid]]
				if layer = layerOf(name); layer != "" {
					break stack
				}
				for _, g := range gcRoots {
					gc = gc || name == g
				}
			}
		}
		switch {
		case layer != "":
		case gc:
			layer = "runtime.gc"
		default:
			layer = "runtime.other"
		}
		shares[layer] += v
		total += v
		samples++
	}
	for l := range shares {
		shares[l] = 100 * ratio(shares[l], total)
	}
	return shares, samples, nil
}

type profSample struct {
	locations []uint64
	values    []int64
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> index of its name
	strings   []string
}

var errTruncated = errors.New("truncated protobuf")

// protoField is one decoded field: a varint or a length-delimited payload.
type protoField struct {
	num  int
	wire int
	u    uint64
	b    []byte
}

// eachField calls fn for every field of the message in b.
func eachField(b []byte, fn func(f protoField) error) error {
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		f := protoField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			if f.u, n = uvarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (v uint64, n int) {
	for shift := uint(0); n < len(b) && shift < 64; shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
	return 0, 0
}

// repeated appends the values of a repeated integer field, packed or not.
func repeated(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.u), nil
	}
	for b := f.b; len(b) > 0; {
		v, n := uvarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s profSample
			var vals []uint64
			err := eachField(f.b, func(f protoField) (err error) {
				switch f.num {
				case 1:
					s.locations, err = repeated(s.locations, f)
				case 2:
					vals, err = repeated(vals, f)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(f.b, func(f protoField) error {
				switch f.num {
				case 1:
					id = f.u
				case 4: // Line
					return eachField(f.b, func(f protoField) error {
						if f.num == 1 {
							fns = append(fns, f.u)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(f.b, func(f protoField) error {
				switch f.num {
				case 1:
					id = f.u
				case 2:
					name = int64(f.u)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name %d outside the string table of %d", name, len(p.strings))
		}
	}
	for _, fns := range p.locations {
		for _, fid := range fns {
			if _, ok := p.functions[fid]; !ok {
				return nil, fmt.Errorf("location refers to unknown function %d", fid)
			}
		}
	}
	return p, nil
}
