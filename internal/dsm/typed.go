package dsm

import (
	"encoding/binary"
	"math"
)

// Typed element accessors over shared byte slices. All shared data is
// little-endian, matching the Opteron nodes of the paper's cluster.

// F64 reads the i-th float64 of b.
func F64(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// SetF64 writes the i-th float64 of b.
func SetF64(b []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
}

// U32 reads the i-th uint32 of b.
func U32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[4*i:]) }

// SetU32 writes the i-th uint32 of b.
func SetU32(b []byte, i int, v uint32) { binary.LittleEndian.PutUint32(b[4*i:], v) }

// U64 reads the i-th uint64 of b.
func U64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }

// SetU64 writes the i-th uint64 of b.
func SetU64(b []byte, i int, v uint64) { binary.LittleEndian.PutUint64(b[8*i:], v) }
