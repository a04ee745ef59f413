package main

import (
	"encoding/binary"
	"math"
	"slices"
)

// The benchmark carries its own PRNG, fill/verify and percentile code so
// that the yardstick cannot move with the program it measures.

// mix is the splitmix64 finaliser; it turns structured keys (seed, rep,
// loop) into well-spread 64-bit values.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// key derives one stream key from a seed and two small indices.
func key(seed int64, a, b int) uint64 {
	return mix(mix(mix(uint64(seed))+uint64(a)) + uint64(b))
}

// repSeed is the cluster seed of rep r of a run started with -seed s. Reps
// of different runs share no seed, so the spread between runs is the spread
// a full reseed causes.
func repSeed(seed int64, r int) int64 {
	return int64(key(seed, r, 0) >> 1)
}

// rng is an xorshift64* stream.
type rng uint64

func newRNG(k uint64) rng {
	if k == 0 {
		k = 0x9e3779b97f4a7c15
	}
	return rng(k)
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

// between returns a value uniform in [lo, hi).
func (r *rng) between(lo, hi int64) int64 {
	return lo + int64(r.next()%uint64(hi-lo))
}

// stampStride is the distance between the operation stamps written into a
// buffer: a 256 KiB write carries 64 of them, a 64 B write one.
const stampStride = 4096

// fill writes the pattern of key k into b.
func fill(b []byte, k uint64) {
	r := newRNG(k)
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(b[i:], tail[:])
	}
}

// stamp marks b as the payload of operation op (op > 0) by overwriting the
// first eight bytes of every stride. It lets a buffer that is reused by
// many operations be verified without refilling it each time.
func stamp(b []byte, op uint64) {
	for off := 0; off+8 <= len(b); off += stampStride {
		binary.LittleEndian.PutUint64(b[off:], op)
	}
}

// matches reports whether b holds the pattern of key k, stamped with op
// when op > 0.
func matches(b []byte, k uint64, op uint64) bool {
	r := newRNG(k)
	i := 0
	for ; i+8 <= len(b); i += 8 {
		want := r.next()
		if op > 0 && i%stampStride == 0 {
			want = op
		}
		if binary.LittleEndian.Uint64(b[i:]) != want {
			return false
		}
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		for j := i; j < len(b); j++ {
			if b[j] != tail[j-i] {
				return false
			}
		}
	}
	return true
}

// percentileWidth is half the width, in percentile points, of the band of
// order statistics a percentile is averaged over.
const percentileWidth = 0.1

// percentile returns the p-th percentile (0 < p < 100) of a sorted sample, 0
// for an empty one: the mean of the order statistics from the nearest rank
// of p-percentileWidth to that of p+percentileWidth. Virtual time has
// nanosecond resolution and a 64 B operation takes the same number of
// nanoseconds millions of times over; a single order statistic would read
// the same on every seed, the mean over a narrow band does not. With few
// samples the band is one sample wide and this is the nearest-rank
// percentile.
func percentile(sorted []int32, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := func(p float64) int { return min(max(int(math.Ceil(p/100*float64(n)))-1, 0), n-1) }
	lo, hi := rank(p-percentileWidth), rank(p+percentileWidth)
	sum := 0.0
	for _, v := range sorted[lo : hi+1] {
		sum += float64(v)
	}
	return sum / float64(hi-lo+1)
}

// sortedCopy returns the concatenation of the parts, sorted. Samples are
// non-negative, so three passes of an 11-bit radix sort order them; a run
// pools millions of samples and a comparison sort would take seconds.
func sortedCopy(parts ...[]int32) []int32 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int32, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	const bits, buckets = 11, 1 << 11
	tmp := make([]int32, n)
	for shift := 0; shift < 32; shift += bits {
		var count [buckets + 1]int
		for _, v := range out {
			count[(v>>shift)&(buckets-1)+1]++
		}
		for i := 1; i <= buckets; i++ {
			count[i] += count[i-1]
		}
		for _, v := range out {
			d := (v >> shift) & (buckets - 1)
			tmp[count[d]] = v
			count[d]++
		}
		out, tmp = tmp, out
	}
	return out
}

// minMedMax summarises per-rep values; the median of an even count is the
// mean of the middle two.
func minMedMax(v []float64) (lo, med, hi float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return s[0], med, s[n-1]
}

// ratio is a/b, 0 when b is 0: every derived metric stays finite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
