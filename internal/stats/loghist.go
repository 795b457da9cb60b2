package stats

import (
	"math"
	"math/bits"
)

// LogHist geometry: every integer below 2·logHistSub has its own bucket;
// above that each power-of-two range [2^e, 2^(e+1)) splits into
// logHistSub equal buckets, up to 2^logHistMaxBits.
const (
	logHistSubBits = 5
	logHistSub     = 1 << logHistSubBits // buckets per power of two
	logHistExact   = 2 * logHistSub      // samples below this are exact
	logHistMaxBits = 24
	// logHistMax is the first sample value past the bucketed range; larger
	// samples are counted in the top bucket.
	logHistMax     = 1 << logHistMaxBits
	logHistBuckets = (logHistMaxBits - logHistSubBits + 1) * logHistSub
)

// LogHist is a fixed-size log-linear histogram of non-negative integer
// samples, such as latencies in whole microseconds. It is a plain value —
// no slice, map or pointer — so copying it is a coherent snapshot, and its
// size (about 5 KB) does not grow with the number of samples.
//
// Resolution: a sample below 64 is kept exactly. Above that, Percentile
// answers with the middle of the bucket holding the nearest-rank sample,
// which is within 1/64 (1.6%) of that sample; samples of 2^24 or more
// (16.8 s in microseconds) share the top bucket. Percentile(0) and
// Percentile(100) are always the exact minimum and maximum. The zero value
// is ready to use.
type LogHist struct {
	n        int64
	min, max int64
	counts   [logHistBuckets]uint64
}

// logHistBucket maps a sample to its bucket index.
func logHistBucket(v int64) int {
	if v < logHistExact {
		return int(v)
	}
	if v >= logHistMax {
		v = logHistMax - 1
	}
	shift := bits.Len64(uint64(v)) - 1 - logHistSubBits
	return shift*logHistSub + int(v>>shift)
}

// logHistMid returns the middle integer of bucket i's value range.
func logHistMid(i int) float64 {
	if i < logHistExact {
		return float64(i)
	}
	shift := i/logHistSub - 1
	lo := int64(i-shift*logHistSub) << shift
	return float64(lo) + float64(int64(1)<<shift-1)/2
}

// Add records one sample; negative samples count as 0.
func (h *LogHist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.counts[logHistBucket(v)]++
}

// N reports the number of samples.
func (h *LogHist) N() int { return int(h.n) }

// Percentile reports the p-th percentile (0 <= p <= 100) by the same
// nearest-rank definition as Summary.Percentile, to the resolution stated
// on the type. With no samples it returns 0.
func (h *LogHist) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return float64(h.min)
	}
	if p >= 100 {
		return float64(h.max)
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if cum += c; cum >= rank {
			return math.Min(math.Max(logHistMid(i), float64(h.min)), float64(h.max))
		}
	}
	return float64(h.max)
}

// Median is Percentile(50).
func (h *LogHist) Median() float64 { return h.Percentile(50) }
