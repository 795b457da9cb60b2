package stats

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

func TestLogHistEmpty(t *testing.T) {
	var h LogHist
	if h.N() != 0 || h.Median() != 0 || h.Percentile(99) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

// The histogram answers every percentile as Summary does on the same
// samples: exactly where the nearest-rank sample is below 64, within 1/64
// of it above, and exactly at the extremes.
func TestLogHistMatchesSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := []struct {
		name string
		gen  func() int64
	}{
		{"small", func() int64 { return rng.Int63n(64) }},
		{"faults", func() int64 { return 40 + rng.Int63n(400) }},
		{"wide", func() int64 { return int64(math.Exp(rng.Float64() * math.Log(logHistMax))) }},
		{"mixed", func() int64 {
			return []int64{rng.Int63n(70), 1000 + rng.Int63n(9000), rng.Int63n(logHistMax)}[rng.Intn(3)]
		}},
		{"constant", func() int64 { return 12345 }},
	}
	ps := []float64{0, 0.1, 1, 10, 25, 50, 75, 90, 99, 99.9, 100}
	for _, g := range gens {
		name, gen := g.name, g.gen
		for _, n := range []int{1, 2, 3, 10, 101, 5000} {
			var h LogHist
			var s Summary
			for i := 0; i < n; i++ {
				v := gen()
				h.Add(v)
				s.Add(float64(v))
			}
			if h.N() != s.N() {
				t.Fatalf("%s/%d: N = %d, want %d", name, n, h.N(), s.N())
			}
			for _, p := range ps {
				got, want := h.Percentile(p), s.Percentile(p)
				exact := want < logHistExact || p <= 0 || p >= 100
				if exact && got != want {
					t.Errorf("%s/%d: p%v = %v, want exactly %v", name, n, p, got, want)
				}
				if !exact && math.Abs(got-want) > want/64 {
					t.Errorf("%s/%d: p%v = %v, want %v within 1/64", name, n, p, got, want)
				}
			}
			if h.Median() != h.Percentile(50) {
				t.Errorf("%s/%d: Median differs from Percentile(50)", name, n)
			}
		}
	}
}

// Every bucket's middle maps back to that bucket, buckets tile the range
// with no gap, and out-of-range samples clamp instead of indexing past the
// array.
func TestLogHistBuckets(t *testing.T) {
	prev := -1
	for v := int64(0); v < logHistMax; v += 1 + v/4096 {
		i := logHistBucket(v)
		if i < prev || i > prev+1 {
			t.Fatalf("sample %d: bucket %d after %d, want monotone with no gap", v, i, prev)
		}
		prev = i
	}
	if prev != logHistBuckets-1 {
		t.Fatalf("top sample in bucket %d, want %d", prev, logHistBuckets-1)
	}
	for i := 0; i < logHistBuckets; i++ {
		if got := logHistBucket(int64(logHistMid(i))); got != i {
			t.Fatalf("bucket %d: its middle %v maps to bucket %d", i, logHistMid(i), got)
		}
	}
	var h LogHist
	h.Add(-5)
	h.Add(math.MaxInt64)
	if h.Percentile(0) != 0 || h.Percentile(100) != math.MaxInt64 || h.N() != 2 {
		t.Fatalf("clamped samples: min %v max %v n %d", h.Percentile(0), h.Percentile(100), h.N())
	}
	if size := unsafe.Sizeof(h); size > 6<<10 {
		t.Fatalf("LogHist is %d bytes, want a few KB", size)
	}
}
