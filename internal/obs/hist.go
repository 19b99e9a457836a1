package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The latency histogram uses exponential (power-of-two) buckets starting at
// histBase: bucket i covers durations in (histBase<<(i-1), histBase<<i],
// bucket 0 covers [0, histBase], and the final slot is the +Inf overflow.
// 28 doubling buckets from 256 ns reach ~34 s, which brackets everything
// from a buffer hit to a pathological batch.
const (
	histBase    = 256 * time.Nanosecond
	histBuckets = 28
)

// Histogram is a fixed-bucket exponential latency histogram with atomic
// counters; Observe is lock-free and safe for concurrent use. The zero
// value is ready to use.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64
	count  atomic.Int64
	sumNs  atomic.Int64
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	if d <= histBase {
		return 0
	}
	// ceil(log2(d / histBase)): the number of doublings needed.
	q := (uint64(d) + uint64(histBase) - 1) / uint64(histBase)
	idx := bits.Len64(q - 1)
	if idx > histBuckets {
		return histBuckets
	}
	return idx
}

// Observe records one duration. Negative durations (a clock oddity) count
// as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// BucketBound returns the inclusive upper bound of bucket i, or a negative
// duration for the +Inf overflow slot.
func BucketBound(i int) time.Duration {
	if i >= histBuckets {
		return -1
	}
	return histBase << uint(i)
}

// HistSnapshot is a point-in-time copy of a histogram. Counts has one entry
// per bucket plus the +Inf overflow slot; entries are per-bucket counts,
// not cumulative.
type HistSnapshot struct {
	Counts []int64
	Count  int64
	SumNs  int64
}

// Snapshot copies the histogram's counters. Taken while observations are in
// flight it is approximately consistent (each counter is individually
// atomic), which is the usual exposition contract.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Counts: make([]int64, histBuckets+1)}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNs = h.sumNs.Load()
	return s
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper bound of the bucket where the q-th observation falls. Overflow
// observations report the last finite bound. Returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			if b := BucketBound(i); b >= 0 {
				return b
			}
			return histBase << uint(histBuckets-1)
		}
	}
	return histBase << uint(histBuckets-1)
}
