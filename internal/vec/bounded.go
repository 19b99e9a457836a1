package vec

import (
	"fmt"
	"math"
)

// BoundedMetric is a Metric that can evaluate a distance under a known upper
// bound, abandoning the per-coordinate loop as soon as the running partial
// result proves the exact distance irrelevant. This is the classic
// partial-distance early-abandonment complement to triangle-inequality
// pruning: the avoidance lemmas skip distance *calls*, the bounded kernel
// cheapens the calls that cannot be skipped.
//
// The contract is deliberately strict so that query processing built on top
// stays bit-identical to full evaluation:
//
//   - If within is true, d equals Distance(a, b) exactly (same floating-
//     point operations in the same order) and dist(a, b) <= limit held at
//     the caller's comparison granularity: any consumer that would accept
//     d <= limit accepts the same items either way.
//   - If within is false, the full Distance(a, b) value is strictly greater
//     than limit, so an item filtered by "dist <= limit" could never have
//     qualified. d is then only a lower bound on the true distance and must
//     not be used as the distance itself.
//
// Kernels guarantee the within=false direction without tolerances: partial
// accumulations are monotonically non-decreasing, and whenever a kernel
// needs a non-monotone finalization (sqrt, x^(1/p)) it confirms the abandon
// decision by applying the same finalization to the partial sum, so
// monotonicity of the finalizer carries the strict inequality through to
// the full-evaluation result.
//
// The blocked page pass (rows.go) evaluates the same predicate: its generic
// body calls DistanceWithin itself, and its Euclidean bodies add each
// lane's terms in euclideanWithin's order, so the per-pair path and the row
// path cannot drift apart.
type BoundedMetric interface {
	Metric
	// DistanceWithin reports whether dist(a, b) <= limit, abandoning the
	// accumulation early when the partial result already exceeds the
	// bound. See the interface comment for the exact d/within contract.
	DistanceWithin(a, b Vector, limit float64) (d float64, within bool)
}

// DistanceWithin evaluates dist(a, b) under the upper bound limit using m's
// native bounded kernel when it has one, and a full calculation otherwise.
// It is the generic entry point for metrics (e.g. the quadratic form) that
// do not implement BoundedMetric: the result contract is identical, only
// the early-abandonment saving is lost.
func DistanceWithin(m Metric, a, b Vector, limit float64) (float64, bool) {
	if bm, ok := m.(BoundedMetric); ok {
		return bm.DistanceWithin(a, b, limit)
	}
	d := m.Distance(a, b)
	return d, d <= limit
}

// DistanceWithin is the early-abandoning Euclidean kernel: it accumulates
// in squared space with a 4-wide unrolled loop, compares partial sums
// against limit², and takes the square root only on success. The abandon
// path confirms sqrt(partial) > limit before giving up, so boundary cases
// where s barely exceeds limit² but sqrt(s) still rounds to limit are
// never misclassified (math.Sqrt is correctly rounded, hence monotone).
func (Euclidean) DistanceWithin(a, b Vector, limit float64) (float64, bool) {
	return euclideanWithin(a, b, limit)
}

// euclideanWithin is the Euclidean kernel body, shared with Minkowski p = 2.
//
// The check cadence is two-phase: every 4 elements for the first 16 —
// low-dimensional vectors and far pairs abandon at the earliest possible
// block — then every 16. On long vectors whose partial sum crosses the
// limit only near the end (tight bounds over clustered data, where most
// of the distance accrues in every block), a per-block check costs more
// than the abandonment saves; the sparser cadence caps that overhead at a
// quarter while giving up at most 12 extra elements of saving. The
// accumulation order is identical in all phases, so the within=true
// result stays bit-equal to Distance.
func euclideanWithin(a, b Vector, limit float64) (float64, bool) {
	mustSameDim(a, b)
	lim2 := limit * limit
	var s float64
	n := len(a)
	head := n
	if head > 16 {
		head = 16
	}
	i := 0
	for ; i+4 <= head; i += 4 {
		d0 := a[i] - b[i]
		s += d0 * d0
		d1 := a[i+1] - b[i+1]
		s += d1 * d1
		d2 := a[i+2] - b[i+2]
		s += d2 * d2
		d3 := a[i+3] - b[i+3]
		s += d3 * d3
		if s > lim2 {
			if d := math.Sqrt(s); d > limit {
				return d, false
			}
		}
	}
	for ; i+16 <= n; i += 16 {
		a16, b16 := a[i:i+16], b[i:i+16]
		d0 := a16[0] - b16[0]
		s += d0 * d0
		d1 := a16[1] - b16[1]
		s += d1 * d1
		d2 := a16[2] - b16[2]
		s += d2 * d2
		d3 := a16[3] - b16[3]
		s += d3 * d3
		d4 := a16[4] - b16[4]
		s += d4 * d4
		d5 := a16[5] - b16[5]
		s += d5 * d5
		d6 := a16[6] - b16[6]
		s += d6 * d6
		d7 := a16[7] - b16[7]
		s += d7 * d7
		d8 := a16[8] - b16[8]
		s += d8 * d8
		d9 := a16[9] - b16[9]
		s += d9 * d9
		d10 := a16[10] - b16[10]
		s += d10 * d10
		d11 := a16[11] - b16[11]
		s += d11 * d11
		d12 := a16[12] - b16[12]
		s += d12 * d12
		d13 := a16[13] - b16[13]
		s += d13 * d13
		d14 := a16[14] - b16[14]
		s += d14 * d14
		d15 := a16[15] - b16[15]
		s += d15 * d15
		if s > lim2 {
			if d := math.Sqrt(s); d > limit {
				return d, false
			}
		}
	}
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		s += d0 * d0
		d1 := a[i+1] - b[i+1]
		s += d1 * d1
		d2 := a[i+2] - b[i+2]
		s += d2 * d2
		d3 := a[i+3] - b[i+3]
		s += d3 * d3
		if s > lim2 {
			if d := math.Sqrt(s); d > limit {
				return d, false
			}
		}
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	d := math.Sqrt(s)
	return d, d <= limit
}

// DistanceWithin is the early-abandoning L1 kernel. The accumulated sum is
// the distance itself, so partial sums compare directly against limit and
// monotonicity of non-negative accumulation makes the abandon decision
// exact without any confirmation step.
func (Manhattan) DistanceWithin(a, b Vector, limit float64) (float64, bool) {
	return manhattanWithin(a, b, limit)
}

// manhattanWithin is the L1 kernel body, shared with Minkowski p = 1.
func manhattanWithin(a, b Vector, limit float64) (float64, bool) {
	mustSameDim(a, b)
	var s float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s += math.Abs(a[i] - b[i])
		s += math.Abs(a[i+1] - b[i+1])
		s += math.Abs(a[i+2] - b[i+2])
		s += math.Abs(a[i+3] - b[i+3])
		if s > limit {
			return s, false
		}
	}
	for ; i < n; i++ {
		s += math.Abs(a[i] - b[i])
	}
	return s, s <= limit
}

// DistanceWithin is the early-abandoning L∞ kernel: the running maximum is
// the distance so far, so it compares directly against limit.
func (Chebyshev) DistanceWithin(a, b Vector, limit float64) (float64, bool) {
	mustSameDim(a, b)
	var m float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
		if d := math.Abs(a[i+1] - b[i+1]); d > m {
			m = d
		}
		if d := math.Abs(a[i+2] - b[i+2]); d > m {
			m = d
		}
		if d := math.Abs(a[i+3] - b[i+3]); d > m {
			m = d
		}
		if m > limit {
			return m, false
		}
	}
	for ; i < n; i++ {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m, m <= limit
}

// DistanceWithin is the early-abandoning Lp kernel. p = 1 and p = 2
// delegate to the specialized L1/L2 kernels; other orders accumulate
// |a_i-b_i|^p (via repeated multiplication for integer p, math.Pow
// otherwise) against limit^p and confirm an abandon decision through the
// same x^(1/p) finalization the full kernel applies.
func (m Minkowski) DistanceWithin(a, b Vector, limit float64) (float64, bool) {
	switch m.p {
	case 1:
		return manhattanWithin(a, b, limit)
	case 2:
		return euclideanWithin(a, b, limit)
	}
	mustSameDim(a, b)
	limP := math.Pow(limit, m.p)
	var s float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s += m.term(math.Abs(a[i] - b[i]))
		s += m.term(math.Abs(a[i+1] - b[i+1]))
		s += m.term(math.Abs(a[i+2] - b[i+2]))
		s += m.term(math.Abs(a[i+3] - b[i+3]))
		if s > limP {
			if d := math.Pow(s, m.invp); d > limit {
				return d, false
			}
		}
	}
	for ; i < n; i++ {
		s += m.term(math.Abs(a[i] - b[i]))
	}
	d := math.Pow(s, m.invp)
	return d, d <= limit
}

// DistanceWithin is the early-abandoning weighted-L2 kernel, the Euclidean
// kernel with per-dimension weights folded into the squared accumulation.
func (m *WeightedEuclidean) DistanceWithin(a, b Vector, limit float64) (float64, bool) {
	mustSameDim(a, b)
	if len(a) != len(m.weights) {
		panic(fmt.Sprintf("vec: weighted Euclidean configured for dim %d, got %d", len(m.weights), len(a)))
	}
	w := m.weights
	lim2 := limit * limit
	var s float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		s += w[i] * d0 * d0
		d1 := a[i+1] - b[i+1]
		s += w[i+1] * d1 * d1
		d2 := a[i+2] - b[i+2]
		s += w[i+2] * d2 * d2
		d3 := a[i+3] - b[i+3]
		s += w[i+3] * d3 * d3
		if s > lim2 {
			if d := math.Sqrt(s); d > limit {
				return d, false
			}
		}
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s += w[i] * d * d
	}
	d := math.Sqrt(s)
	return d, d <= limit
}
